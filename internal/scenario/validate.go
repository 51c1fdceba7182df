package scenario

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pipeline"
	"repro/internal/tenant"
)

// Validation: every rule failure is an error whose message begins
// with the JSON field path of the offending value ("fleet.groups[0]
// .kind: ..."), so a scenario author can fix a file from the error
// alone. Parse wraps these with the file name.
//
// This package checks only the rules that exist because the input is
// JSON: required keys, enum spellings, which sections may appear
// together, and what a reload may target. Every range or cross-field
// rule belongs to the package that owns the value — the core arrival
// checks, tenant.Config.Validate, fault.Plan.Validate,
// core.HedgeConfig.Validate, all reached through
// pipeline.Config.Validate — and is checked by lowering the scenario
// and calling that owner, whose error names the offending config key;
// rekey turns the key into the JSON path. Cut names are the one thing
// validated later — they need the workload network, so Compile
// resolves and checks them.

func pathErr(path, format string, args ...any) error {
	return fmt.Errorf("%s: %s", path, fmt.Sprintf(format, args...))
}

// The enum tables map each accepted spelling onto its typed constant;
// the known* strings list the spellings for error messages.
var (
	kinds    = map[string]pipeline.GroupKind{"cpu": pipeline.GroupCPU, "gpu": pipeline.GroupGPU, "vpu": pipeline.GroupVPU}
	networks = map[string]pipeline.NetworkKind{"": pipeline.NetAuto, "auto": pipeline.NetAuto,
		"googlenet": pipeline.NetGoogLeNet, "micro": pipeline.NetMicro}
	routings = map[string]core.Routing{"": core.RouteWeighted, "throughput-weighted": core.RouteWeighted,
		"static-split": core.RouteStatic, "round-robin": core.RouteRoundRobin,
		"work-stealing": core.RouteWorkStealing, "latency-ewma": core.RouteLatency}
	policies = map[string]core.OverloadPolicy{"": core.ShedNewest, "shed-newest": core.ShedNewest,
		"shed-oldest": core.ShedOldest, "block": core.Block}
	schedulers = map[string]tenant.Scheduler{"": tenant.FIFO, "fifo": tenant.FIFO,
		"fair": tenant.WeightedFair, "weighted-fair": tenant.WeightedFair, "priority": tenant.Priority}
	faultKinds = map[string]fault.Kind{"hang": fault.StickHang, "link-drop": fault.LinkDrop,
		"transient": fault.TransientError, "slowdown": fault.Slowdown, "batch-oom": fault.BatchOOM}
)

const (
	knownKinds      = "cpu, gpu or vpu"
	knownNetworks   = "auto, googlenet or micro"
	knownRoutings   = "throughput-weighted, static-split, round-robin, work-stealing or latency-ewma"
	knownPolicies   = "shed-newest, shed-oldest or block"
	knownSchedulers = "fifo, weighted-fair or priority"
	knownFaults     = "hang, link-drop, transient, slowdown or batch-oom"
	knownProcesses  = "deterministic, poisson, bursty, trace or phased"
)

// lookup resolves an enum spelling through its table.
func lookup[T any](table map[string]T, path, what, v, known string) (T, error) {
	t, ok := table[v]
	if !ok {
		return t, pathErr(path, "unknown %s %q (want %s)", what, v, known)
	}
	return t, nil
}

// sectionOf maps a pipeline.Config key onto the JSON path that
// declares it; keys absent here are spelled the same in both.
var sectionOf = map[string]string{
	"groups":              "fleet.groups",
	"stages":              "fleet.stages",
	"cuts":                "fleet.cuts",
	"queue_depth":         "fleet.queue_depth",
	"tenants":             "traffic.tenants",
	"admission_depth":     "admission.depth",
	"admission_min_depth": "admission.min_depth",
	"batch_max_wait":      "batching.max_wait",
}

// rekey rewrites the leading config key of an owner's error ("groups"
// in "groups[1].batch: ...") onto its JSON path.
func rekey(err error, paths map[string]string) error {
	msg := err.Error()
	end := strings.IndexAny(msg, ".[:")
	if end < 0 {
		return err
	}
	if p, ok := paths[msg[:end]]; ok {
		return errors.New(p + msg[end:])
	}
	return err
}

// Validate checks every rule a scenario must satisfy before
// compilation; the returned error names the offending field path.
func (sc *Scenario) Validate() error {
	_, err := sc.lower()
	return err
}

// checkReloads checks each scheduled reload against the lowered
// config: what it may target here, its values by the owners the
// session's Reload* methods call.
func (sc *Scenario) checkReloads(cfg pipeline.Config) error {
	for i, rl := range sc.Reloads {
		p := fmt.Sprintf("reloads[%d]", i)
		switch {
		case rl.At < 0:
			return pathErr(p+".at", "negative instant %v", rl.At.Std())
		case rl.SLO == nil && rl.HedgeBudget == nil && rl.AdmissionDepth == nil:
			return pathErr(p, "reload sets no knob (want slo, hedge_budget or admission_depth)")
		case rl.HedgeBudget != nil && sc.Hedge == nil:
			return pathErr(p+".hedge_budget", "needs a hedge section (hedging cannot be turned on mid-run)")
		case rl.AdmissionDepth != nil && sc.Admission == nil:
			return pathErr(p+".admission_depth", "needs an admission section (admission cannot be turned on mid-run, only resized)")
		case rl.AdmissionDepth != nil && *rl.AdmissionDepth == 0:
			return pathErr(p+".admission_depth", "required (admission cannot be turned off mid-run, only resized)")
		}
		next := cfg
		if rl.SLO != nil {
			next.SLO = rl.SLO.Std()
		}
		if rl.AdmissionDepth != nil {
			next.AdmissionDepth = *rl.AdmissionDepth
		}
		err := next.Validate()
		if err == nil && rl.HedgeBudget != nil {
			err = core.HedgeConfig{Budget: *rl.HedgeBudget}.Validate()
		}
		if err != nil {
			return rekey(err, map[string]string{"slo": p + ".slo", "admission_depth": p + ".admission_depth", "budget": p + ".hedge_budget"})
		}
	}
	return nil
}
