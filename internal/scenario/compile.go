package scenario

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/imagenet"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/tenant"
)

// Compilation: a scenario lowers onto pipeline.Config — the same
// struct the hand-wired benches and options build — so a scenario
// session is indistinguishable from a hand-coded one. Lowering is also
// how a scenario is validated (see validate.go). The one piece of late
// validation lives in Compile: named cuts are resolved against the
// workload network's layer list, which only exists once the network
// kind is known.

// lower checks the scenario and lowers it onto a pipeline.Config with
// placeholder cut indices (Compile resolves the declared cuts).
func (sc *Scenario) lower() (pipeline.Config, error) {
	cfg := pipeline.Config{
		Seed:    sc.Seed,
		NetSeed: sc.NetSeed,
		Images:  sc.Images,
		SLO:     sc.SLO.Std(),
	}
	if sc.Name == "" {
		return cfg, pathErr("name", "required (a scenario must name itself)")
	}
	var err error
	if cfg.Network, err = lookup(networks, "network", "network", sc.Network, knownNetworks); err != nil {
		return cfg, err
	}
	if d := sc.Dataset; d != nil {
		// Zero keeps the imagenet default, so a negative override can
		// only be a typo.
		if d.Images < 0 || d.Classes < 0 || d.Subsets < 0 || d.Size < 0 {
			return cfg, pathErr("dataset", "negative dataset parameter")
		}
		dc := imagenet.DefaultConfig()
		if d.Images > 0 {
			dc.Images = d.Images
		}
		if d.Classes > 0 {
			dc.Classes = d.Classes
		}
		if d.Subsets > 0 {
			dc.Subsets = d.Subsets
		}
		if d.Size > 0 {
			dc.Size = d.Size
		}
		if d.Seed != 0 {
			dc.Seed = d.Seed
		}
		cfg.Dataset = dc
	}
	for _, step := range []func(*pipeline.Config) error{sc.lowerFleet, sc.lowerTraffic, sc.lowerKnobs, sc.lowerFaults} {
		if err := step(&cfg); err != nil {
			return cfg, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, rekey(err, sectionOf)
	}
	return cfg, sc.checkReloads(cfg)
}

func (sc *Scenario) lowerFleet(cfg *pipeline.Config) error {
	f := &sc.Fleet
	if len(f.Groups) == 0 && len(f.Stages) == 0 {
		return pathErr("fleet", "needs groups or stages")
	}
	if len(f.Groups) > 0 && len(f.Stages) > 0 {
		return pathErr("fleet", "groups and stages are mutually exclusive")
	}
	for i, g := range f.Groups {
		pg, err := lowerGroup(fmt.Sprintf("fleet.groups[%d]", i), g)
		if err != nil {
			return err
		}
		cfg.Groups = append(cfg.Groups, pg)
	}
	for i, s := range f.Stages {
		pg, err := lowerGroup(fmt.Sprintf("fleet.stages[%d]", i), s.GroupSpec)
		if err != nil {
			return err
		}
		cfg.Stages = append(cfg.Stages, pipeline.Stage{Group: pg, Queue: s.Queue, Replicas: s.Replicas})
	}
	cfg.Cuts = make([]int, len(f.Cuts))
	cfg.QueueDepth = f.QueueDepth
	var err error
	cfg.Routing, err = lookup(routings, "fleet.routing", "routing", f.Routing, knownRoutings)
	return err
}

func lowerGroup(path string, g GroupSpec) (pipeline.Group, error) {
	kind, err := lookup(kinds, path+".kind", "device kind", g.Kind, knownKinds)
	return pipeline.Group{
		Kind:      kind,
		Batch:     g.Batch,
		Devices:   g.Devices,
		Weight:    g.Weight,
		SeedLabel: g.SeedLabel,
	}, err
}

func (sc *Scenario) lowerTraffic(cfg *pipeline.Config) error {
	t := sc.Traffic
	if t == nil {
		return nil
	}
	if t.Arrivals != nil && t.Tenants != nil {
		return pathErr("traffic", "arrivals and tenants are mutually exclusive (tenant lanes carry their own arrival processes)")
	}
	if t.ArrivalLabel != "" && t.Arrivals == nil {
		return pathErr("traffic.arrival_label", "needs traffic.arrivals")
	}
	var err error
	if t.Arrivals != nil {
		if cfg.Arrivals, err = lowerArrivals("traffic.arrivals", t.Arrivals, false); err != nil {
			return err
		}
		cfg.ArrivalLabel = t.ArrivalLabel
	}
	ts := t.Tenants
	if ts == nil {
		return nil
	}
	if len(ts.Tenants) == 0 {
		return pathErr("traffic.tenants.tenants", "need at least one tenant")
	}
	tc := &cfg.Tenants
	if tc.Scheduler, err = lookup(schedulers, "traffic.tenants.scheduler", "scheduler", ts.Scheduler, knownSchedulers); err != nil {
		return err
	}
	if tc.SharedOverload, err = lookup(policies, "traffic.tenants.shared_overload", "overload policy", ts.SharedOverload, knownPolicies); err != nil {
		return err
	}
	tc.SharedDepth = ts.SharedDepth
	for i, tn := range ts.Tenants {
		p := fmt.Sprintf("traffic.tenants.tenants[%d]", i)
		lane := tenant.Tenant{
			ID:          tn.ID,
			Weight:      tn.Weight,
			Priority:    tn.Priority,
			SLO:         tn.SLO.Std(),
			QueueDepth:  tn.QueueDepth,
			MaxInFlight: tn.MaxInFlight,
			RatePerSec:  tn.RatePerSec,
			Burst:       tn.Burst,
		}
		if lane.Overload, err = lookup(policies, p+".overload", "overload policy", tn.Overload, knownPolicies); err != nil {
			return err
		}
		if tn.Arrivals != nil {
			if lane.Arrivals, err = lowerArrivals(p+".arrivals", tn.Arrivals, false); err != nil {
				return err
			}
		}
		tc.Tenants = append(tc.Tenants, lane)
	}
	return nil
}

// lowerArrivals checks an arrival spec and builds it with the core
// constructors. The JSON rules — the process spelling, which keys a
// process admits — are checked here; every range rule is the core
// check the constructor itself panics on, so a spec that passes can
// never panic a constructor. nested marks a phase of a phased
// schedule, where "silence" is legal (and lowers to nil) and "phased"
// is not.
func lowerArrivals(path string, a *ArrivalSpec, nested bool) (core.Arrivals, error) {
	at := func(err error) (core.Arrivals, error) { return nil, fmt.Errorf("%s.%v", path, err) }
	if a.Process != "phased" {
		if a.Cycle {
			return nil, pathErr(path+".cycle", "only meaningful with a phased process")
		}
		if len(a.Phases) > 0 {
			return nil, pathErr(path+".phases", "only meaningful with a phased process")
		}
	}
	var arr core.Arrivals
	switch a.Process {
	case "deterministic", "poisson":
		if err := core.ValidateRate(a.Rate); err != nil {
			return at(err)
		}
		if a.Process == "poisson" {
			arr = core.PoissonArrivals(a.Rate)
		} else {
			arr = core.DeterministicArrivals(a.Rate)
		}
	case "bursty":
		if err := core.ValidateBursty(a.Rate, a.On.Std(), a.Off.Std()); err != nil {
			return at(err)
		}
		arr = core.BurstyArrivals(a.Rate, a.On.Std(), a.Off.Std())
	case "trace":
		instants := make([]time.Duration, len(a.Instants))
		for i, ins := range a.Instants {
			instants[i] = ins.Std()
		}
		if err := core.ValidateTrace(instants); err != nil {
			return at(err)
		}
		arr = core.TraceArrivals(instants)
	case "phased":
		if nested {
			return nil, pathErr(path+".process", "phased schedules cannot nest")
		}
		phases := make([]core.Phase, len(a.Phases))
		for i := range a.Phases {
			ph := &a.Phases[i]
			inner, err := lowerArrivals(fmt.Sprintf("%s.phases[%d]", path, i), &ph.ArrivalSpec, true)
			if err != nil {
				return nil, err
			}
			phases[i] = core.Phase{Arrivals: inner, Duration: ph.Duration.Std()}
		}
		if err := core.ValidatePhases(phases); err != nil {
			return at(err)
		}
		arr = core.PhasedArrivals(phases, a.Cycle)
	case "silence":
		if !nested {
			return nil, pathErr(path+".process", "silence is only meaningful as a phase of a phased schedule")
		}
	default:
		return nil, pathErr(path+".process", "unknown arrival process %q (want %s)", a.Process, knownProcesses)
	}
	if err := core.ValidateDelay(a.Delay.Std()); err != nil {
		return at(err)
	}
	if a.Delay > 0 && arr != nil {
		arr = core.DelayedArrivals(arr, a.Delay.Std())
	}
	return arr, nil
}

func (sc *Scenario) lowerKnobs(cfg *pipeline.Config) error {
	var err error
	if ad := sc.Admission; ad != nil {
		if ad.Depth == 0 {
			return pathErr("admission.depth", "required (the ingress bound, >= 1)")
		}
		if sc.Traffic == nil || sc.Traffic.Arrivals == nil {
			return pathErr("admission", "needs traffic.arrivals (a bounded ingress is only meaningful against offered load)")
		}
		if cfg.AdmissionPolicy, err = lookup(policies, "admission.policy", "overload policy", ad.Policy, knownPolicies); err != nil {
			return err
		}
		cfg.AdmissionDepth = ad.Depth
		cfg.AdmissionShrink = ad.Shrink
		cfg.AdmissionMinDepth = ad.MinDepth
	}
	if h := sc.Hedge; h != nil {
		if h.Trigger == 0 && h.Quantile == 0 {
			return pathErr("hedge", "needs a trigger or a quantile")
		}
		cfg.Hedge = core.HedgeConfig{
			Trigger:       h.Trigger.Std(),
			Quantile:      h.Quantile,
			MinSamples:    h.MinSamples,
			Budget:        h.Budget,
			DynamicBudget: h.Dynamic,
		}
	}
	if b := sc.Batching; b != nil {
		cfg.BatchMaxWait = b.MaxWait.Std()
		cfg.AdaptiveBatch = b.Adaptive
	}
	if r := sc.Recovery; r != nil {
		if r.Timeout == 0 {
			return pathErr("recovery.timeout", "required (the completion heartbeat, > 0)")
		}
		cfg.Recovery = core.RecoveryConfig{
			Timeout:     r.Timeout.Std(),
			Recover:     r.Recover == nil || *r.Recover,
			MaxAttempts: r.MaxAttempts,
		}
	}
	return nil
}

func (sc *Scenario) lowerFaults(cfg *pipeline.Config) error {
	f := sc.Faults
	if f == nil {
		return nil
	}
	for i, e := range f.Events {
		kind, err := lookup(faultKinds, fmt.Sprintf("faults.events[%d].kind", i), "fault kind", e.Kind, knownFaults)
		if err != nil {
			return err
		}
		cfg.Faults.Events = append(cfg.Faults.Events, fault.Event{
			Device:   e.Device,
			Kind:     kind,
			At:       e.At.Std(),
			Duration: e.Duration.Std(),
			Factor:   e.Factor,
			Count:    e.Count,
		})
	}
	for i, pr := range f.Processes {
		kinds := make([]fault.Kind, len(pr.Kinds))
		for j, k := range pr.Kinds {
			var err error
			if kinds[j], err = lookup(faultKinds, fmt.Sprintf("faults.processes[%d].kinds[%d]", i, j), "fault kind", k, knownFaults); err != nil {
				return err
			}
		}
		cfg.Faults.Processes = append(cfg.Faults.Processes, fault.Process{
			Devices: pr.Devices,
			Kinds:   kinds,
			Rate:    pr.Rate,
			Start:   pr.Start.Std(),
			End:     pr.End.Std(),
			Factor:  pr.Factor,
			Window:  pr.Window.Std(),
		})
	}
	return nil
}

// structureGraph builds a throwaway copy of the workload network for
// cut-name resolution. Only the topology matters — layer names and
// valid cut points are independent of the weights — so the seed is
// arbitrary and the session still constructs its own network exactly
// as a hand-coded config would.
func structureGraph(network string) *nn.Graph {
	if network == "micro" {
		return nn.NewMicroGoogLeNet(nn.DefaultMicroConfig(), rng.New(1))
	}
	return nn.NewGoogLeNet(rng.New(1))
}

// resolveCuts maps declared cuts (layer names or indices) onto
// whole-network cut indices, checking each against the network's
// legal cut points.
func resolveCuts(cuts []Cut, network string) ([]int, error) {
	if len(cuts) == 0 {
		return nil, nil
	}
	g := structureGraph(network)
	names := g.LayerNames()
	valid := make(map[int]bool)
	for _, c := range g.ValidCuts() {
		valid[c] = true
	}
	out := make([]int, len(cuts))
	for i, c := range cuts {
		p := fmt.Sprintf("fleet.cuts[%d]", i)
		idx := c.Index
		if c.Name != "" {
			found := -1
			for j, n := range names {
				if n == c.Name {
					found = j
					break
				}
			}
			if found < 0 {
				return nil, pathErr(p, "no layer %q in %s (layers: %s ...)", c.Name, g.Name(), strings.Join(names[:4], ", "))
			}
			idx = found + 1 // cut after the named layer
		}
		if !valid[idx] && idx != 0 && idx != g.Len() {
			if c.Name != "" {
				return nil, pathErr(p, "no legal cut after layer %q (cut %d of %s)", c.Name, idx, g.Name())
			}
			return nil, pathErr(p, "no legal cut at %d (nn.Graph.ValidCuts enumerates the legal ones)", idx)
		}
		out[i] = idx
	}
	return out, nil
}

// Compile validates the scenario and lowers it onto a
// pipeline.Config ready for pipeline.NewFromConfig. Reloads are not
// part of the config — Run schedules them onto the built session.
func (sc *Scenario) Compile() (pipeline.Config, error) {
	cfg, err := sc.lower()
	if err == nil {
		cfg.Cuts, err = resolveCuts(sc.Fleet.Cuts, sc.Network)
	}
	if err != nil {
		return pipeline.Config{}, fmt.Errorf("scenario %s: %v", sc.errLabel(), err)
	}
	return cfg, nil
}
