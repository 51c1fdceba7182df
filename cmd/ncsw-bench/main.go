// Command ncsw-bench regenerates the paper's evaluation artefacts:
// every figure of §IV–§V, the headline-claim summary, and the two
// beyond-the-paper ablations. Output is a paper-vs-measured table per
// artefact. It drives the public repro facade end to end.
//
// Usage:
//
//	ncsw-bench                         # quick scale, all experiments
//	ncsw-bench -full                   # paper scale (50 000 images)
//	ncsw-bench -experiment fig6a       # one artefact
//	ncsw-bench -markdown > tables.md   # EXPERIMENTS.md fragments
//	ncsw-bench -hetero                 # device-group session demo
//	ncsw-bench -serve                  # tail latency vs offered load
//	ncsw-bench -serve -json            # machine-readable serving points
//	ncsw-bench -slo                    # adaptive batching + admission vs baseline
//	ncsw-bench -slo -json              # machine-readable slo points (BENCH_PR3.json)
//	ncsw-bench -faults                 # goodput under injected faults, recovery vs fail-stop
//	ncsw-bench -faults -json           # machine-readable resilience points (BENCH_PR4.json)
//	ncsw-bench -hedge                  # p99/goodput vs hedge trigger, with and without faults
//	ncsw-bench -hedge -json            # machine-readable hedge points (BENCH_PR5.json)
//	ncsw-bench -kernel                 # simulation-kernel microbenchmarks vs pre-rewrite baseline
//	ncsw-bench -kernel -json           # machine-readable kernel points (BENCH_PR7.json)
//	ncsw-bench -split                  # split inference: throughput vs partition point
//	ncsw-bench -split -json            # machine-readable split points (BENCH_PR8.json)
//	ncsw-bench -tenants                # multi-tenant isolation: per-tenant goodput vs admission scheduler
//	ncsw-bench -tenants -json          # machine-readable tenant points (BENCH_PR9.json)
//	ncsw-bench -scenario scenarios/    # replay every declarative scenario in a directory
//	ncsw-bench -scenario f.json        # replay one scenario file
//	ncsw-bench -scenario scenarios/ -json  # machine-readable scenario points (BENCH_PR10.json)
//	ncsw-bench -cpuprofile cpu.pprof   # write a CPU profile of the run (any mode)
//	ncsw-bench -memprofile mem.pprof   # write an allocation profile at exit (any mode)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ncsw-bench: ")

	experiment := flag.String("experiment", "all",
		"experiment to run: all, "+strings.Join(repro.ExperimentIDs(), ", "))
	full := flag.Bool("full", false, "paper-scale workload (10000 images per subset)")
	images := flag.Int("images", 0, "override images per subset for performance runs")
	funcImages := flag.Int("functional-images", 0, "override images per subset for accuracy runs")
	subsets := flag.Int("subsets", 0, "override subset count")
	markdown := flag.Bool("markdown", false, "emit GitHub markdown instead of aligned text")
	hetero := flag.Bool("hetero", false,
		"run the heterogeneous device-group session (CPU + GPU + 4 VPUs) instead of the figures")
	serve := flag.Bool("serve", false,
		"run the serving experiment (tail latency vs offered load per device group)")
	slo := flag.Bool("slo", false,
		"run the slo experiment (adaptive batching + admission control vs the fixed/open baseline)")
	faults := flag.Bool("faults", false,
		"run the resilience experiment (goodput/p99 under injected faults, self-healing recovery vs fail-stop)")
	hedge := flag.Bool("hedge", false,
		"run the hedge experiment (p99/goodput vs hedge trigger, with and without faults)")
	kernel := flag.Bool("kernel", false,
		"run the simulation-kernel microbenchmarks (ops/sec and allocs/op per hot path vs the committed pre-rewrite baseline)")
	split := flag.Bool("split", false,
		"run the split-inference experiment (pipeline throughput vs partition point and boundary window, against whole-inference baselines)")
	tenants := flag.Bool("tenants", false,
		"run the multi-tenant experiment (per-tenant goodput under a flash-crowd mix: FIFO vs weighted-fair vs priority admission)")
	scenarioPath := flag.String("scenario", "",
		"replay the declarative scenario(s) in this file or directory (each pins its own scale; -json for machine-readable points)")
	jsonOut := flag.Bool("json", false,
		"with -serve, -slo, -faults, -hedge, -kernel, -split or -tenants: emit the experiment's points as JSON (the BENCH_PR*.json format)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // surface live heap accurately
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	// modes are the single-experiment flags: each runs its experiment's
	// table, or with -json emits its points. Apart from the kernel
	// microbenchmarks' wall-clock numbers, the points are simulated, so
	// two emissions at the same seed are byte-identical.
	modes := []struct {
		on     bool
		id     string
		points func(*repro.Benchmarks) (any, error)
	}{
		{*serve, "serving", func(h *repro.Benchmarks) (any, error) { return h.ServingPoints() }},
		{*slo, "slo", func(h *repro.Benchmarks) (any, error) { return h.SLOPoints() }},
		{*faults, "resilience", func(h *repro.Benchmarks) (any, error) { return h.ResiliencePoints() }},
		{*hedge, "hedge", func(h *repro.Benchmarks) (any, error) { return h.HedgePoints() }},
		{*kernel, "kernel", func(h *repro.Benchmarks) (any, error) { return h.KernelPoints() }},
		{*split, "split", func(h *repro.Benchmarks) (any, error) { return h.SplitPoints() }},
		{*tenants, "tenants", func(h *repro.Benchmarks) (any, error) { return h.TenantPoints() }},
	}
	nModes, mode := 0, -1
	for i, m := range modes {
		if m.on {
			nModes, mode = nModes+1, i
		}
	}

	if *scenarioPath != "" {
		if *hetero || nModes > 0 || *experiment != "all" {
			log.Fatal("-scenario replays scenario files on their own terms (drop the other mode flags)")
		}
		runScenarios(*scenarioPath, *jsonOut)
		return
	}

	if *hetero {
		n := *images
		if n == 0 {
			n = 400
		}
		runHetero(n)
		return
	}

	cfg := repro.QuickBenchConfig()
	if *full {
		cfg = repro.DefaultBenchConfig()
	}
	if *images > 0 {
		cfg.ImagesPerSubset = *images
	}
	if *funcImages > 0 {
		cfg.FunctionalImagesPerSubset = *funcImages
	}
	if *subsets > 0 {
		cfg.Subsets = *subsets
	}

	h, err := repro.NewBenchmarks(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ids := repro.ExperimentIDs()
	if *experiment != "all" {
		if nModes > 0 {
			log.Fatal("-serve/-slo/-faults/-hedge/-kernel/-split/-tenants and -experiment are mutually exclusive (use -experiment serving,slo,resilience,hedge,kernel,split,tenants to mix)")
		}
		ids = strings.Split(*experiment, ",")
	}
	if nModes > 1 {
		log.Fatal("-serve, -slo, -faults, -hedge, -kernel, -split and -tenants are mutually exclusive")
	}
	if *jsonOut && nModes == 0 {
		log.Fatal("-json requires -serve, -slo, -faults, -hedge, -kernel, -split or -tenants (only their points have a JSON form)")
	}
	if mode >= 0 {
		m := modes[mode]
		if *jsonOut {
			points, err := m.points(h)
			if err != nil {
				log.Fatal(err)
			}
			emitJSON(m.id, points)
			return
		}
		ids = []string{m.id}
	}
	for _, id := range ids {
		start := time.Now()
		tbl, err := h.Experiment(strings.TrimSpace(id))
		if err != nil {
			log.Fatal(err)
		}
		if *markdown {
			fmt.Print(tbl.Markdown())
		} else {
			fmt.Println(tbl.String())
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", tbl.ID, time.Since(start).Round(time.Millisecond))
	}
}

// runScenarios replays the declarative scenario(s) at path — one
// file, or every *.json in a directory — printing each report (or,
// with -json, the points in the BENCH_PR*.json format). Scenario
// files pin their own scale and seeds, so the run is bit-reproducible
// regardless of the harness flags.
func runScenarios(path string, jsonOut bool) {
	scs, err := repro.LoadScenarios(path)
	if err != nil {
		log.Fatal(err)
	}
	if jsonOut {
		points := make([]repro.ScenarioPoint, 0, len(scs))
		for _, sc := range scs {
			res, err := sc.Run()
			if err != nil {
				log.Fatal(err)
			}
			points = append(points, res.Point())
		}
		emitJSON("scenarios", points)
		return
	}
	for _, sc := range scs {
		start := time.Now()
		res, err := sc.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.String())
		fmt.Fprintf(os.Stderr, "[scenario %s done in %v]\n", res.Scenario.Name, time.Since(start).Round(time.Millisecond))
	}
}

// emitJSON writes an experiment's points to stdout in the
// BENCH_PR*.json format: {"experiment": ..., "points": [...]}.
func emitJSON(experiment string, points any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Experiment string `json:"experiment"`
		Points     any    `json:"points"`
	}{Experiment: experiment, Points: points}); err != nil {
		log.Fatal(err)
	}
}

// runHetero demonstrates §III's device groups beyond the paper's
// figures: one dataset split across every device family at once,
// under each routing policy.
func runHetero(images int) {
	fmt.Printf("heterogeneous device groups: CPU + GPU + 4 VPUs over %d images\n\n", images)
	net := repro.NewGoogLeNet(repro.Seed(42))
	blob, err := repro.CompileGraph(net)
	if err != nil {
		log.Fatal(err)
	}
	for _, route := range []repro.Routing{
		repro.StaticSplit, repro.RoundRobinSplit, repro.WorkStealing, repro.WeightedByThroughput,
	} {
		sess, err := repro.NewSession(
			repro.WithImages(images),
			repro.WithCPU(8),
			repro.WithGPU(8),
			repro.WithVPUs(4),
			repro.WithNetwork(net),
			repro.WithBlob(blob),
			repro.WithRouting(route),
		)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		report, err := sess.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("── routing: %v ──\n%s\n", route, report)
		fmt.Fprintf(os.Stderr, "[%v done in %v]\n", route, time.Since(start).Round(time.Millisecond))
	}
}
