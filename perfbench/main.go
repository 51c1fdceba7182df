// Command perfbench is the repository's benchmark. It runs one
// workload for a fixed wall-clock budget, each repetition in a fresh
// child process (users pay set-up once per invocation, so no
// process-level cache may hide it), checks every repetition's output
// against the pinned fingerprint, and prints the metrics named in
// BENCHMARK.json: a table for people, then one JSON object as the
// last line of standard output.
//
// Run it from the repository root through the wrapper, which builds
// it inside the checkout:
//
//	sh perfbench/run.sh --workload vpu-faulted-serving --seed 1 --seconds 35 --trace 0
//
// With --trace 1 every repetition is paired with a traced one that
// times each layer's public entry point from outside and must produce
// the same fingerprint; the per-layer metrics come from those.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", pinnedSeed, fmt.Sprintf("workload seed: outputs are pinned for the default; verify claimed gains on %d", heldOutSeed))
		seconds = flag.Int("seconds", 20, "wall-clock budget for the repetitions")
		trace   = flag.Int("trace", 0, "1: pair each repetition with a traced one and report per-layer metrics")
		child   = flag.Bool("child", false, "run one repetition and print its result (internal)")
		traced  = flag.Bool("traced", false, "with -child: time every layer's entry point")
		update  = flag.String("update", "", "with -child: write the output to this golden file")
		cpuprof = flag.String("cpuprofile", "", "with -child: write a CPU profile to this file")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *child {
		if err := runChild(w, *seed, *traced, *update, *cpuprof); err != nil {
			fail(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	os.Exit(drive(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// runChild runs one repetition and prints its result as JSON.
func runChild(w workload, seed uint64, traced bool, update, cpuprof string) (err error) {
	if cpuprof != "" {
		f, ferr := os.Create(cpuprof)
		if ferr != nil {
			return ferr
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	run := runPlain
	if traced {
		run = runTraced
	}
	res, err := run(w, seed)
	if err != nil {
		return err
	}
	if update != "" {
		if err := os.WriteFile(update, []byte(res.Output), 0o644); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// sample is one repetition as the parent process saw it: the child's own
// report plus the host figures only the parent can take.
type sample struct {
	*repResult
	wallS, cpuS, rssMB float64
}

// spawn runs one repetition in a fresh process.
func spawn(w workload, seed uint64, traced bool) (sample, error) {
	self, err := os.Executable()
	if err != nil {
		return sample{}, err
	}
	cmd := exec.Command(self, "-child", "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-traced="+strconv.FormatBool(traced))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return sample{}, fmt.Errorf("repetition (traced=%v): %w", traced, err)
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return sample{}, fmt.Errorf("repetition output: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return sample{}, fmt.Errorf("no rusage for the repetition")
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return sample{
		repResult: &res,
		wallS:     wall.Seconds(),
		cpuS:      tv(ru.Utime) + tv(ru.Stime),
		rssMB:     float64(ru.Maxrss) * 1024 / 1e6, // Linux reports KiB
	}, nil
}

// minRepetitions keeps the medians meaningful and, for a seed with no
// pinned output, lets every run compare at least two fresh processes.
const minRepetitions = 3

// drive runs repetitions until the next one would overrun the budget,
// checks the oracle, and prints the result. It returns the exit code.
func drive(w workload, seed uint64, budget time.Duration, trace bool) int {
	bench, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	var plain, traced []sample
	start := time.Now()
	var round time.Duration
	for len(plain) < minRepetitions || time.Since(start)+round <= budget {
		roundStart := time.Now()
		s, err := spawn(w, seed, false)
		if err != nil {
			fail(err)
		}
		plain = append(plain, s)
		if trace {
			s, err := spawn(w, seed, true)
			if err != nil {
				fail(err)
			}
			traced = append(traced, s)
		}
		round = time.Since(roundStart)
	}

	all := append(append([]sample(nil), plain...), traced...)
	verdict := checkOracle(w, seed, all)
	// An image that was shed, expired, quota-rejected or dropped after
	// its retries is a policy outcome the oracle pins, and counts as a
	// miss in sim_goodput_pct. A failed operation is an image the
	// session lost track of, or any image of a run that broke the oracle.
	attempted, failed := 0, 0
	for _, s := range all {
		attempted += s.Ops
	}
	if verdict != "" {
		failed = attempted
	}

	values := map[string]float64{}
	metrics := bench.EndToEnd
	if trace {
		metrics = bench.PerLayer
		for k, v := range medianOf(traced, func(s sample) map[string]float64 { return s.Layers }) {
			values[k] = v
		}
		values["wall_s"] = median(walls(plain))
		values["trace.overhead_s"] = median(walls(traced)) - values["wall_s"]
	} else {
		for k, v := range medianOf(plain, func(s sample) map[string]float64 { return s.Metrics }) {
			values[k] = v
		}
		values["setup_s"] = median(field(plain, func(s sample) float64 { return s.SetupS }))
		values["cpu_s"] = median(field(plain, func(s sample) float64 { return s.cpuS }))
		values["max_rss_mb"] = median(field(plain, func(s sample) float64 { return s.rssMB }))
		values["alloc_mb"] = median(field(plain, func(s sample) float64 { return s.AllocMB }))
	}
	out, err := bench.result(metrics, values, trace)
	if err != nil {
		fail(err)
	}

	printTable(w, seed, plain, traced, values, bench, verdict, attempted, failed)
	line, err := json.Marshal(map[string]any{
		"correct":   verdict == "",
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if verdict != "" {
		return 1
	}
	return 0
}

// checkOracle returns "" when every repetition rendered the pinned
// output (at the pinned seed) or, for any other seed, when all of
// them rendered byte-identical output; otherwise it says what broke.
func checkOracle(w workload, seed uint64, all []sample) string {
	for i, s := range all {
		if s.Lost != 0 {
			return fmt.Sprintf("repetition %d lost %d of %d images", i, s.Lost, s.Ops)
		}
	}
	want, pinned := w.golden()
	if seed != pinnedSeed || !pinned {
		want = all[0].Output
	}
	for i, s := range all {
		if s.Output != want {
			if seed == pinnedSeed && pinned {
				return fmt.Sprintf("repetition %d does not match golden/%s.golden", i, w.name)
			}
			return fmt.Sprintf("repetition %d differs from repetition 0", i)
		}
	}
	return ""
}

func walls(ss []sample) []float64 { return field(ss, func(s sample) float64 { return s.wallS }) }

func field(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// medianOf takes the per-key median of a map-valued field.
func medianOf(ss []sample, f func(sample) map[string]float64) map[string]float64 {
	keys := map[string]bool{}
	for _, s := range ss {
		for k := range f(s) {
			keys[k] = true
		}
	}
	out := map[string]float64{}
	for k := range keys {
		out[k] = median(field(ss, func(s sample) float64 { return f(s)[k] }))
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
