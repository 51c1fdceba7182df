package main

import (
	"embed"
	"fmt"
	"path"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/scenario"
)

// The workload descriptions and the pinned outputs are compiled into
// the binary, so a run reads nothing but its own executable.
//
//go:embed workloads/*.json
var workloadFiles embed.FS

//go:embed golden/*.golden
var goldenFiles embed.FS

// pinnedSeed is the seed every workload file declares and the seed
// its golden output is pinned at. heldOutSeed is never used while
// tuning the benchmark or a change: a claimed gain is verified on it.
const (
	pinnedSeed  = 1
	heldOutSeed = 7919
)

// workload is one benchmark input: one or more scenario files, each
// run as its own session, in order.
type workload struct {
	name string
	// files are scenario files under workloads/.
	files []string
	// functional sessions run real numeric inference and retain their
	// results, so per-image predictions can be compared and pinned.
	functional bool
}

var workloads = []workload{
	{name: "vpu-faulted-serving", files: []string{"vpu-faulted-serving.json"}},
	{name: "batch-tenants-long", files: []string{"batch-tenants-long.json"}},
	{name: "functional-precision", functional: true,
		files: []string{"functional-fp32-cpu.json", "functional-fp16-vpu.json"}},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// loadScenario parses one workload file with the run's seed: the seed
// replaces the scenario seed (arrivals, faults, device jitter) and the
// dataset seed (image content).
func loadScenario(file string, seed uint64) (*scenario.Scenario, error) {
	data, err := workloadFiles.ReadFile(path.Join("workloads", file))
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Parse(data, file)
	if err != nil {
		return nil, err
	}
	if len(sc.Reloads) > 0 {
		return nil, fmt.Errorf("%s: reloads are not supported by the benchmark", file)
	}
	if sc.Dataset == nil {
		return nil, fmt.Errorf("%s: a workload must declare its dataset", file)
	}
	sc.Seed = seed
	sc.Dataset.Seed = seed
	return sc, nil
}

// compile lowers a scenario onto the session config the workload
// runs with.
func (w workload) compile(sc *scenario.Scenario) (pipeline.Config, error) {
	cfg, err := sc.Compile()
	if err != nil {
		return cfg, err
	}
	cfg.Functional = w.functional
	cfg.Retain = w.functional
	return cfg, nil
}

// render is the workload's fingerprinted output: every session's
// rendered report and, for functional workloads, one line per image
// with its label and each session's prediction.
func (w workload) render(scs []*scenario.Scenario, reps []*pipeline.Report) string {
	var b strings.Builder
	for i, sc := range scs {
		b.WriteString((&scenario.Result{Scenario: sc, Report: reps[i]}).String())
	}
	if !w.functional {
		return b.String()
	}
	preds := make([][]core.Result, len(reps))
	for i, rep := range reps {
		preds[i] = byIndex(rep.Results)
	}
	b.WriteString("predictions: index label")
	for _, sc := range scs {
		b.WriteString(" " + sc.Name)
	}
	b.WriteString("\n")
	for k := range preds[0] {
		fmt.Fprintf(&b, "%d %d", preds[0][k].Index, preds[0][k].Label)
		for _, p := range preds {
			fmt.Fprintf(&b, " %d", p[k].Pred)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// byIndex returns the results sorted by dataset index.
func byIndex(rs []core.Result) []core.Result {
	out := append([]core.Result(nil), rs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// golden returns the pinned output of the workload, if it has one.
func (w workload) golden() (string, bool) {
	data, err := goldenFiles.ReadFile(path.Join("golden", w.name+".golden"))
	if err != nil {
		return "", false
	}
	return string(data), true
}
