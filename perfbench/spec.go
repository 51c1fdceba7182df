package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the names
// and units of the metrics it must print.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(file string) (*spec, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return &s, nil
}

func (s *spec) unit(name string) string {
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result keeps exactly the declared metrics. Every end-to-end metric
// must have been measured; a per-layer metric a workload's layers do
// no work for reads 0. A measured value that is not declared means
// BENCHMARK.json and the code have drifted apart.
func (s *spec) result(metrics []metricSpec, values map[string]float64, perLayer bool) (map[string]value, error) {
	out := make(map[string]value, len(metrics))
	for _, m := range metrics {
		v, ok := values[m.Name]
		if !ok && !perLayer {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out[m.Name] = value{Value: v, Unit: m.Unit}
	}
	for k := range values {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", k)
		}
	}
	return out, nil
}

// functionalMetrics are the paper's Fig. 7 figures: end-to-end
// metrics of the functional workload, declared per-layer because the
// serving workloads run no numeric inference.
var functionalMetrics = []string{"fp32_top1_err_pct", "fp16_top1_err_pct", "fp16_fp32_agree_pct"}

// wall_s is printed with the end-to-end metrics but declared per-layer:
// on a shared virtual machine it also counts the time the hypervisor
// gives the vCPU to other guests, which the kernel leaves out of the
// child's rusage. cpu_s is the host-time metric with a bound.
const wallNote = "(no bound: includes time stolen by the hypervisor; cpu_s excludes it)"

// derived marks per-layer metrics computed from other metrics rather
// than timed.
var derived = map[string]string{
	"sim.self_s":       "(derived: pipeline.run_s - ncs.graph_allocs x graphfile.parse_s)",
	"trace.overhead_s": "(derived: traced wall_s - untraced wall_s)",
}

// printTable prints the human-readable summary: the oracle verdict,
// then every metric by name and unit. A per-layer metric the workload
// did no work for is printed as absent; the JSON line carries it as 0.
func printTable(w workload, seed uint64, plain, traced []sample, values map[string]float64, s *spec, verdict string, attempted, failed int) {
	fmt.Printf("workload %s  seed %d  repetitions %d", w.name, seed, len(plain))
	if len(traced) > 0 {
		fmt.Printf(" (+%d traced)", len(traced))
	}
	fmt.Printf("  fingerprint %x\n", sha256.Sum256([]byte(plain[0].Output)))
	fmt.Printf("ops: %d simulated images offered, %d failed\n", attempted, failed)
	if verdict == "" {
		if _, pinned := w.golden(); pinned && seed == pinnedSeed {
			fmt.Println("oracle: every repetition matches the pinned output")
		} else {
			fmt.Println("oracle: every repetition rendered byte-identical output (no pin for this seed)")
		}
	} else {
		fmt.Println("oracle: FAILED:", verdict)
	}
	row := func(name string, v float64, unit, note string) {
		fmt.Printf("  %-36s %16.6g %-6s %s\n", name, v, unit, note)
	}
	absent := func(name, unit, why string) {
		fmt.Printf("  %-36s %16s %-6s %s\n", name, "-", unit, why)
	}
	metrics := s.EndToEnd
	if len(traced) > 0 {
		metrics = s.PerLayer
	}
	samples := plain[0].Layers["sim.latency_samples"]
	for _, m := range metrics {
		v, ok := values[m.Name]
		if !ok {
			absent(m.Name, m.Unit, "(absent: no work in this workload)")
			continue
		}
		note := derived[m.Name]
		if m.Name == "sim_p50_ms" || m.Name == "sim_p99_ms" {
			note = fmt.Sprintf("(n=%.0f)", samples)
		}
		row(m.Name, v, m.Unit, note)
	}
	if len(traced) > 0 {
		return
	}
	row("wall_s", median(walls(plain)), s.unit("wall_s"), wallNote)
	for _, name := range functionalMetrics {
		v, ok := plain[0].Layers[name]
		if !ok {
			absent(name, s.unit(name), "(no numeric inference in this workload)")
			continue
		}
		row(name, v, s.unit(name), "")
	}
}
