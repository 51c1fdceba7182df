package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/imagenet"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// perfResult is one performance measurement: steady-state throughput
// plus the dispersion behind the figure's error bars.
type perfResult struct {
	ImagesPerSec float64
	PerImageMS   float64
	// StdMS is the standard deviation of per-inference (VPU) or
	// per-batch-amortized (CPU/GPU) latencies in milliseconds.
	StdMS float64
}

// runPerf measures one standard device group over `images`
// inferences: a "cpu" or "gpu" batch engine at batch size n, or n
// "vpu" sticks. runName seeds the group's devices under
// "<dev>-run/<runName>", so distinct subsets measure slightly
// different values — the error bars of Fig. 6a. StdMS spreads the
// per-inference VPU latencies, or the per-batch CPU/GPU spans
// amortized per image.
func (h *Harness) runPerf(dev string, n, images int, runName string) (perfResult, error) {
	cfg := servingConfig{dev: dev, batch: n}
	if dev == "vpu" {
		cfg = servingConfig{dev: dev, sticks: n}
	}
	scfg := h.standardRun(cfg.group(dev+"-run/"+runName), images)
	scfg.Retain = true
	rep, _, err := runSession(scfg)
	if err != nil {
		return perfResult{}, err
	}
	var spans stats.Running
	seen := map[time.Duration]bool{}
	for _, r := range rep.Results {
		if dev == "vpu" {
			spans.Add((r.End - r.Start).Seconds() * 1e3)
			continue
		}
		if seen[r.Start] {
			continue
		}
		seen[r.Start] = true
		spans.Add((r.End - r.Start).Seconds() * 1e3 / float64(n))
	}
	return perfResult{
		ImagesPerSec: rep.Throughput,
		PerImageMS:   1e3 / rep.Throughput,
		StdMS:        spans.Std(),
	}, nil
}

// standardRun is the session config of a standard bench run: one
// device group over the first `images` images of the perf dataset, on
// the harness's GoogLeNet and compiled blob.
func (h *Harness) standardRun(g pipeline.Group, images int) pipeline.Config {
	return pipeline.Config{
		Dataset: h.perfDatasetConfig(images),
		Net:     h.goog,
		Blob:    h.blob,
		Seed:    h.cfg.Seed,
		Groups:  []pipeline.Group{g},
	}
}

// runSession builds and runs one session, returning the session too
// so callers can inspect its targets afterwards.
func runSession(cfg pipeline.Config) (*pipeline.Report, *pipeline.Session, error) {
	sess, err := pipeline.NewFromConfig(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep, err := sess.Run()
	if err != nil {
		return nil, nil, err
	}
	return rep, sess, nil
}

// perfDatasetConfig is the label-only dataset with exactly n images.
func (h *Harness) perfDatasetConfig(n int) imagenet.Config {
	cfg := imagenet.DefaultConfig()
	cfg.Images = n
	cfg.Subsets = 1
	cfg.Seed = h.cfg.Seed + 2012
	return cfg
}

// perfDatasetSized builds the perfDatasetConfig dataset.
func (h *Harness) perfDatasetSized(n int) (*imagenet.Dataset, error) {
	return imagenet.New(h.perfDatasetConfig(n))
}

// fmtRatio renders a measured-vs-paper pair as "x (paper y)".
func fmtRatio(measured, paper float64, format string) string {
	return fmt.Sprintf(format+" (paper "+format+")", measured, paper)
}

// pctDelta formats the relative deviation from the paper's value.
func pctDelta(measured, paper float64) string {
	if paper == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (measured/paper-1)*100)
}

// round2 keeps tables stable across float formatting quirks.
func round2(v float64) float64 { return math.Round(v*100) / 100 }
