package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// servingLoads are the offered-load fractions of each configuration's
// measured closed-loop capacity. 1.1 deliberately over-drives the
// device to show unbounded queue growth past the knee.
var servingLoads = []float64{0.5, 0.7, 0.9, 1.1}

// kneeFactor declares saturation: the lowest load whose p99 exceeds
// kneeFactor × the p99 at the lightest load is reported as the knee.
const kneeFactor = 3.0

// ServingPoint is one (configuration, offered load) measurement of
// the serving experiment — the machine-readable form behind the
// Serving table and the -json CLI output.
type ServingPoint struct {
	// Device names the configuration ("cpu-b8", "vpu-4", ...).
	Device string `json:"device"`
	// LoadFraction is offered rate / closed-loop capacity; 0 marks the
	// closed-loop capacity probe itself.
	LoadFraction float64 `json:"load_fraction"`
	// OfferedIPS is the Poisson arrival rate (img/s); 0 for the probe.
	OfferedIPS float64 `json:"offered_img_per_s"`
	// AchievedIPS is the measured steady-state completion rate.
	AchievedIPS float64 `json:"achieved_img_per_s"`
	// Latency tail and split, milliseconds.
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	MaxMS         float64 `json:"max_ms"`
	QueueMeanMS   float64 `json:"queue_mean_ms"`
	ServiceMeanMS float64 `json:"service_mean_ms"`
}

// servingConfigs are the device groups compared by the serving
// experiment: each batch engine at its latency-friendly and
// throughput-friendly batch sizes, and the paper's single- and
// multi-stick VPU pipelines.
type servingConfig struct {
	name   string
	dev    string // "cpu", "gpu", "vpu"
	batch  int    // batch size (cpu/gpu)
	sticks int    // stick count (vpu)
}

func servingConfigs() []servingConfig {
	return []servingConfig{
		{name: "cpu-b1", dev: "cpu", batch: 1},
		{name: "cpu-b8", dev: "cpu", batch: 8},
		{name: "gpu-b1", dev: "gpu", batch: 1},
		{name: "gpu-b8", dev: "gpu", batch: 8},
		{name: "vpu-1", dev: "vpu", sticks: 1},
		{name: "vpu-4", dev: "vpu", sticks: 4},
	}
}

// group declares the configuration's device group, its devices seeded
// under label.
func (c servingConfig) group(label string) pipeline.Group {
	kind := map[string]pipeline.GroupKind{
		"cpu": pipeline.GroupCPU, "gpu": pipeline.GroupGPU, "vpu": pipeline.GroupVPU,
	}[c.dev]
	return pipeline.Group{Kind: kind, Batch: c.batch, Devices: c.sticks, SeedLabel: label}
}

// ServingPoints runs the serving experiment: for every configuration,
// a closed-loop capacity probe followed by open-loop Poisson traffic
// at fractions of that capacity, measuring the latency distribution
// at each offered load. Arrivals are delayed past the configuration's
// setup time (measured by the probe), so every point measures
// steady-state serving, not boot backlog.
func (h *Harness) ServingPoints() ([]ServingPoint, error) {
	images := h.cfg.ImagesPerSubset
	var points []ServingPoint
	for _, cfg := range servingConfigs() {
		capacity, ready, err := h.servingCapacity(cfg, images)
		if err != nil {
			return nil, fmt.Errorf("bench: serving capacity %s: %w", cfg.name, err)
		}
		points = append(points, ServingPoint{
			Device:      cfg.name,
			AchievedIPS: round2(capacity),
		})
		for _, frac := range servingLoads {
			pt, err := h.servePoint(cfg, images, frac, capacity*frac, ready)
			if err != nil {
				return nil, fmt.Errorf("bench: serving %s@%.2f: %w", cfg.name, frac, err)
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// Serving renders the serving experiment as a table: tail latency vs
// offered load per device group, with a per-group saturation note.
func (h *Harness) Serving() (*Table, error) {
	points, err := h.ServingPoints()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "serving",
		Title: "Tail latency vs offered load (open-loop Poisson arrivals)",
		Columns: []string{
			"group", "load", "offered img/s", "achieved img/s",
			"p50 ms", "p95 ms", "p99 ms", "queue ms", "service ms",
		},
		Notes: []string{
			fmt.Sprintf("images per point: %d; arrivals start after device setup", h.cfg.ImagesPerSubset),
			"load is the fraction of the group's measured closed-loop capacity; 'capacity' rows are the probe",
			"queue/service are mean queueing delay vs mean in-device time per item",
		},
	}
	base := map[string]float64{} // p99 at the lightest load per device
	knee := map[string]float64{}
	for _, p := range points {
		if p.LoadFraction == 0 {
			t.AddRow(p.Device, "capacity", "-", fmt.Sprintf("%.1f", p.AchievedIPS),
				"-", "-", "-", "-", "-")
			continue
		}
		if _, ok := base[p.Device]; !ok {
			base[p.Device] = p.P99MS
		}
		if _, ok := knee[p.Device]; !ok && p.P99MS > kneeFactor*base[p.Device] {
			knee[p.Device] = p.LoadFraction
		}
		t.AddRow(
			p.Device,
			fmt.Sprintf("%.0f%%", p.LoadFraction*100),
			fmt.Sprintf("%.1f", p.OfferedIPS),
			fmt.Sprintf("%.1f", p.AchievedIPS),
			fmt.Sprintf("%.1f", p.P50MS),
			fmt.Sprintf("%.1f", p.P95MS),
			fmt.Sprintf("%.1f", p.P99MS),
			fmt.Sprintf("%.1f", p.QueueMeanMS),
			fmt.Sprintf("%.1f", p.ServiceMeanMS),
		)
	}
	for _, cfg := range servingConfigs() {
		if frac, ok := knee[cfg.name]; ok {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: p99 knee at %.0f%% load (> %.0fx the %.0f%%-load p99)",
				cfg.name, frac*100, kneeFactor, servingLoads[0]*100))
		} else {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: no p99 knee up to %.0f%% load", cfg.name, servingLoads[len(servingLoads)-1]*100))
		}
	}
	return t, nil
}

// servingCapacity measures a configuration's closed-loop throughput
// and setup time (Job.ReadyAt) — the normalization for offered load
// and the arrival delay of the open-loop points.
func (h *Harness) servingCapacity(cfg servingConfig, images int) (float64, time.Duration, error) {
	rep, _, err := runSession(h.standardRun(cfg.group(servingSeedLabel(cfg, "capacity")), images))
	if err != nil {
		return 0, 0, err
	}
	return rep.Throughput, rep.Targets[0].Job.ReadyAt, nil
}

// servingSeedLabel seeds one run of a configuration, so distinct
// points draw independent jitter, like the other experiments.
func servingSeedLabel(cfg servingConfig, runName string) string {
	return "serving/" + cfg.name + "/run/" + runName
}

// servePoint measures one open-loop point: Poisson arrivals at rate,
// delayed past the configuration's setup time.
func (h *Harness) servePoint(cfg servingConfig, images int, frac, rate float64, ready time.Duration) (ServingPoint, error) {
	runName := fmt.Sprintf("load%.2f", frac)
	scfg := h.standardRun(cfg.group(servingSeedLabel(cfg, runName)), images)
	scfg.Arrivals = core.DelayedArrivals(core.PoissonArrivals(rate), ready)
	scfg.ArrivalLabel = "serving/" + cfg.name + "/" + runName
	rep, _, err := runSession(scfg)
	if err != nil {
		return ServingPoint{}, err
	}
	lat := rep.Latency
	ms := func(d time.Duration) float64 { return round2(d.Seconds() * 1e3) }
	return ServingPoint{
		Device:        cfg.name,
		LoadFraction:  frac,
		OfferedIPS:    round2(rate),
		AchievedIPS:   round2(rep.Throughput),
		P50MS:         ms(lat.P50),
		P95MS:         ms(lat.P95),
		P99MS:         ms(lat.P99),
		MaxMS:         ms(lat.Max),
		QueueMeanMS:   ms(lat.QueueMean),
		ServiceMeanMS: ms(lat.ServiceMean),
	}, nil
}
