package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/graphfile"
	"repro/internal/imagenet"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/tensor"
)

// repResult is what one repetition (one child process) reports to
// the parent process as a JSON line.
type repResult struct {
	// SetupS runs from the workload description to ready sessions.
	SetupS float64 `json:"setup_s"`
	// AllocMB is the total heap allocated by the repetition.
	AllocMB float64 `json:"alloc_mb"`
	// Ops counts simulated images offered; Lost those neither
	// completed nor accounted as a drop (a conservation failure).
	Ops  int `json:"ops"`
	Lost int `json:"lost"`
	// Output is the fingerprinted rendering of every session.
	Output string `json:"output"`
	// Metrics holds the virtual and functional end-to-end metrics.
	Metrics map[string]float64 `json:"metrics"`
	// Layers holds the per-layer metrics: virtual ones always, host
	// ones only from a traced repetition.
	Layers map[string]float64 `json:"layers"`
}

// runPlain runs the workload the way a user does: description to
// ready sessions (timed as set-up), then every session, then the
// rendering. No layer is timed.
func runPlain(w workload, seed uint64) (*repResult, error) {
	start := time.Now()
	scs := make([]*scenario.Scenario, len(w.files))
	cfgs := make([]pipeline.Config, len(w.files))
	sessions := make([]*pipeline.Session, len(w.files))
	for i, f := range w.files {
		sc, err := loadScenario(f, seed)
		if err != nil {
			return nil, err
		}
		cfg, err := w.compile(sc)
		if err != nil {
			return nil, err
		}
		sess, err := pipeline.NewFromConfig(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		scs[i], cfgs[i], sessions[i] = sc, cfg, sess
	}
	setup := time.Since(start)
	reps := make([]*pipeline.Report, len(sessions))
	for i, sess := range sessions {
		rep, err := sess.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.files[i], err)
		}
		reps[i] = rep
	}
	res, err := summarize(w, scs, cfgs, reps)
	if err != nil {
		return nil, err
	}
	res.Output = w.render(scs, reps)
	res.SetupS = setup.Seconds()
	res.AllocMB = allocMB()
	return res, nil
}

// runTraced runs the same workload with every layer's public entry
// point called and timed from here: the network and blob are built
// outside the session and handed in, so their cost is attributed,
// and the fingerprint check proves the handed-in path equivalent.
func runTraced(w workload, seed uint64) (*repResult, error) {
	host := map[string]float64{}
	timed := func(name string, fn func() error) error {
		t := time.Now()
		err := fn()
		host[name] += time.Since(t).Seconds()
		return err
	}
	scs := make([]*scenario.Scenario, len(w.files))
	cfgs := make([]pipeline.Config, len(w.files))
	sessions := make([]*pipeline.Session, len(w.files))
	var (
		blob     []byte
		net32    *nn.Graph
		ds       *imagenet.Dataset
		setupDur time.Duration
	)
	for i, f := range w.files {
		t0 := time.Now()
		var cfg pipeline.Config
		err := timed("scenario.load_s", func() error {
			sc, err := loadScenario(f, seed)
			if err != nil {
				return err
			}
			scs[i] = sc
			cfg, err = w.compile(sc)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := timed("imagenet.new_s", func() error {
			var err error
			ds, err = imagenet.New(datasetConfig(cfg))
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: dataset: %w", f, err)
		}
		var net *nn.Graph
		if err := timed("nn.build_s", func() error {
			var err error
			net, err = buildNetwork(cfg, ds)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		host["nn.builds"]++
		if hasVPU(cfg) {
			if err := timed("graphfile.compile_s", func() error {
				var err error
				blob, err = graphfile.Compile(net)
				return err
			}); err != nil {
				return nil, fmt.Errorf("%s: compile: %w", f, err)
			}
			cfg.Blob = blob
		} else {
			net32 = net
		}
		cfg.Net = net
		cfgs[i] = cfg
		err = timed("pipeline.build_s", func() error {
			var err error
			sessions[i], err = pipeline.NewFromConfig(cfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		setupDur += time.Since(t0)
	}
	reps := make([]*pipeline.Report, len(sessions))
	for i, sess := range sessions {
		if err := timed("pipeline.run_s", func() error {
			var err error
			reps[i], err = sess.Run()
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", w.files[i], err)
		}
	}
	res, err := summarize(w, scs, cfgs, reps)
	if err != nil {
		return nil, err
	}
	_ = timed("report.render_s", func() error {
		res.Output = w.render(scs, reps)
		return nil
	})
	res.SetupS = setupDur.Seconds()

	// Layer work outside the sessions: one parse of the workload's
	// blob, and forward passes over the workload's own images.
	var net16 *nn.Graph
	if blob != nil {
		host["graphfile.blob_bytes"] = float64(len(blob))
		if err := timed("graphfile.parse_s", func() error {
			var err error
			net16, _, err = graphfile.Parse(blob)
			return err
		}); err != nil {
			return nil, fmt.Errorf("parse: %w", err)
		}
	}
	if w.functional {
		n := min(forwardImages, ds.Len())
		host["nn.macs_per_image"] = float64(net32.TotalStats().MACs)
		ms32, err := forwardMS(net32, ds, n, nn.FP32)
		if err != nil {
			return nil, err
		}
		ms16, err := forwardMS(net16, ds, n, nn.FP16)
		if err != nil {
			return nil, err
		}
		host["nn.forward_fp32_ms"], host["nn.forward_fp16_ms"] = ms32, ms16
	}
	allocs := res.Layers["ncs.graph_allocs"]
	host["sim.self_s"] = host["pipeline.run_s"] - allocs*host["graphfile.parse_s"]
	if res.Ops > 0 {
		host["sim.host_us_per_image"] = host["pipeline.run_s"] / float64(res.Ops) * 1e6
	}
	for k, v := range host {
		res.Layers[k] = v
	}
	res.AllocMB = allocMB()
	return res, nil
}

// forwardImages bounds the images the traced run pushes through each
// precision's forward pass.
const forwardImages = 64

// forwardMS times nn.Graph.Forward at batch 1 over the first n
// preprocessed images and returns milliseconds per image.
func forwardMS(g *nn.Graph, ds *imagenet.Dataset, n int, prec nn.Precision) (float64, error) {
	in := g.InputShape()
	var total time.Duration
	for i := 0; i < n; i++ {
		x := ds.Preprocessed(i)
		batch := x.Reshape(append(tensor.Shape{1}, in...)...)
		t := time.Now()
		if _, err := g.Forward(batch, prec); err != nil {
			return 0, fmt.Errorf("forward image %d: %w", i, err)
		}
		total += time.Since(t)
	}
	return total.Seconds() * 1e3 / float64(n), nil
}

// datasetConfig, buildNetwork and hasVPU repeat the session's own
// defaults so the traced run can build each layer's input itself.
func datasetConfig(cfg pipeline.Config) imagenet.Config {
	if cfg.Dataset == (imagenet.Config{}) {
		return imagenet.DefaultConfig()
	}
	return cfg.Dataset
}

func buildNetwork(cfg pipeline.Config, ds *imagenet.Dataset) (*nn.Graph, error) {
	netSeed := cfg.NetSeed
	if netSeed == 0 {
		netSeed = 42
	}
	kind := cfg.Network
	if kind == pipeline.NetAuto {
		kind = pipeline.NetGoogLeNet
		if cfg.Functional {
			kind = pipeline.NetMicro
		}
	}
	if kind == pipeline.NetGoogLeNet {
		return nn.NewGoogLeNet(rng.New(netSeed)), nil
	}
	micro := cfg.Micro
	if micro == (nn.MicroConfig{}) {
		micro = nn.DefaultMicroConfig()
	}
	temp := cfg.Temperature
	if temp == 0 {
		temp = pipeline.DefaultTemperature
	}
	net := nn.NewMicroGoogLeNet(micro, rng.New(netSeed))
	err := nn.CalibrateClassifier(net, nn.MicroClassifierName, nn.MicroPoolName,
		ds.PreprocessedPrototypes(), temp)
	if err != nil {
		return nil, fmt.Errorf("calibrate classifier: %w", err)
	}
	return net, nil
}

func hasVPU(cfg pipeline.Config) bool {
	for _, g := range cfg.Groups {
		if g.Kind == pipeline.GroupVPU {
			return true
		}
	}
	return false
}

func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}
