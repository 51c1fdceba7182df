package pipeline

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/graphfile"
	"repro/internal/imagenet"
	"repro/internal/ncs"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/usb"
)

func smallDataset(images int) imagenet.Config {
	cfg := imagenet.DefaultConfig()
	cfg.Images = images
	return cfg
}

// TestSessionHeterogeneous: CPU + GPU + 2 VPUs over one dataset
// source classify every item exactly once and the report aggregates
// match the per-group jobs.
func TestSessionHeterogeneous(t *testing.T) {
	const images = 60
	sess, err := New(
		WithDataset(smallDataset(images)),
		WithCPU(4),
		WithGPU(4),
		WithVPUs(2),
		WithRouting(core.RouteWeighted),
		WithRetain(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Images != images {
		t.Errorf("report images = %d, want %d", rep.Images, images)
	}
	if len(rep.Targets) != 3 {
		t.Fatalf("report has %d groups, want 3", len(rep.Targets))
	}
	sum := 0
	for _, tr := range rep.Targets {
		sum += tr.Images
		if tr.Images > 0 && tr.Throughput <= 0 {
			t.Errorf("group %s: %d images but throughput %g", tr.Name, tr.Images, tr.Throughput)
		}
	}
	if sum != images {
		t.Errorf("groups total %d images, want %d", sum, images)
	}
	// Every retained result appears exactly once.
	seen := map[int]int{}
	for _, r := range rep.Results {
		seen[r.Index]++
	}
	if len(seen) != images {
		t.Errorf("%d distinct retained results, want %d", len(seen), images)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("item %d classified %d times", idx, n)
		}
	}
	// VPU group metered energy must be visible on the report.
	var vpu *TargetReport
	for i := range rep.Targets {
		if rep.Targets[i].Kind == GroupVPU {
			vpu = &rep.Targets[i]
		}
	}
	if vpu == nil || vpu.EnergyJoules <= 0 {
		t.Errorf("VPU group has no metered energy: %+v", vpu)
	}
	if rep.TDPWatts <= 160 { // CPU 80 + GPU 80 + sticks
		t.Errorf("aggregate TDP = %g, want > 160", rep.TDPWatts)
	}
	if !strings.Contains(rep.String(), "total") {
		t.Error("report table missing totals row")
	}
}

// TestSessionSingleGroupMatchesHandWired: a 2-stick session must be
// bit-identical to the manual env/testbed/compile/target wiring.
func TestSessionSingleGroupMatchesHandWired(t *testing.T) {
	const images = 40
	sess, err := New(
		WithDataset(smallDataset(images)),
		WithVPUs(2),
		WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if hand := handWiredVPU(t, 2, images, rng.New(7)); rep.Throughput != hand {
		t.Errorf("session throughput %.6f != hand-wired %.6f", rep.Throughput, hand)
	}
}

// TestSessionVPUScalingMatchesTarget: a single-group session must
// reproduce the hand-wired multi-VPU numbers exactly — the session
// layer adds no timing overhead.
func TestSessionVPUScalingMatchesTarget(t *testing.T) {
	const images = 100
	for _, n := range []int{1, 2} {
		sess, err := New(WithImages(images), WithVPUs(n), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		hand := handWiredVPU(t, n, images, rng.New(7))
		if rep.Throughput != hand {
			t.Errorf("%d sticks: session %.4f img/s != hand-wired %.4f", n, rep.Throughput, hand)
		}
	}
}

// TestSessionSeedLabelSeedsSticks: a labelled VPU group seeds its
// sticks with rng.New(Seed).Derive(SeedLabel), exactly as a testbed
// wired by hand with that seed; unlabelled sticks draw from the
// session seed, so the label must change the run.
func TestSessionSeedLabelSeedsSticks(t *testing.T) {
	const images = 40
	run := func(label string) float64 {
		sess, err := NewFromConfig(Config{
			Dataset: smallDataset(images),
			Groups:  []Group{{Kind: GroupVPU, Devices: 2, SeedLabel: label}},
			Seed:    7,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Throughput
	}
	const label = "vpu-run/set1"
	labelled := run(label)
	if hand := handWiredVPU(t, 2, images, rng.New(7).Derive(label)); labelled != hand {
		t.Errorf("labelled session %.6f img/s != hand-wired %.6f", labelled, hand)
	}
	if plain := run(""); labelled == plain {
		t.Errorf("seed label left the run unchanged (%.6f img/s)", plain)
	}
}

// TestSessionMatchesHandWiredPool: a heterogeneous session (CPU + GPU
// + 4 VPUs over one dataset source) matches the equivalent pool wired
// by hand — same seeds, same models — within 1% per group.
func TestSessionMatchesHandWiredPool(t *testing.T) {
	const images = 120
	sess, err := New(WithImages(images), WithCPU(8), WithGPU(8), WithVPUs(4))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}

	env := sim.NewEnv()
	net, blob := googLeNet(t)
	cpuEng, err := devsim.NewCPU(devsim.DefaultCPUConfig(), devsim.WorkloadOf(net), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := core.NewCPUTarget(cpuEng, net, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	gpuEng, err := devsim.NewGPU(devsim.DefaultGPUConfig(), devsim.WorkloadOf(net), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := core.NewGPUTarget(gpuEng, net, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	vpu, err := core.NewVPUTarget(wiredSticks(t, env, 4, rng.New(1)), blob, core.DefaultVPUOptions())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := core.NewPool([]core.Target{cpu, gpu, vpu}, core.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if job := runWired(t, env, pool, imagenet.DefaultConfig(), images); job.Images != images {
		t.Errorf("hand-wired pool classified %d images, want %d", job.Images, images)
	}

	hand := pool.ChildJobs()
	if len(rep.Targets) != len(hand) {
		t.Fatalf("%d session groups vs %d hand-wired jobs", len(rep.Targets), len(hand))
	}
	for i, tr := range rep.Targets {
		want := hand[i].Throughput()
		if want == 0 && tr.Throughput == 0 {
			continue
		}
		if diff := math.Abs(tr.Throughput-want) / want; diff > 0.01 {
			t.Errorf("group %s throughput %.2f img/s vs hand-wired %.2f (%.2f%% apart)",
				tr.Name, tr.Throughput, want, diff*100)
		}
	}
}

// googLeNet builds the session's default performance workload — the
// GoogLeNet of the default network seed 42 and its compiled blob —
// once per test binary.
var googNet struct {
	net  *nn.Graph
	blob []byte
}

func googLeNet(t *testing.T) (*nn.Graph, []byte) {
	t.Helper()
	if googNet.net == nil {
		net := nn.NewGoogLeNet(rng.New(42))
		blob, err := graphfile.Compile(net)
		if err != nil {
			t.Fatal(err)
		}
		googNet.net, googNet.blob = net, blob
	}
	return googNet.net, googNet.blob
}

// wiredSticks assembles n sticks on the paper's Fig. 5 USB testbed in
// env, each seeded from seed, without going through a session.
func wiredSticks(t *testing.T, env *sim.Env, n int, seed *rng.Source) []*ncs.Device {
	t.Helper()
	_, ports, err := usb.Testbed(env, usb.DefaultConfig(), n)
	if err != nil {
		t.Fatal(err)
	}
	sticks := make([]*ncs.Device, n)
	for i, port := range ports {
		if sticks[i], err = ncs.NewDevice(env, port.Name(), port, ncs.DefaultConfig(), seed); err != nil {
			t.Fatal(err)
		}
	}
	return sticks
}

// runWired drives target over the first images of a dataset built
// from dcfg and returns its finished job.
func runWired(t *testing.T, env *sim.Env, target core.Target, dcfg imagenet.Config, images int) *core.Job {
	t.Helper()
	ds, err := imagenet.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := core.NewDatasetSource(ds, 0, images, false)
	if err != nil {
		t.Fatal(err)
	}
	job := target.Start(env, src, core.NewCollector(false).Sink())
	env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	return job
}

// handWiredVPU runs an n-stick VPU target over the default dataset's
// first images on its own testbed, its sticks seeded from seed, and
// returns the throughput.
func handWiredVPU(t *testing.T, n, images int, seed *rng.Source) float64 {
	t.Helper()
	env := sim.NewEnv()
	_, blob := googLeNet(t)
	target, err := core.NewVPUTarget(wiredSticks(t, env, n, seed), blob, core.DefaultVPUOptions())
	if err != nil {
		t.Fatal(err)
	}
	return runWired(t, env, target, smallDataset(images), images).Throughput()
}

// TestSessionFunctionalAccuracy: a functional CPU session classifies
// with the calibrated micro network and reports plausible accuracy.
func TestSessionFunctionalAccuracy(t *testing.T) {
	const images = 32
	sess, err := New(
		WithDataset(smallDataset(images)),
		WithCPU(8),
		WithFunctional(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Images != images {
		t.Fatalf("images = %d", rep.Images)
	}
	col := rep.Collector
	if col.Correct+col.Mispred != images {
		t.Errorf("classified %d of %d", col.Correct+col.Mispred, images)
	}
	if rep.TopOneError >= 0.9 {
		t.Errorf("top-1 error %.2f — classifier not calibrated?", rep.TopOneError)
	}
	if rep.MeanConfidence <= 0 {
		t.Errorf("mean confidence %g", rep.MeanConfidence)
	}
}

// TestSessionStream: an MPI-style producer feeds a stream consumed by
// two groups; every frame lands exactly once.
func TestSessionStream(t *testing.T) {
	const frames = 30
	sess, err := New(
		WithDataset(smallDataset(frames)),
		WithCPU(2),
		WithVPUs(1),
		WithFunctional(true),
		WithStream(8),
		WithRouting(core.RouteWorkStealing),
	)
	if err != nil {
		t.Fatal(err)
	}
	ds := sess.Dataset()
	stream := sess.Stream()
	if stream == nil {
		t.Fatal("no stream")
	}
	sess.Env().Process("producer", func(p *sim.Proc) {
		for i := 0; i < frames; i++ {
			stream.Push(p, core.Item{Index: i, Image: ds.Preprocessed(i), Label: ds.Label(i)})
		}
		stream.Close(p)
	})
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Images != frames {
		t.Errorf("images = %d, want %d", rep.Images, frames)
	}
}

// TestSessionStaticWeights: explicit group weights split a sized
// source proportionally under static routing.
func TestSessionStaticWeights(t *testing.T) {
	const images = 40
	sess, err := New(
		WithDataset(smallDataset(images)),
		WithGroup(Group{Kind: GroupCPU, Batch: 4, Weight: 3}),
		WithGroup(Group{Kind: GroupGPU, Batch: 4, Weight: 1}),
		WithRouting(core.RouteStatic),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Targets[0].Images != 30 || rep.Targets[1].Images != 10 {
		t.Errorf("static 3:1 split = %d/%d, want 30/10",
			rep.Targets[0].Images, rep.Targets[1].Images)
	}
}

// TestSessionSharedNetworkAndBlob: supplying a prebuilt network and
// compiled blob must reproduce the self-built session exactly.
func TestSessionSharedNetworkAndBlob(t *testing.T) {
	const images = 30
	self, err := New(WithDataset(smallDataset(images)), WithVPUs(1), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	net, blob := self.Network(), self.Blob()
	selfRep, err := self.Run()
	if err != nil {
		t.Fatal(err)
	}

	shared, err := New(
		WithDataset(smallDataset(images)),
		WithVPUs(1),
		WithSeed(5),
		WithNetwork(net),
		WithBlob(blob),
	)
	if err != nil {
		t.Fatal(err)
	}
	sharedRep, err := shared.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sharedRep.Throughput != selfRep.Throughput {
		t.Errorf("shared-workload session throughput %.4f != self-built %.4f",
			sharedRep.Throughput, selfRep.Throughput)
	}
}

// TestSessionStaticOverStream: static routing cannot partition an
// unbounded stream — Run must return the routing error with a
// well-formed report, not panic.
func TestSessionStaticOverStream(t *testing.T) {
	sess, err := New(
		WithDataset(smallDataset(8)),
		WithCPU(2),
		WithVPUs(1),
		WithStream(4),
		WithRouting(core.RouteStatic),
	)
	if err != nil {
		t.Fatal(err)
	}
	stream := sess.Stream()
	sess.Env().Process("producer", func(p *sim.Proc) { stream.Close(p) })
	rep, err := sess.Run()
	if err == nil {
		t.Fatal("static routing over a stream succeeded; want Sized error")
	}
	if rep == nil || len(rep.Targets) != 2 {
		t.Fatalf("report malformed after routing error: %+v", rep)
	}
	if rep.Images != 0 {
		t.Errorf("images = %d after routing error", rep.Images)
	}
}

// TestConfigValidate: Config.Validate checks a defaulted copy (the
// caller's groups keep their zero sizes) and names the offending key,
// with the group or stage it belongs to.
func TestConfigValidate(t *testing.T) {
	cfg := Config{Groups: []Group{{Kind: GroupCPU}, {Kind: GroupVPU}}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if cfg.Groups[0].Batch != 0 || cfg.Groups[1].Devices != 0 {
		t.Errorf("Validate defaulted the caller's groups: %+v", cfg.Groups)
	}
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Groups: []Group{{Kind: GroupCPU}, {Kind: GroupGPU, Batch: -1}}}, "groups[1].batch: group 1"},
		{Config{Groups: []Group{{Kind: GroupCPU, Weight: math.NaN()}}}, "groups[0].weight: group 0"},
		{Config{Stages: []Stage{CPUStage(4), VPUStage(-1)}, Cuts: []int{10}}, "stages[1].devices: stage 1"},
		{Config{Groups: []Group{{Kind: GroupCPU}}, Cuts: []int{10}}, "cuts:"},
		{Config{Groups: []Group{{Kind: GroupCPU}}, QueueDepth: -1}, "queue_depth:"},
		{Config{Groups: []Group{{Kind: GroupCPU}}, Hedge: core.HedgeConfig{Trigger: time.Second}}, "hedge:"},
		{Config{Groups: []Group{{Kind: GroupCPU}}, BatchMaxWait: -1}, "batch_max_wait:"},
		{Config{Groups: []Group{{Kind: GroupCPU}, {Kind: GroupCustom, Target: &stubStageTarget{}, SeedLabel: "x"}}}, "groups[1].seed_label: group 1"},
	}
	for i, c := range cases {
		if err := c.cfg.Validate(); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("case %d: error %v, want one starting %q", i, err, c.want)
		}
	}
}

// TestSessionValidation: configuration errors surface at New, and a
// session refuses to run twice.
func TestSessionValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("session with no groups accepted")
	}
	if _, err := New(WithCPU(-1)); err == nil {
		t.Error("negative batch accepted")
	}
	if _, err := New(WithVPUs(0), WithImages(10_000_000)); err == nil {
		t.Error("oversized image count accepted")
	}
	if _, err := New(WithTarget(nil)); err == nil {
		t.Error("nil custom target accepted")
	}

	sess, err := New(WithDataset(smallDataset(8)), WithCPU(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err == nil {
		t.Error("second Run accepted")
	}
}

// TestParallelSessionsShareParsedBlob runs two functional VPU sessions
// over the same blob in parallel goroutines. Their sticks share one
// parsed network (the stick firmware parses each distinct blob once),
// so under -race this is the witness that inference and engine setup
// only read that network. The reports must be equal.
func TestParallelSessionsShareParsedBlob(t *testing.T) {
	const images = 8
	reps := make([]string, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := New(
				WithDataset(smallDataset(images)),
				WithVPUs(2),
				WithFunctional(true),
			)
			if err != nil {
				errs[i] = err
				return
			}
			rep, err := sess.Run()
			if err != nil {
				errs[i] = err
				return
			}
			reps[i] = fmt.Sprintf("%s\nconfidence %v images %d", rep, rep.MeanConfidence, rep.Images)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(reps[0], fmt.Sprintf("images %d", images)) {
		t.Errorf("session did not classify every image:\n%s", reps[0])
	}
	if reps[0] != reps[1] {
		t.Errorf("parallel sessions over one blob differ:\n%s\nvs\n%s", reps[0], reps[1])
	}
}
