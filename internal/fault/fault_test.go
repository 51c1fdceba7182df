package fault

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// recorder implements every hook and records what hit it, with the
// virtual instant observed from the owning env.
type recorder struct {
	env    *sim.Env
	events []string
	at     []time.Duration
}

func (r *recorder) note(s string) { r.events = append(r.events, s); r.at = append(r.at, r.env.Now()) }

func (r *recorder) InjectHang()                   { r.note("hang") }
func (r *recorder) InjectLinkDrop()               { r.note("drop") }
func (r *recorder) InjectTransientErrors(n int)   { r.note("transient") }
func (r *recorder) InjectSlowdown(factor float64) { r.note("slow") }
func (r *recorder) ClearSlowdown()                { r.note("clear") }

func TestScriptedEventsFireInOrder(t *testing.T) {
	env := sim.NewEnv()
	rec := &recorder{env: env}
	reg := Registry{}
	reg.Add("dev0", rec)
	plan := Plan{Events: []Event{
		{Device: "dev0", Kind: Slowdown, At: 10 * time.Millisecond, Factor: 3, Duration: 20 * time.Millisecond},
		{Device: "dev0", Kind: StickHang, At: 50 * time.Millisecond},
		{Device: "dev0", Kind: TransientError, At: 5 * time.Millisecond, Count: 2},
	}}
	log, err := Apply(env, plan, rng.New(1), reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	want := []string{"transient", "slow", "clear", "hang"}
	if !reflect.DeepEqual(rec.events, want) {
		t.Fatalf("hook order = %v, want %v", rec.events, want)
	}
	wantAt := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 30 * time.Millisecond, 50 * time.Millisecond}
	if !reflect.DeepEqual(rec.at, wantAt) {
		t.Fatalf("hook instants = %v, want %v", rec.at, wantAt)
	}
	if log.Count() != 3 {
		t.Errorf("log has %d injections, want 3", log.Count())
	}
}

func TestStochasticExpansionIsDeterministic(t *testing.T) {
	plan := Plan{Processes: []Process{{
		Devices: []string{"a", "b", "c"},
		Kinds:   []Kind{StickHang, LinkDrop, Slowdown},
		Rate:    5,
		Start:   time.Second,
		End:     5 * time.Second,
	}}}
	run := func() []Injection {
		env := sim.NewEnv()
		reg := Registry{}
		for _, name := range []string{"a", "b", "c"} {
			reg.Add(name, &recorder{env: env})
		}
		log, err := Apply(env, plan, rng.New(42), reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		env.Run()
		return log.Injections
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("stochastic process injected nothing over a 4 s window at 5/s")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two runs of the same seeded plan differ:\n%v\nvs\n%v", first, second)
	}
	for _, in := range first {
		if in.At < time.Second || in.At >= 5*time.Second {
			t.Errorf("injection %v outside the process window", in)
		}
	}
}

func TestApplyRejectsBadPlans(t *testing.T) {
	env := sim.NewEnv()
	reg := Registry{}
	reg.Add("dev0", &recorder{env: env})
	cases := []Plan{
		{Events: []Event{{Device: "ghost", Kind: StickHang}}},                                   // unknown device
		{Events: []Event{{Device: "dev0", Kind: Slowdown, Factor: 0.5, Duration: time.Second}}}, // bad factor
		{Events: []Event{{Device: "dev0", Kind: StickHang, At: -time.Second}}},                  // negative instant
		{Processes: []Process{{Devices: []string{"dev0"}, Kinds: []Kind{StickHang}, Rate: -1, End: time.Second}}},
		{Processes: []Process{{Devices: []string{"dev0"}, Kinds: []Kind{StickHang}, Rate: 1}}}, // empty window
		{Events: []Event{{Device: "dev0", Kind: Slowdown, Factor: math.Inf(1), Duration: time.Second}}},
		{Processes: []Process{{Devices: []string{"dev0"}, Kinds: []Kind{Slowdown}, Rate: 1, End: time.Second, Factor: 0.5}}},
		{Processes: []Process{{Devices: []string{"dev0"}, Kinds: []Kind{Slowdown}, Rate: 1, End: time.Second, Window: -1}}},
	}
	for i, plan := range cases {
		if _, err := Apply(env, plan, rng.New(1), reg, nil); err == nil {
			t.Errorf("case %d: bad plan accepted", i)
		}
	}
}

func TestApplyRejectsUnsupportedHook(t *testing.T) {
	env := sim.NewEnv()
	reg := Registry{}
	type slowOnly struct{ Slower }
	reg.Add("port0", slowOnly{})
	plan := Plan{Events: []Event{{Device: "port0", Kind: StickHang}}}
	if _, err := Apply(env, plan, rng.New(1), reg, nil); err == nil {
		t.Error("hang against a slowdown-only hook accepted")
	}
}

func TestNeedsRecovery(t *testing.T) {
	if (Plan{}).NeedsRecovery() {
		t.Error("empty plan needs recovery")
	}
	slow := Plan{Events: []Event{{Device: "d", Kind: Slowdown, Factor: 2, Duration: time.Second}}}
	if slow.NeedsRecovery() {
		t.Error("slowdown-only plan needs recovery")
	}
	hang := Plan{Events: []Event{{Device: "d", Kind: StickHang}}}
	if !hang.NeedsRecovery() {
		t.Error("hang plan does not need recovery")
	}
	proc := Plan{Processes: []Process{{Devices: []string{"d"}, Kinds: []Kind{LinkDrop}, Rate: 1, End: time.Second}}}
	if !proc.NeedsRecovery() {
		t.Error("link-drop process does not need recovery")
	}
}

// TestOverlappingSlowdownsNewestWins: when slowdown windows overlap
// on one device, the older window's scheduled clear must not cut the
// newer window short — the device clears only at the newest window's
// own end.
func TestOverlappingSlowdownsNewestWins(t *testing.T) {
	env := sim.NewEnv()
	rec := &recorder{env: env}
	reg := Registry{}
	reg.Add("d", rec)
	plan := Plan{Events: []Event{
		{Device: "d", Kind: Slowdown, At: 10 * time.Millisecond, Factor: 2, Duration: 20 * time.Millisecond},
		{Device: "d", Kind: Slowdown, At: 20 * time.Millisecond, Factor: 3, Duration: 20 * time.Millisecond},
	}}
	if _, err := Apply(env, plan, rng.New(1), reg, nil); err != nil {
		t.Fatal(err)
	}
	env.Run()
	want := []string{"slow", "slow", "clear"}
	if !reflect.DeepEqual(rec.events, want) {
		t.Fatalf("hook order = %v, want %v (old window's clear must be suppressed)", rec.events, want)
	}
	if last := rec.at[len(rec.at)-1]; last != 40*time.Millisecond {
		t.Fatalf("cleared at %v, want 40ms (the newer window's end)", last)
	}
}
