package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Arrivals describes an open-loop arrival process: the instants at
// which work becomes visible to the serving system, independent of how
// fast the devices drain it. Construct one with
// DeterministicArrivals, PoissonArrivals, BurstyArrivals or
// TraceArrivals, and feed it to NewArrivalSource (or the session's
// WithArrivals option).
type Arrivals interface {
	fmt.Stringer
	// start returns a fresh arrival-instant generator for one run.
	// Successive calls yield non-decreasing absolute instants;
	// ok=false ends the process (only trace replay is finite). The
	// generator owns all process state, so one Arrivals value is
	// reusable across runs and produces identical instants given an
	// identically seeded source.
	start(r *rng.Source) func() (time.Duration, bool)
}

// DeterministicArrivals is a constant-rate process: one arrival every
// 1/rate seconds. It panics when rate is not positive.
func DeterministicArrivals(ratePerSec float64) Arrivals {
	must(ValidateRate(ratePerSec))
	return deterministicArrivals{rate: ratePerSec}
}

type deterministicArrivals struct{ rate float64 }

func (a deterministicArrivals) String() string {
	return fmt.Sprintf("deterministic(%.4g/s)", a.rate)
}

func (a deterministicArrivals) start(_ *rng.Source) func() (time.Duration, bool) {
	period := time.Duration(float64(time.Second) / a.rate)
	next := period
	return func() (time.Duration, bool) {
		t := next
		next += period
		return t, true
	}
}

// PoissonArrivals is a memoryless process at the given mean rate:
// exponentially distributed interarrival gaps, the standard model for
// aggregate request traffic from many independent users. It panics
// when rate is not positive.
func PoissonArrivals(ratePerSec float64) Arrivals {
	must(ValidateRate(ratePerSec))
	return poissonArrivals{rate: ratePerSec}
}

type poissonArrivals struct{ rate float64 }

func (a poissonArrivals) String() string { return fmt.Sprintf("poisson(%.4g/s)", a.rate) }

func (a poissonArrivals) start(r *rng.Source) func() (time.Duration, bool) {
	var now time.Duration
	return func() (time.Duration, bool) {
		// Inverse-CDF exponential gap; 1-U is in (0, 1] so Log never
		// sees zero.
		gap := -math.Log(1-r.Float64()) / a.rate
		now += time.Duration(gap * float64(time.Second))
		return now, true
	}
}

// BurstyArrivals is an on/off process: deterministic arrivals at
// ratePerSec for on, then silence for off, repeating — the worst-case
// pattern for bounded feed queues. It panics when rate is not
// positive, either phase is negative, or the on-phase is too short to
// contain even one arrival at the given rate (such a "burst" would
// never emit anything).
func BurstyArrivals(ratePerSec float64, on, off time.Duration) Arrivals {
	must(ValidateBursty(ratePerSec, on, off))
	return burstyArrivals{rate: ratePerSec, on: on, off: off}
}

type burstyArrivals struct {
	rate    float64
	on, off time.Duration
}

func (a burstyArrivals) String() string {
	return fmt.Sprintf("bursty(%.4g/s, %v on / %v off)", a.rate, a.on, a.off)
}

func (a burstyArrivals) start(_ *rng.Source) func() (time.Duration, bool) {
	period := time.Duration(float64(time.Second) / a.rate)
	var cycleStart time.Duration
	next := period
	return func() (time.Duration, bool) {
		// Roll past any cycle whose on-window the candidate overshot.
		// The constructor guarantees period <= on, so the loop settles
		// on the first arrival of the next cycle after one step.
		for next-cycleStart > a.on {
			cycleStart += a.on + a.off
			next = cycleStart + period
		}
		t := next
		next += period
		return t, true
	}
}

// TraceArrivals replays explicit absolute arrival instants (a recorded
// production trace). The instants are copied and sorted; the process
// ends when the trace does, so any items remaining in the wrapped
// source never arrive. It panics on an empty trace or a negative
// instant.
func TraceArrivals(instants []time.Duration) Arrivals {
	must(ValidateTrace(instants))
	ts := append([]time.Duration(nil), instants...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return traceArrivals{instants: ts}
}

type traceArrivals struct{ instants []time.Duration }

func (a traceArrivals) String() string { return fmt.Sprintf("trace(%d arrivals)", len(a.instants)) }

func (a traceArrivals) start(_ *rng.Source) func() (time.Duration, bool) {
	i := 0
	return func() (time.Duration, bool) {
		if i >= len(a.instants) {
			return 0, false
		}
		t := a.instants[i]
		i++
		return t, true
	}
}

// Phase is one segment of a PhasedArrivals schedule: an arrival
// process active for a window of the given length. A nil Arrivals is a
// quiet phase — the window passes with no arrivals (the overnight
// trough of a diurnal curve).
type Phase struct {
	// Arrivals is the process active during this phase (nil = silence).
	Arrivals Arrivals
	// Duration is the phase window length (> 0).
	Duration time.Duration
}

// PhasedArrivals chains arrival processes through consecutive time
// windows — the workload-shape primitive behind diurnal load curves
// and scheduled traffic ramps. Each phase restarts its process from
// the phase's window start; an instant the process places past its
// window is discarded and the next phase begins. With cycle set the
// schedule repeats from the first phase when the last window closes
// (a full cycle yielding no arrival ends the process, so a schedule
// that can never emit cannot spin forever). It panics on an empty
// schedule, a non-positive phase duration, or an all-silent schedule.
func PhasedArrivals(phases []Phase, cycle bool) Arrivals {
	must(ValidatePhases(phases))
	return phasedArrivals{phases: append([]Phase(nil), phases...), cycle: cycle}
}

type phasedArrivals struct {
	phases []Phase
	cycle  bool
}

func (a phasedArrivals) String() string {
	if a.cycle {
		return fmt.Sprintf("phased(%d phases, cycling)", len(a.phases))
	}
	return fmt.Sprintf("phased(%d phases)", len(a.phases))
}

func (a phasedArrivals) start(r *rng.Source) func() (time.Duration, bool) {
	idx := -1
	var base time.Duration // window start of the current phase
	var gen func() (time.Duration, bool)
	dry := 0 // consecutive phases yielding nothing
	return func() (time.Duration, bool) {
		for {
			if gen != nil {
				if t, ok := gen(); ok && t <= a.phases[idx].Duration {
					dry = 0
					return base + t, true
				}
				// Phase over: the process ended, or placed its next
				// instant past the window. Either way the window's full
				// length elapses before the next phase starts.
				base += a.phases[idx].Duration
				gen = nil
				dry++
				if dry > len(a.phases) {
					// A full cycle passed with no arrival: the schedule
					// is dry (every phase silent or overshooting), so
					// end the process instead of spinning.
					return 0, false
				}
			}
			idx++
			if idx >= len(a.phases) {
				if !a.cycle {
					return 0, false
				}
				idx = 0
			}
			if a.phases[idx].Arrivals == nil {
				base += a.phases[idx].Duration
				continue
			}
			gen = a.phases[idx].Arrivals.start(r)
		}
	}
}

// DelayedArrivals shifts every instant of arr by delay — e.g. to
// start offered load only once a device group's one-time setup
// (firmware boot, graph allocation) is behind it, so the measured
// latency reflects steady-state serving rather than boot backlog. It
// panics on a negative delay.
func DelayedArrivals(arr Arrivals, delay time.Duration) Arrivals {
	if arr == nil {
		panic("core: delayed arrivals need a wrapped process")
	}
	must(ValidateDelay(delay))
	return delayedArrivals{inner: arr, delay: delay}
}

type delayedArrivals struct {
	inner Arrivals
	delay time.Duration
}

func (a delayedArrivals) String() string {
	return fmt.Sprintf("%v after %v", a.inner, a.delay)
}

func (a delayedArrivals) start(r *rng.Source) func() (time.Duration, bool) {
	gen := a.inner.start(r)
	return func() (time.Duration, bool) {
		t, ok := gen()
		return t + a.delay, ok
	}
}

// The arrival checks below are the one copy of each constructor
// precondition: the constructors panic on their error (a caller bug),
// and config layers call them to reject bad input as an error. Each
// error begins with the offending parameter's config key.

// ValidateRate checks a mean arrival rate (key "rate"): positive and
// finite.
func ValidateRate(ratePerSec float64) error {
	if !(ratePerSec > 0) || math.IsInf(ratePerSec, 1) {
		return fmt.Errorf("rate: arrival rate %g (need positive finite)", ratePerSec)
	}
	return nil
}

// ValidateBursty checks BurstyArrivals' parameters (keys "rate", "on",
// "off"): a valid rate, on > 0, off >= 0, and an on-phase long enough
// to hold one arrival.
func ValidateBursty(ratePerSec float64, on, off time.Duration) error {
	if err := ValidateRate(ratePerSec); err != nil {
		return err
	}
	if on <= 0 {
		return fmt.Errorf("on: on-phase %v (need > 0)", on)
	}
	if off < 0 {
		return fmt.Errorf("off: negative off-phase %v", off)
	}
	if period := time.Duration(float64(time.Second) / ratePerSec); period > on {
		return fmt.Errorf("on: on-phase %v holds no arrivals at %g/s (period %v)", on, ratePerSec, period)
	}
	return nil
}

// ValidateTrace checks a replay trace (key "instants"): non-empty,
// with no negative instant.
func ValidateTrace(instants []time.Duration) error {
	if len(instants) == 0 {
		return fmt.Errorf("instants: empty trace")
	}
	for i, t := range instants {
		if t < 0 {
			return fmt.Errorf("instants[%d]: negative instant %v", i, t)
		}
	}
	return nil
}

// ValidatePhases checks a PhasedArrivals schedule (key "phases"): at
// least one phase, every duration > 0, not every phase silent.
func ValidatePhases(phases []Phase) error {
	if len(phases) == 0 {
		return fmt.Errorf("phases: need at least one phase")
	}
	silent := true
	for i, ph := range phases {
		if ph.Duration <= 0 {
			return fmt.Errorf("phases[%d].duration: phase duration %v (need > 0)", i, ph.Duration)
		}
		if ph.Arrivals != nil {
			silent = false
		}
	}
	if silent {
		return fmt.Errorf("phases: every phase silent")
	}
	return nil
}

// ValidateDelay checks a DelayedArrivals offset (key "delay"): >= 0.
func ValidateDelay(delay time.Duration) error {
	if delay < 0 {
		return fmt.Errorf("delay: negative delay %v", delay)
	}
	return nil
}

// must panics on a failed constructor precondition.
func must(err error) {
	if err != nil {
		panic("core: " + err.Error())
	}
}

// ArrivalSource turns any source into an open-loop traffic source: a
// simulation process pulls the wrapped source and makes each item
// visible only at its arrival instant, stamping Item.ArrivedAt. Until
// then, consumers block in virtual time — so a batch target cannot
// eagerly drain a dataset whose items "exist" up front, and
// RouteWorkStealing behaves like real request traffic.
//
// The stream ends when the wrapped source is exhausted (or, for trace
// replay, when the trace ends). Multiple consumers may share one
// ArrivalSource: exhaustion is re-posted so every consumer terminates,
// exactly like StreamSource.
type ArrivalSource struct {
	q     *sim.Queue[Item]
	inner Source
	// arrived/consumed track the visible backlog for Pending without
	// counting the end-of-stream sentinel.
	arrived  int
	consumed int
}

// NewArrivalSource wraps inner with the arrival process, driving it
// from a new process in env. seed drives the stochastic processes
// (Poisson); deterministic processes ignore it. The returned source is
// ready immediately; arrivals unfold once env runs.
func NewArrivalSource(env *sim.Env, inner Source, arr Arrivals, seed *rng.Source) (*ArrivalSource, error) {
	if inner == nil {
		return nil, fmt.Errorf("core: arrival source needs a wrapped source")
	}
	if arr == nil {
		return nil, fmt.Errorf("core: arrival source needs an arrival process")
	}
	if seed == nil {
		seed = rng.New(1)
	}
	s := &ArrivalSource{q: sim.NewQueue[Item](env, "core/arrivals", 0), inner: inner}
	env.Process("arrivals", func(p *sim.Proc) {
		gen := arr.start(seed)
		for {
			// Pull before sleeping so exhaustion is detected at the
			// last item's arrival instant, not one arrival later.
			item, ok := s.inner.Next(p)
			if !ok {
				break
			}
			if item.Index == -1 {
				// Same producer-protocol bug StreamSource.Push rejects:
				// a user item carrying the reserved sentinel index
				// would silently truncate the stream for consumers.
				panic("core: arrival item with reserved Index -1 (the end-of-stream sentinel)")
			}
			at, more := gen()
			if !more {
				break
			}
			if at > p.Now() {
				p.Sleep(at - p.Now())
			}
			item.ArrivedAt = p.Now()
			s.arrived++
			s.q.Put(p, item)
		}
		s.q.Put(p, Item{Index: -1}) // end-of-stream sentinel
	})
	return s, nil
}

// Remaining implements Sized: items not yet arrived plus items
// arrived but not yet consumed, when the wrapped source can count
// them. Unsized inner sources report 0, which RouteStatic rejects as
// an empty partition — an arrival-wrapped stream cannot be split
// statically, same as the stream itself.
func (s *ArrivalSource) Remaining() int {
	if sized, ok := s.inner.(Sized); ok {
		return sized.Remaining() + s.q.Len()
	}
	return 0
}

// Next implements Source: it blocks in virtual time until the next
// item arrives.
func (s *ArrivalSource) Next(p *sim.Proc) (Item, bool) {
	item := s.q.Get(p)
	if item.Index == -1 {
		// Re-post the sentinel so every consumer terminates.
		s.q.TryPut(Item{Index: -1})
		return Item{}, false
	}
	s.consumed++
	return item, true
}

// NextWithin implements TimedSource: like Next but gives up once d of
// virtual time passes with no arrival.
func (s *ArrivalSource) NextWithin(p *sim.Proc, d time.Duration) (Item, bool, bool) {
	item, ok := s.q.GetWithin(p, d)
	if !ok {
		return Item{}, false, true
	}
	if item.Index == -1 {
		s.q.TryPut(Item{Index: -1})
		return Item{}, false, false
	}
	s.consumed++
	return item, true, true
}

// Pending implements DepthSource: items arrived but not yet consumed.
func (s *ArrivalSource) Pending() int { return s.arrived - s.consumed }
