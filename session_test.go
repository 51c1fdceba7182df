package repro

import (
	"testing"
	"time"
)

// echoTarget is a custom device group implemented entirely outside
// internal/core — the extension point WithTarget/NewPool exposes.
type echoTarget struct{ latency time.Duration }

func (t *echoTarget) Name() string      { return "echo" }
func (t *echoTarget) TDPWatts() float64 { return 1 }

func (t *echoTarget) Start(env *Env, src Source, sink func(Result)) *Job {
	job := &Job{}
	env.Process("echo", func(p *Proc) {
		job.StartedAt = p.Now()
		job.ReadyAt = p.Now()
		for {
			item, ok := src.Next(p)
			if !ok {
				break
			}
			start := p.Now()
			p.Sleep(t.latency)
			sink(Result{Index: item.Index, Label: item.Label, Pred: -1,
				Start: start, End: p.Now(),
				ArrivedAt: item.ArrivedAt, DispatchedAt: start, Device: "echo"})
			job.Images++
		}
		job.Finish(p) // the completion signal composite targets join on
	})
	return job
}

// TestSessionCustomTarget: a Target implemented outside the framework
// packages must be able to complete a multi-group session — Job.Finish
// is the exported completion contract.
func TestSessionCustomTarget(t *testing.T) {
	const images = 40
	sess, err := NewSession(
		WithImages(images),
		WithCPU(8),
		WithTarget(&echoTarget{latency: 2 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Images != images {
		t.Errorf("classified %d images, want %d", rep.Images, images)
	}
	var echo *TargetReport
	for i := range rep.Targets {
		if rep.Targets[i].Name == "echo" {
			echo = &rep.Targets[i]
		}
	}
	if echo == nil || echo.Images == 0 {
		t.Errorf("custom target processed nothing: %+v", echo)
	}
}

// TestSessionAcceptance: a heterogeneous session (CPU + GPU + 4 VPUs
// over one dataset source) in under 10 lines of user code must
// classify every item exactly once. internal/pipeline's
// TestSessionMatchesHandWiredPool holds the same session to the
// equivalent hand-wired pool within 1% per group.
func TestSessionAcceptance(t *testing.T) {
	const images = 120

	// The declarative session — 7 lines of user code.
	sess, err := NewSession(
		WithImages(images),
		WithCPU(8),
		WithGPU(8),
		WithVPUs(4),
		WithRetain(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Every item classified exactly once.
	if rep.Images != images {
		t.Errorf("session classified %d images, want %d", rep.Images, images)
	}
	seen := map[int]int{}
	for _, r := range rep.Results {
		seen[r.Index]++
	}
	if len(seen) != images {
		t.Errorf("%d distinct items classified, want %d", len(seen), images)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("item %d classified %d times", idx, n)
		}
	}
}
