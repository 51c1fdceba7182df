package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The kernel-replay golden gate: the PR 7 kernel rewrite (specialized
// scheduler heap, single-rendezvous handoff, ring-buffer queues,
// index-based timer cancellation) claims to change no observable
// semantics. The committed goldens under testdata/ are the quick-scale
// hedge and resilience points JSON-encoded as produced by the
// PRE-rewrite kernel (the PR 6 tree, commit 0237adc); every future
// kernel must keep replaying them byte for byte. This extends the CI
// double-emission determinism gate (same-binary reproducibility) with
// cross-version reproducibility — the stronger property the rewrite
// was gated on.
//
// Regenerate (only when an experiment legitimately changes, never to
// paper over a kernel-ordering regression):
//
//	NCSW_UPDATE_GOLDEN=1 go test -run TestKernelReplaysGolden ./internal/bench

// goldenConfig is the scale the goldens were captured at — the
// TestResilienceDeterministic scale: full experiment structure,
// no statistical weight needed.
func goldenConfig() Config {
	cfg := QuickConfig()
	cfg.ImagesPerSubset = 100
	return cfg
}

// goldenJSON canonicalizes points for byte comparison.
func goldenJSON(t *testing.T, points any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(points); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGolden compares got against testdata/<name>, rewriting the file
// under NCSW_UPDATE_GOLDEN=1. Besides the kernel-replay goldens, the
// serving, slo and paper-figure shape tests pin their output through
// it, so a change to how a run is assembled must replay them too.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("NCSW_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (capture with NCSW_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from the committed golden (%d vs %d bytes) — the experiment's observable results changed; regenerate only for an intended change", name, len(got), len(want))
	}
}

// TestKernelReplaysGoldenResilience asserts the current kernel
// replays the pre-rewrite resilience experiment byte for byte.
func TestKernelReplaysGoldenResilience(t *testing.T) {
	skipHeavy(t)
	h, err := NewHarness(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := h.ResiliencePoints()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "kernel_golden_resilience.json", goldenJSON(t, pts))
}

// TestKernelReplaysGoldenHedge asserts the current kernel replays the
// pre-rewrite hedge experiment byte for byte.
func TestKernelReplaysGoldenHedge(t *testing.T) {
	skipHeavy(t)
	h, err := NewHarness(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := h.HedgePoints()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "kernel_golden_hedge.json", goldenJSON(t, pts))
}
