package ncs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/graphfile"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
)

// TestAllocateSharesParsedGraph pins the firmware parse memo: sticks
// allocating the same blob share one parsed network, a corrupted copy
// of an already-parsed blob is still rejected by the checksum, a
// different blob gets its own network, and the virtual allocation time
// is the same whether the host parsed the blob or reused it.
func TestAllocateSharesParsedGraph(t *testing.T) {
	r := newRig(t, 3, nn.NewMicroGoogLeNet(nn.DefaultMicroConfig(), rng.New(1)))
	big, err := graphfile.Compile(nn.NewGoogLeNet(rng.New(1)))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), r.blob...)
	bad[len(bad)/2] ^= 0x01
	d0, d1, d2 := r.devices[0], r.devices[1], r.devices[2]

	// Failures end the host process with return, not t.Fatal: a Goexit
	// inside a simulated process would hang the test instead of
	// failing it.
	r.env.Process("host", func(p *sim.Proc) {
		alloc := func(d *Device, blob []byte) (*Graph, time.Duration, error) {
			start := p.Now()
			g, err := d.AllocateGraph(p, blob, GraphOptions{})
			return g, p.Now() - start, err
		}
		for _, d := range r.devices {
			if err := d.Open(p); err != nil {
				t.Error(err)
				return
			}
		}
		// Allocating GoogLeNet first makes the micro blob a miss.
		gBig, _, err := alloc(d2, big)
		if err != nil {
			t.Error(err)
			return
		}
		g0, missTime, err := alloc(d0, r.blob)
		if err != nil {
			t.Error(err)
			return
		}
		if g0.Engine().Graph() == gBig.Engine().Graph() {
			t.Error("a different blob shares the previous blob's graph")
		}
		if g0.Engine().Graph().Name() == gBig.Engine().Graph().Name() {
			t.Errorf("micro and GoogLeNet blobs parsed to the same network %q", g0.Engine().Graph().Name())
		}
		g1, _, err := alloc(d1, r.blob)
		if err != nil {
			t.Error(err)
			return
		}
		if g0.Engine().Graph() != g1.Engine().Graph() {
			t.Error("two sticks allocating the same blob hold different graphs")
		}
		if g0.Engine() == g1.Engine() {
			t.Error("two sticks share one engine; each needs its own jitter stream")
		}
		if g0.info == g1.info || &g0.info.InputShape[0] == &g1.info.InputShape[0] {
			t.Error("two sticks share one Info")
		}

		// Re-allocate on d0 (a recovery re-open): a memo hit must cost
		// the same virtual time as the miss above.
		if err := d0.Close(p); err != nil {
			t.Error(err)
			return
		}
		if err := d0.Open(p); err != nil {
			t.Error(err)
			return
		}
		_, hitTime, err := alloc(d0, r.blob)
		if err != nil {
			t.Error(err)
			return
		}
		if hitTime != missTime {
			t.Errorf("allocation took %v on a memo hit, %v on a miss", hitTime, missTime)
		}

		if err := d2.Close(p); err != nil {
			t.Error(err)
			return
		}
		if err := d2.Open(p); err != nil {
			t.Error(err)
			return
		}
		if _, _, err := alloc(d2, bad); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("one-byte-flipped copy of a parsed blob: err = %v, want checksum mismatch", err)
		}
		gBig2, _, err := alloc(d2, big)
		if err != nil {
			t.Error(err)
			return
		}
		if gBig2.Engine().Graph() == g0.Engine().Graph() {
			t.Error("GoogLeNet allocated after micro got the micro graph")
		}
		for _, d := range r.devices {
			if err := d.Close(p); err != nil {
				t.Error(err)
				return
			}
		}
	})
	r.env.Run()
}
