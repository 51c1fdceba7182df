package graphfile

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/half"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func microGraph(t testing.TB) *nn.Graph {
	t.Helper()
	return nn.NewMicroGoogLeNet(nn.MicroConfig{Classes: 10, Input: 32}, rng.New(7))
}

func TestCompileParseRoundTrip(t *testing.T) {
	g := microGraph(t)
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	parsed, info, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != g.Name() || info.Layers != g.Len() || info.Output != g.Output() {
		t.Errorf("info = %+v", info)
	}
	if !info.InputShape.Equal(g.InputShape()) {
		t.Errorf("input shape %v vs %v", info.InputShape, g.InputShape())
	}
	if parsed.Len() != g.Len() {
		t.Fatalf("layer count %d vs %d", parsed.Len(), g.Len())
	}
	for i, n := range g.LayerNames() {
		if parsed.LayerNames()[i] != n {
			t.Fatalf("layer order diverges at %d: %q vs %q", i, parsed.LayerNames()[i], n)
		}
	}
}

func TestParsedWeightsAreFP16Rounded(t *testing.T) {
	g := microGraph(t)
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	parsed, _, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	orig := g.Layer("conv1").(*nn.Conv)
	got := parsed.Layer("conv1").(*nn.Conv)
	if !got.Weights.IsFP16Exact() {
		t.Error("parsed weights must be FP16-exact")
	}
	want := orig.Weights.Clone()
	want.QuantizeFP16()
	for i := range want.Data {
		if got.Weights.Data[i] != want.Data[i] {
			t.Fatalf("weight %d: %g vs %g", i, got.Weights.Data[i], want.Data[i])
		}
	}
}

func TestCompileDoesNotMutateSource(t *testing.T) {
	g := microGraph(t)
	conv := g.Layer("conv1").(*nn.Conv)
	before := append([]float32(nil), conv.Weights.Data...)
	if _, err := Compile(g); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if conv.Weights.Data[i] != before[i] {
			t.Fatal("Compile mutated source weights")
		}
	}
}

func TestParsedGraphProducesSameOutputsAsQuantizedOriginal(t *testing.T) {
	g := microGraph(t)
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	parsed, _, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Quantize the original in place: it should now match the parsed
	// network exactly under FP16 execution.
	g.QuantizeWeightsFP16()
	in := tensor.New(1, 3, 32, 32)
	in.FillNormal(rng.New(5), 0, 64)
	a, err := g.Forward(in, nn.FP16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parsed.Forward(in, nn.FP16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("output %d differs: %g vs %g", i, a.Data[i], b.Data[i])
		}
	}
}

func TestCompileDeterministic(t *testing.T) {
	g := microGraph(t)
	a, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("Compile must be deterministic")
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	g := microGraph(t)
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("short", func(t *testing.T) {
		if _, _, err := Parse(blob[:4]); err == nil {
			t.Error("short blob accepted")
		}
	})
	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[0] = 'X'
		if _, _, err := Parse(bad); err == nil {
			t.Error("bad magic accepted")
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[4] = 0xFF // little-endian version field
		if _, _, err := Parse(bad); err == nil {
			t.Error("bad version accepted")
		}
	})
	t.Run("flipped-payload-byte", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)/2] ^= 0x40
		if _, _, err := Parse(bad); err == nil {
			t.Error("checksum must catch payload corruption")
		}
	})
	t.Run("flipped-trailer", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)-1] ^= 1
		if _, _, err := Parse(bad); err == nil {
			t.Error("checksum must catch trailer corruption")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, _, err := Parse(blob[:len(blob)-10]); err == nil {
			t.Error("truncated blob accepted")
		}
	})
}

func TestParseRejectsTrailingGarbage(t *testing.T) {
	g := microGraph(t)
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	// Splice garbage between payload and a recomputed checksum.
	// Easiest valid-CRC attack: append bytes then fix the CRC.
	payload := append([]byte(nil), blob[:len(blob)-4]...)
	payload = append(payload, 0xDE, 0xAD)
	sum := crc32.ChecksumIEEE(payload)
	bad := append(payload, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
	if _, _, err := Parse(bad); err == nil {
		t.Error("trailing garbage with fixed CRC accepted")
	}
}

func TestInfoCounts(t *testing.T) {
	g := microGraph(t)
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	total := g.TotalStats()
	if info.MACs != total.MACs || info.Params != total.Params {
		t.Errorf("info MACs/Params %d/%d, want %d/%d", info.MACs, info.Params, total.MACs, total.Params)
	}
	if info.Bytes != len(blob) {
		t.Errorf("info.Bytes = %d, want %d", info.Bytes, len(blob))
	}
	// FP16 weights: blob must be roughly 2 bytes per parameter plus
	// topology overhead, far below 4 bytes per parameter.
	if int64(info.Bytes) > total.Params*3 {
		t.Errorf("blob size %d too large for %d FP16 params", info.Bytes, total.Params)
	}
}

func TestCompileFullGoogLeNet(t *testing.T) {
	if testing.Short() {
		t.Skip("large compile skipped in -short")
	}
	g := nn.NewGoogLeNet(rng.New(1))
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	parsed, info, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Layers != 142 || parsed.Len() != 142 {
		t.Errorf("GoogLeNet blob has %d layers", info.Layers)
	}
	// ~7M params at 2 bytes each ≈ 14 MB.
	if info.Bytes < 13<<20 || info.Bytes > 16<<20 {
		t.Errorf("GoogLeNet blob = %d bytes, expected ~14 MB", info.Bytes)
	}
}

// Property: random single-byte corruption anywhere in the blob is
// always rejected (the CRC catches payload damage; header checks catch
// the rest). Parse must never panic on corrupted input.
func TestQuickParseNeverPanics(t *testing.T) {
	g := nn.NewMicroGoogLeNet(nn.MicroConfig{Classes: 4, Input: 32}, rng.New(3))
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pos uint32, val byte) bool {
		bad := append([]byte(nil), blob...)
		i := int(pos) % len(bad)
		if bad[i] == val {
			return true // not a corruption
		}
		bad[i] = val
		defer func() {
			if recover() != nil {
				t.Errorf("Parse panicked for corruption at byte %d", i)
			}
		}()
		_, _, err := Parse(bad)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestFP16CodecCoversEveryFiniteHalf compiles an FC layer whose
// weights are every finite binary16 value, in bit order, and checks
// the parsed weights are bit-identical to the scalar half decode. A
// blob cut inside that weight run (with a recomputed CRC, so only the
// length check can catch it) must fail with the truncation error.
func TestFP16CodecCoversEveryFiniteHalf(t *testing.T) {
	var want []float32
	for b := 0; b < 1<<16; b++ {
		if h := half.FromBits(uint16(b)); h.IsFinite() {
			want = append(want, h.Float32())
		}
	}
	const inF = 256
	outF := len(want) / inF
	if outF*inF != len(want) {
		t.Fatalf("%d finite halves do not fill %d-wide rows", len(want), inF)
	}
	fc := &nn.FullyConnected{
		LayerName: "fc", InF: inF, OutF: outF,
		Weights: tensor.FromSlice(append([]float32(nil), want...), outF, inF),
		Bias:    tensor.New(outF),
	}
	g := nn.NewGraph("fp16-codec", tensor.Shape{inF, 1, 1})
	g.MustAdd(fc, nn.InputName)
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	parsed, _, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := parsed.Layer("fc").(*nn.FullyConnected).Weights.Data
	if len(got) != len(want) {
		t.Fatalf("parsed %d weights, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("weight %d: parsed bits %#08x, want %#08x", i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}

	// The payload ends with the weight run, the bias count (a 2-byte
	// uvarint) and outF bias halves; cut 1001 bytes into the weights.
	payload := blob[:len(blob)-4]
	weightsEnd := len(payload) - 2 - 2*outF
	cut := append([]byte(nil), payload[:weightsEnd-1001]...)
	sum := crc32.ChecksumIEEE(cut)
	cut = append(cut, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
	wantErr := fmt.Sprintf("weight blob of %d halves exceeds remaining", len(want))
	if _, _, err := Parse(cut); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Errorf("blob cut inside the weight run: err = %v, want %q", err, wantErr)
	}
}
