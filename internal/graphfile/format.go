// Package graphfile implements the compiled-graph blob the simulated
// Neural Compute Stick consumes. It plays the role of the NCSDK's
// mvNCCompile output: the host compiles a network once into a binary
// file whose weights are already converted to FP16, ships the blob to
// the device over USB (mvncAllocateGraph), and the on-device runtime
// parses it back into an executable network.
//
// The format is self-contained and versioned:
//
//	magic "NCSG" | version u32 | header | layer records | crc32
//
// Strings are uvarint-length-prefixed UTF-8; integers are little
// endian; weight blobs are IEEE binary16 (uint16 per element), exactly
// like real NCS graph files. A CRC-32 trailer lets the device firmware
// reject corrupted transfers.
package graphfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/half"
)

// Magic identifies a compiled graph blob.
const Magic = "NCSG"

// Version is the current format version. Parse rejects other versions.
const Version uint32 = 2

// Layer kind tags. Values are part of the on-disk format; never
// reorder them.
const (
	kindConv    uint8 = 1
	kindPool    uint8 = 2
	kindReLU    uint8 = 3
	kindLRN     uint8 = 4
	kindConcat  uint8 = 5
	kindDropout uint8 = 6
	kindFC      uint8 = 7
	kindSoftmax uint8 = 8
)

// writer serializes primitive values into a buffer.
type writer struct {
	buf bytes.Buffer
}

func (w *writer) u8(v uint8) { w.buf.WriteByte(v) }

func (w *writer) u32(v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	w.buf.Write(tmp[:])
}

func (w *writer) u64(v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	w.buf.Write(tmp[:])
}

func (w *writer) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	w.buf.Write(tmp[:n])
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *writer) ints(vals []int) {
	w.uvarint(uint64(len(vals)))
	for _, v := range vals {
		if v < 0 {
			panic(fmt.Sprintf("graphfile: negative dimension %d", v))
		}
		w.uvarint(uint64(v))
	}
}

func (w *writer) strs(vals []string) {
	w.uvarint(uint64(len(vals)))
	for _, v := range vals {
		w.str(v)
	}
}

// fp16Blob writes a float32 slice as binary16 values, encoded into
// one byte slice and appended in a single write.
func (w *writer) fp16Blob(data []float32) {
	w.uvarint(uint64(len(data)))
	b := make([]byte, 2*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint16(b[2*i:], half.FromFloat32(v).Bits())
	}
	w.buf.Write(b)
}

// reader deserializes primitive values and tracks errors so call
// sites stay linear.
type reader struct {
	r   *bytes.Reader
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("graphfile: "+format, args...)
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	b, err := r.r.ReadByte()
	if err != nil {
		r.fail("truncated blob: %v", err)
		return 0
	}
	return b
}

func (r *reader) u32() uint32 {
	var b [4]byte
	if !r.fixed(b[:]) {
		return 0
	}
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) u64() uint64 {
	var b [8]byte
	if !r.fixed(b[:]) {
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

// fixed fills b from the blob, failing with the truncation error when
// fewer than len(b) bytes remain.
func (r *reader) fixed(b []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.fail("truncated blob: %v", err)
		return false
	}
	return true
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.fail("truncated varint: %v", err)
	}
	return v
}

// maxLen caps collection sizes parsed from untrusted blobs so a
// corrupted length cannot trigger a giant allocation.
const maxLen = 1 << 28

func (r *reader) length(what string) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > maxLen {
		r.fail("%s length %d exceeds limit", what, n)
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	n := r.length("string")
	if r.err != nil || n == 0 {
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.fail("truncated string: %v", err)
		return ""
	}
	return string(b)
}

func (r *reader) ints() []int {
	n := r.length("int list")
	if r.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.uvarint())
	}
	return out
}

func (r *reader) strs() []string {
	n := r.length("string list")
	if r.err != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

func (r *reader) fp16Blob() []float32 {
	n := r.length("weight blob")
	if r.err != nil {
		return nil
	}
	if int64(n)*2 > int64(r.r.Len()) {
		r.fail("weight blob of %d halves exceeds remaining %d bytes", n, r.r.Len())
		return nil
	}
	b := make([]byte, 2*n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.fail("truncated weights: %v", err)
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = half.FromBits(binary.LittleEndian.Uint16(b[2*i:])).Float32()
	}
	return out
}
