package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"

	"elsi/internal/geo"
)

// Binary encode/decode primitives shared by every persisted structure:
// append-style writers over a []byte and a sticky-error reader. The
// encoding is little-endian, with uvarint counts and raw IEEE-754 bits
// for floats (bit-exact roundtrips, NaN and signed zero included —
// "byte-identical recovery" depends on it).
//
// The decoder is written for hostile input: every count is bounds-
// checked against the bytes actually remaining BEFORE any allocation,
// so a bit-flipped length cannot OOM the process or panic a slice
// index; it records the first failure and turns every later call into
// a no-op returning zero values.

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendBool appends a bool as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendU64 appends a fixed-width little-endian uint64.
func AppendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendUvarint appends an unsigned varint (counts, sizes).
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends a zig-zag signed varint.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendInt appends an int as a signed varint.
func AppendInt(b []byte, v int) []byte { return AppendVarint(b, int64(v)) }

// AppendF64 appends the raw IEEE-754 bits of v.
func AppendF64(b []byte, v float64) []byte {
	return AppendU64(b, math.Float64bits(v))
}

// AppendF64s appends a uvarint count followed by the raw bits of each
// element.
func AppendF64s(b []byte, vs []float64) []byte {
	b = AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = AppendF64(b, v)
	}
	return b
}

// AppendInts appends a uvarint count followed by signed varints.
func AppendInts(b []byte, vs []int) []byte {
	b = AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = AppendInt(b, v)
	}
	return b
}

// AppendPoint appends a point as two raw float64s.
func AppendPoint(b []byte, p geo.Point) []byte {
	b = AppendF64(b, p.X)
	return AppendF64(b, p.Y)
}

// AppendPoints appends a uvarint count followed by the points.
func AppendPoints(b []byte, ps []geo.Point) []byte {
	b = AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = AppendPoint(b, p)
	}
	return b
}

// AppendRect appends a rectangle as four raw float64s.
func AppendRect(b []byte, r geo.Rect) []byte {
	b = AppendF64(b, r.MinX)
	b = AppendF64(b, r.MinY)
	b = AppendF64(b, r.MaxX)
	return AppendF64(b, r.MaxY)
}

// AppendBytes appends a uvarint length followed by the bytes.
func AppendBytes(b, p []byte) []byte {
	b = AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendString appends a uvarint length followed by the string bytes.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Dec is a sticky-error decoder over an encoded buffer. After the
// first failure every method returns a zero value and Err reports the
// failure, so decode paths read linearly without per-call checks.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over b. The decoder does not copy b;
// decoded []byte/[]float64 values are freshly allocated, never views.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode failure, nil if none.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of undecoded bytes.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// Close fails the decode if trailing garbage remains, catching
// truncated-then-padded or misframed inputs.
func (d *Dec) Close() error {
	if d.err == nil && d.off != len(d.b) {
		d.failf("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

func (d *Dec) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: decode at offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

// need reports whether n more bytes are available, failing the decoder
// if not.
func (d *Dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || d.Remaining() < n {
		d.failf("need %d bytes, have %d", n, d.Remaining())
		return false
	}
	return true
}

// U8 decodes one byte.
func (d *Dec) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Bool decodes a one-byte bool, rejecting values other than 0/1.
func (d *Dec) Bool() bool {
	v := d.U8()
	if d.err == nil && v > 1 {
		d.failf("bad bool %d", v)
		return false
	}
	return v == 1
}

// U64 decodes a fixed-width little-endian uint64.
func (d *Dec) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// Uvarint decodes an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.failf("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// Varint decodes a zig-zag signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.failf("bad varint")
		return 0
	}
	d.off += n
	return v
}

// Int decodes a signed varint into an int, rejecting values that do
// not fit.
func (d *Dec) Int() int {
	v := d.Varint()
	if d.err == nil && int64(int(v)) != v {
		d.failf("varint %d overflows int", v)
		return 0
	}
	return int(v)
}

// Count decodes a uvarint count of elements each occupying at least
// elemSize encoded bytes, bounds-checking against the remaining input
// before the caller allocates.
func (d *Dec) Count(elemSize int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if v > uint64(d.Remaining()/elemSize) {
		d.failf("count %d exceeds remaining input", v)
		return 0
	}
	return int(v)
}

// F64 decodes raw IEEE-754 bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// F64s decodes a counted []float64.
func (d *Dec) F64s() []float64 {
	n := d.Count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = d.F64()
	}
	return vs
}

// Ints decodes a counted []int.
func (d *Dec) Ints() []int {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = d.Int()
	}
	if d.err != nil {
		return nil
	}
	return vs
}

// Point decodes a point.
func (d *Dec) Point() geo.Point {
	x := d.F64()
	y := d.F64()
	return geo.Point{X: x, Y: y}
}

// Points decodes a counted []geo.Point.
func (d *Dec) Points() []geo.Point {
	n := d.Count(16)
	if d.err != nil || n == 0 {
		return nil
	}
	ps := make([]geo.Point, n)
	for i := range ps {
		ps[i] = d.Point()
	}
	return ps
}

// Rect decodes a rectangle.
func (d *Dec) Rect() geo.Rect {
	minX := d.F64()
	minY := d.F64()
	maxX := d.F64()
	maxY := d.F64()
	return geo.Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
}

// Bytes decodes a counted []byte (a fresh copy, not a view).
func (d *Dec) Bytes() []byte {
	n := d.Count(1)
	if d.err != nil {
		return nil
	}
	p := make([]byte, n)
	copy(p, d.b[d.off:d.off+n])
	d.off += n
	return p
}

// String decodes a counted string.
func (d *Dec) String() string {
	n := d.Count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}
