// Package ndim generalizes the spatial substrate to d >= 2 dimensions,
// matching the paper's problem definition ("a set D of n points in
// d-dimensional Euclidean space, d >= 2"): d-dimensional points and
// boxes, a d-dimensional Morton (Z-order) mapping, the recursive 2^d
// partitioning of Algorithm 2, and a predict-and-scan learned index
// built through any base.ModelBuilder-style trainer. The 2-D packages
// stay specialized for performance; this package demonstrates that
// every ELSI mechanism carries over unchanged to higher dimensions.
package ndim

import (
	"math"

	"elsi/internal/floats"
)

// Point is a point in d-dimensional space.
type Point []float64

// Dim returns the dimensionality.
func (p Point) Dim() int { return len(p) }

// Dist2 returns the squared Euclidean distance to q.
func (p Point) Dist2(q Point) float64 {
	s := 0.0
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// Equal reports coordinate-wise equality.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if !floats.Eq(p[i], q[i]) {
			return false
		}
	}
	return true
}

// Clone returns a copy of p.
func (p Point) Clone() Point {
	return append(Point(nil), p...)
}

// Rect is an axis-aligned box [Min[i], Max[i]] per dimension.
type Rect struct {
	Min, Max Point
}

// UnitCube returns the unit hypercube of dimension d.
func UnitCube(d int) Rect {
	r := Rect{Min: make(Point, d), Max: make(Point, d)}
	for i := 0; i < d; i++ {
		r.Max[i] = 1
	}
	return r
}

// Dim returns the box dimensionality.
func (r Rect) Dim() int { return len(r.Min) }

// Contains reports whether p lies inside r (boundaries included).
func (r Rect) Contains(p Point) bool {
	for i := range p {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Volume returns the d-dimensional volume of r.
func (r Rect) Volume() float64 {
	v := 1.0
	for i := range r.Min {
		side := r.Max[i] - r.Min[i]
		if side < 0 {
			return 0
		}
		v *= side
	}
	return v
}

// Child returns the quad/oct-ant child box selected by the bit mask
// (bit i set = upper half in dimension i) — the 2^d partitioning of
// Algorithm 2.
func (r Rect) Child(mask int) Rect {
	out := Rect{Min: r.Min.Clone(), Max: r.Max.Clone()}
	for i := range r.Min {
		mid := (r.Min[i] + r.Max[i]) / 2
		if mask&(1<<i) == 0 {
			out.Max[i] = mid
		} else {
			out.Min[i] = mid
		}
	}
	return out
}

// ChildOf returns the child mask of p relative to r's center.
func (r Rect) ChildOf(p Point) int {
	mask := 0
	for i := range p {
		if p[i] >= (r.Min[i]+r.Max[i])/2 {
			mask |= 1 << i
		}
	}
	return mask
}

// --- d-dimensional Morton mapping --------------------------------------

// BitsFor returns the per-dimension bit budget for a d-dimensional
// Morton code: the full key uses at most 52 bits so that it remains
// exactly representable as a float64 integer, the form the rank
// models consume.
func BitsFor(d int) int {
	if d < 1 {
		return 0
	}
	return 52 / d
}

// ZEncode maps p, relative to space, to its d-dimensional Morton key
// (bit-interleaved across dimensions, most significant level first).
func ZEncode(p Point, space Rect) uint64 {
	d := p.Dim()
	bits := BitsFor(d)
	cells := uint64(1) << bits
	// d <= 52 (BitsFor needs at least one bit per dimension), so the
	// cell coordinates fit a stack array — no allocation per encode.
	var csArr [52]uint64
	cs := csArr[:d]
	for i := 0; i < d; i++ {
		cs[i] = quantize(p[i], space.Min[i], space.Max[i], cells)
	}
	var key uint64
	for b := bits - 1; b >= 0; b-- {
		for i := 0; i < d; i++ {
			key = key<<1 | (cs[i] >> uint(b) & 1)
		}
	}
	return key
}

func quantize(v, lo, hi float64, cells uint64) uint64 {
	if hi <= lo {
		return 0
	}
	f := (v - lo) / (hi - lo)
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		return cells - 1
	}
	c := uint64(f * float64(cells))
	if c >= cells {
		c = cells - 1
	}
	return c
}

// ZKey returns the Morton key as a float64 (exact for the bit budgets
// above), the form the rank models consume.
func ZKey(p Point, space Rect) float64 {
	return float64(ZEncode(p, space))
}

// MinMaxKeys returns the Morton keys of a box's corners: every point
// inside the box has its key within [min, max] (each coordinate's bits
// are bounded by the corners' bits), which gives the conservative scan
// range of the d-dimensional window query.
func MinMaxKeys(win, space Rect) (float64, float64) {
	lo := win.Min.Clone()
	hi := win.Max.Clone()
	for i := range lo {
		lo[i] = math.Max(lo[i], space.Min[i])
		hi[i] = math.Min(hi[i], space.Max[i])
	}
	return ZKey(lo, space), ZKey(hi, space)
}
