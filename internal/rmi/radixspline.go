package rmi

import (
	"math"
	"sort"

	"elsi/internal/floats"
)

// This file implements a RadixSpline-style rank model (Kipf et al.
// 2020, reference [7] of the paper): a single-pass greedy spline over
// the key CDF with a guaranteed per-key error, plus a radix table over
// the top bits of the key that narrows the spline-segment search to a
// handful of candidates. It is a third model family next to the FFN
// (the paper's choice) and the shrinking-cone piecewise model —
// single-pass construction makes it the cheapest trainer of the three.

// RadixSplineModel approximates the CDF with spline knots and a radix
// lookup table.
type RadixSplineModel struct {
	knotX []float64 // knot key values, ascending
	knotY []float64 // CDF at each knot
	// radix table: prefix -> first knot index whose key has that prefix
	radixBits int
	table     []int32
	min, max  float64
}

// PredictCDF implements Model: locate the spline segment via the radix
// table plus a short local search, then interpolate.
func (m *RadixSplineModel) PredictCDF(key float64) float64 {
	n := len(m.knotX)
	if n == 0 {
		return 0
	}
	if key <= m.knotX[0] {
		return clamp01f(m.knotY[0])
	}
	if key >= m.knotX[n-1] {
		return clamp01f(m.knotY[n-1])
	}
	// The radix table narrows the search: keys with prefix p can only
	// be bracketed by knots in [table[p], table[p+1]] (prefixes are
	// monotone in the key).
	lo, hi := 0, n
	if m.radixBits > 0 {
		p := m.prefix(key)
		lo = int(m.table[p])
		if p+1 < len(m.table) {
			hi = int(m.table[p+1]) + 1
		}
		if hi > n {
			hi = n
		}
		if lo > hi {
			lo = hi
		}
	}
	// binary search within the bucket for the first knot beyond key
	i := lo + sort.Search(hi-lo, func(i int) bool { return m.knotX[lo+i] > key })
	if i == 0 {
		i = 1
	}
	x0, x1 := m.knotX[i-1], m.knotX[i]
	y0, y1 := m.knotY[i-1], m.knotY[i]
	if floats.Eq(x1, x0) {
		return clamp01f(y1)
	}
	return clamp01f(y0 + (y1-y0)*(key-x0)/(x1-x0))
}

// prefix extracts the radixBits top bits of the key's position within
// [min, max].
func (m *RadixSplineModel) prefix(key float64) int {
	f := (key - m.min) / (m.max - m.min)
	if f < 0 {
		f = 0
	}
	if f >= 1 {
		return (1 << m.radixBits) - 1
	}
	return int(f * float64(int(1)<<m.radixBits))
}

func clamp01f(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// RadixSplineTrainer returns a Trainer building RadixSplineModels with
// the given CDF-space error tolerance eps and radix table width (bits;
// 0 disables the table, <0 picks a default).
func RadixSplineTrainer(eps float64, radixBits int) Trainer {
	if eps <= 0 {
		eps = 1.0 / 256
	}
	if radixBits < 0 {
		radixBits = 12
	}
	return func(keys []float64) Model {
		m := &RadixSplineModel{radixBits: radixBits}
		n := len(keys)
		if n == 0 {
			return m
		}
		m.min, m.max = keys[0], keys[n-1]
		buildSpline(m, keys, eps)
		if floats.Eq(m.max, m.min) {
			m.radixBits = 0
		}
		if m.radixBits > 0 {
			buildRadixTable(m)
		} else {
			m.radixBits = 0
		}
		return m
	}
}

// buildSpline runs the single-pass greedy spline construction: extend
// the current segment while every intermediate point stays within eps
// of the interpolation (the shrinking error corridor of RadixSpline).
func buildSpline(m *RadixSplineModel, keys []float64, eps float64) {
	n := len(keys)
	addKnot := func(x, y float64) {
		// collapse duplicate x (tied keys): keep the larger CDF
		if k := len(m.knotX); k > 0 && floats.Eq(m.knotX[k-1], x) {
			if y > m.knotY[k-1] {
				m.knotY[k-1] = y
			}
			return
		}
		m.knotX = append(m.knotX, x)
		m.knotY = append(m.knotY, y)
	}
	addKnot(keys[0], 0)
	baseX, baseY := keys[0], 0.0
	// slope corridor to the candidate end point
	loSlope, hiSlope := math.Inf(-1), math.Inf(1)
	lastX, lastY := baseX, baseY
	for i := 1; i < n; i++ {
		x := keys[i]
		y := float64(i) / float64(n)
		if floats.Eq(x, baseX) {
			lastX, lastY = x, y
			continue
		}
		lo := (y - eps - baseY) / (x - baseX)
		hi := (y + eps - baseY) / (x - baseX)
		newLo, newHi := math.Max(loSlope, lo), math.Min(hiSlope, hi)
		if newLo > newHi {
			// close the segment at the previous point
			addKnot(lastX, lastY)
			baseX, baseY = lastX, lastY
			loSlope, hiSlope = math.Inf(-1), math.Inf(1)
			if !floats.Eq(x, baseX) {
				loSlope = (y - eps - baseY) / (x - baseX)
				hiSlope = (y + eps - baseY) / (x - baseX)
			}
		} else {
			loSlope, hiSlope = newLo, newHi
		}
		lastX, lastY = x, y
	}
	addKnot(keys[n-1], 1)
}

// buildRadixTable fills table[p] with the index of the first knot
// whose key prefix is >= p, computed in one sweep over the knots.
func buildRadixTable(m *RadixSplineModel) {
	size := 1 << m.radixBits
	m.table = make([]int32, size)
	ki := 0
	for p := 0; p < size; p++ {
		for ki < len(m.knotX) && m.prefix(m.knotX[ki]) < p {
			ki++
		}
		m.table[p] = int32(ki)
	}
}
