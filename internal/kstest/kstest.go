// Package kstest implements the data-set similarity measure of
// Definition 2 in the ELSI paper: 1 minus the Kolmogorov-Smirnov
// distance between the empirical CDFs of two key-value sets.
//
// Two algorithms are provided. Distance implements the O(ns·log n)
// binary-search variant the paper proposes (scan only the small set,
// binary-search each element's rank in the large set). DistanceMerge is
// the textbook O(ns+n) merge scan used as a correctness and ablation
// baseline.
package kstest

import (
	"math"
	"sort"

	"elsi/internal/floats"
)

// Distance returns the KS distance between the empirical CDFs of the
// small sorted set ds and the large sorted set d:
//
//	sup_x |cdf_ds(x) - cdf_d(x)|
//
// Both slices must be sorted ascending. It runs in O(len(ds)·log len(d))
// by binary-searching the rank of each small-set element in d, per
// Section III of the paper. The result is in [0, 1].
func Distance(ds, d []float64) float64 {
	ns, n := len(ds), len(d)
	if ns == 0 || n == 0 {
		if ns == 0 && n == 0 {
			return 0
		}
		return 1
	}
	maxGap := 0.0
	for i, v := range ds {
		// A tied block of ds is a single CDF jump: handle it once, at
		// its first element (later elements would fabricate phantom
		// intermediate CDF levels).
		if i > 0 && floats.Eq(ds[i-1], v) {
			continue
		}
		// j = number of elements of d strictly below v; the CDF of d
		// jumps from j/n to jHi/n across the tied block at v.
		j := sort.SearchFloat64s(d, v)
		jHi := j
		for jHi < n && floats.Eq(d[jHi], v) {
			jHi++
		}
		// CDF of ds just below v is i/ns; at v it is iHi/ns where iHi
		// counts through the tied block in ds. Checking both sides of
		// each jump captures the supremum exactly.
		iHi := i + 1
		for iHi < ns && floats.Eq(ds[iHi], v) {
			iHi++
		}
		lo := math.Abs(float64(i)/float64(ns) - float64(j)/float64(n))
		hi := math.Abs(float64(iHi)/float64(ns) - float64(jHi)/float64(n))
		if lo > maxGap {
			maxGap = lo
		}
		if hi > maxGap {
			maxGap = hi
		}
	}
	return clamp01(maxGap)
}

// DistanceMerge computes the same KS distance with a single merge scan
// over both sorted inputs in O(len(ds)+len(d)) time. Used to verify
// Distance and as an ablation baseline.
func DistanceMerge(ds, d []float64) float64 {
	ns, n := len(ds), len(d)
	if ns == 0 || n == 0 {
		if ns == 0 && n == 0 {
			return 0
		}
		return 1
	}
	i, j := 0, 0
	maxGap := 0.0
	for i < ns || j < n {
		var x float64
		switch {
		case i >= ns:
			x = d[j]
		case j >= n:
			x = ds[i]
		case ds[i] <= d[j]:
			x = ds[i]
		default:
			x = d[j]
		}
		for i < ns && ds[i] <= x {
			i++
		}
		for j < n && d[j] <= x {
			j++
		}
		gap := math.Abs(float64(i)/float64(ns) - float64(j)/float64(n))
		if gap > maxGap {
			maxGap = gap
		}
	}
	return clamp01(maxGap)
}

// DistanceToUniform returns the KS distance between the empirical CDF
// of the sorted keys and the CDF of the uniform distribution over
// [lo, hi]. The paper uses dist(D_U, D) — the distance between a data
// set and a uniform set of the same size — to summarize a data set's
// distribution for the method scorer; comparing against the continuous
// uniform CDF computes the same quantity in O(n) without materializing
// D_U.
func DistanceToUniform(keys []float64, lo, hi float64) float64 {
	n := len(keys)
	if n == 0 || hi <= lo {
		return 0
	}
	span := hi - lo
	maxGap := 0.0
	for i, v := range keys {
		u := (v - lo) / span
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		// The empirical CDF jumps from i/n to (i+1)/n at v.
		if g := math.Abs(float64(i)/float64(n) - u); g > maxGap {
			maxGap = g
		}
		if g := math.Abs(float64(i+1)/float64(n) - u); g > maxGap {
			maxGap = g
		}
	}
	return clamp01(maxGap)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
