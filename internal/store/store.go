// Package store provides the storage substrate shared by the indices:
// a sorted structure-of-arrays of (key, point) columns with scan-cost
// accounting for the predict-and-scan learned indices. The paper
// stores data in blocks of B = 100 points (Section VII-B1); BlockSize
// is that B, shared by the page- and node-structured indices.
//
// The layout is deliberately columnar: binary searches touch only the
// dense key column ([]float64, 8 bytes/entry) and bounded scans stream
// through it without pulling the 16-byte points into cache, mirroring
// the cache-conscious layouts of the RMI/PGM line of learned indices.
// The scan kernels (FindPoint, CollectWindow, CollectRange) are
// specialized loops rather than per-entry callbacks, and charge the
// scan counter once per scan instead of once per entry.
package store

import (
	"sync/atomic"

	"elsi/internal/geo"
)

// BlockSize is the paper's block size B.
const BlockSize = 100

// Sorted is an immutable pair of parallel columns sorted by key — the
// storage layout of a map-and-sort index. It counts scanned entries so
// experiments can report scan costs; the counter is atomic so that
// concurrent readers (queries racing with a background rebuild) do
// not race on the accounting.
type Sorted struct {
	keys    []float64
	pts     []geo.Point
	scanned atomic.Int64
}

// NewSortedColumns takes ownership of already-sorted parallel columns
// without copying or re-sorting — the zero-copy build path. The
// map-and-sort preparation (base.PrepareWorkers) already emits sorted
// columns, so index builds hand them straight to the store. Panics if
// the columns mismatch in length or the keys are not ascending.
func NewSortedColumns(keys []float64, pts []geo.Point) *Sorted {
	if len(keys) != len(pts) {
		panic("store: keys and points length mismatch")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			panic("store: NewSortedColumns keys not sorted")
		}
	}
	return &Sorted{keys: keys, pts: pts}
}

// Len returns the number of stored entries.
//
//elsi:noalloc
func (s *Sorted) Len() int { return len(s.keys) }

// Keys returns the sorted key column as a view, not a copy. Callers
// must treat it as read-only; the store is immutable after build, so
// the view stays valid for the store's lifetime.
func (s *Sorted) Keys() []float64 { return s.keys }

// Points returns the point column (parallel to Keys) as a read-only
// view.
func (s *Sorted) Points() []geo.Point { return s.pts }

// KeyAt returns the i-th key in key order.
//
//elsi:noalloc
func (s *Sorted) KeyAt(i int) float64 { return s.keys[i] }

// PointAt returns the i-th point in key order.
//
//elsi:noalloc
func (s *Sorted) PointAt(i int) geo.Point { return s.pts[i] }

//elsi:noalloc
func (s *Sorted) clamp(lo, hi int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.keys) {
		hi = len(s.keys)
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// FindPoint scans positions [lo, hi) for a point equal to p and
// reports whether it was found (the predict-and-scan point query).
// Visited entries are charged to the scan counter with one atomic add.
//
//elsi:noalloc
func (s *Sorted) FindPoint(lo, hi int, p geo.Point) bool {
	lo, hi = s.clamp(lo, hi)
	pts := s.pts
	for i := lo; i < hi; i++ {
		if pts[i] == p {
			s.scanned.Add(int64(i - lo + 1))
			return true
		}
	}
	s.scanned.Add(int64(hi - lo))
	return false
}

// CollectWindow appends to out the points in positions [lo, hi) that
// fall inside win and returns the extended slice. The whole span is
// charged with one atomic add.
//
//elsi:noalloc
func (s *Sorted) CollectWindow(lo, hi int, win geo.Rect, out []geo.Point) []geo.Point {
	lo, hi = s.clamp(lo, hi)
	for _, p := range s.pts[lo:hi] {
		if win.Contains(p) {
			out = append(out, p)
		}
	}
	s.scanned.Add(int64(hi - lo))
	return out
}

// CollectRange appends every point in positions [lo, hi) to out and
// returns the extended slice (the unfiltered scan kernel used by
// KNN candidate collection). The span is charged with one atomic add.
//
//elsi:noalloc
func (s *Sorted) CollectRange(lo, hi int, out []geo.Point) []geo.Point {
	lo, hi = s.clamp(lo, hi)
	out = append(out, s.pts[lo:hi]...)
	s.scanned.Add(int64(hi - lo))
	return out
}

// searchGE returns the first position in keys[lo:hi) holding a key
// >= k, as an absolute index. The loop is the branch-light midpoint
// form the compiler turns into conditional moves over the dense
// []float64 column.
//
//elsi:noalloc
func searchGE(keys []float64, lo, hi int, k float64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchGT is searchGE for the strict predicate key > k.
//
//elsi:noalloc
func searchGT(keys []float64, lo, hi int, k float64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SearchKey returns the position of the first entry with key >= k.
//
//elsi:noalloc
func (s *Sorted) SearchKey(k float64) int {
	return searchGE(s.keys, 0, len(s.keys), k)
}

// FirstGE returns the position of the first entry with key >= k using
// hint as a starting guess: it gallops outward from hint and finishes
// with a binary search inside the bracket, so the cost is logarithmic
// in the prediction error rather than in n. Learned indices use it to
// turn a model prediction into an exact boundary.
//
//elsi:noalloc
func (s *Sorted) FirstGE(k float64, hint int) int {
	keys := s.keys
	n := len(keys)
	if n == 0 {
		return 0
	}
	if hint < 0 {
		hint = 0
	}
	if hint >= n {
		hint = n - 1
	}
	var lo, hi int
	if keys[hint] >= k {
		// answer is at or before hint: gallop left until a key < k
		hi = hint + 1
		step := 1
		i := hint
		for i >= 0 && keys[i] >= k {
			i -= step
			step *= 2
		}
		if i < 0 {
			lo = 0
		} else {
			lo = i
		}
	} else {
		// answer is after hint: gallop right until a key >= k
		lo = hint
		step := 1
		i := hint
		for i < n && keys[i] < k {
			lo = i
			i += step
			step *= 2
		}
		if i >= n {
			hi = n
		} else {
			hi = i + 1
		}
	}
	return searchGE(keys, lo, hi, k)
}

// FirstGT returns the position of the first entry with key > k, with
// the same galloping strategy as FirstGE but the strict predicate —
// a second galloping binary search rather than a linear walk over the
// duplicate run, so duplicate-heavy keys stay logarithmic.
//
//elsi:noalloc
func (s *Sorted) FirstGT(k float64, hint int) int {
	keys := s.keys
	n := len(keys)
	if n == 0 {
		return 0
	}
	if hint < 0 {
		hint = 0
	}
	if hint >= n {
		hint = n - 1
	}
	var lo, hi int
	if keys[hint] > k {
		// answer is at or before hint: gallop left until a key <= k
		hi = hint + 1
		step := 1
		i := hint
		for i >= 0 && keys[i] > k {
			i -= step
			step *= 2
		}
		if i < 0 {
			lo = 0
		} else {
			lo = i
		}
	} else {
		// answer is after hint: gallop right until a key > k
		lo = hint
		step := 1
		i := hint
		for i < n && keys[i] <= k {
			lo = i
			i += step
			step *= 2
		}
		if i >= n {
			hi = n
		} else {
			hi = i + 1
		}
	}
	return searchGT(keys, lo, hi, k)
}

// Scanned returns the cumulative number of entries visited by scans.
func (s *Sorted) Scanned() int64 { return s.scanned.Load() }

// ResetScanned zeroes the scan counter (called between experiment
// phases).
func (s *Sorted) ResetScanned() { s.scanned.Store(0) }
