package ndim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"elsi/internal/parallel"
	"elsi/internal/rmi"
)

// RepresentativeKeys is Algorithm 2 (get_RS) in d dimensions: the box
// is split recursively into 2^d children until every cell holds at
// most beta points; the median point (by mapped key) of each non-empty
// cell represents it. The returned keys are sorted — the reduced
// training set Ds of the RS method.
func RepresentativeKeys(pts []Point, space Rect, beta int) []float64 {
	if beta < 1 {
		beta = 1
	}
	var keys []float64
	var rec func(pts []Point, box Rect, depth int)
	rec = func(pts []Point, box Rect, depth int) {
		if len(pts) == 0 {
			return
		}
		// depth cap guards duplicate-heavy inputs
		if len(pts) <= beta || depth >= 48 {
			keys = append(keys, medianKey(pts, space))
			return
		}
		d := box.Dim()
		children := make([][]Point, 1<<d)
		for _, p := range pts {
			m := box.ChildOf(p)
			children[m] = append(children[m], p)
		}
		for m, child := range children {
			rec(child, box.Child(m), depth+1)
		}
	}
	rec(pts, space, 0)
	parallel.SortFloat64s(keys, 0)
	return keys
}

func medianKey(pts []Point, space Rect) float64 {
	ks := make([]float64, len(pts))
	for i, p := range pts {
		ks[i] = ZKey(p, space)
	}
	sort.Float64s(ks)
	return ks[len(ks)/2]
}

// Index is a d-dimensional predict-and-scan learned index: points are
// mapped to their d-dimensional Morton keys, sorted, and a rank model
// trained (on the full set or on an RS-reduced set) with empirical
// error bounds. Point queries are exact; window queries scan the
// conservative corner-key range and filter; kNN expands a box.
type Index struct {
	space   Rect
	trainer rmi.Trainer
	// RSBeta > 0 builds the model on the RS-reduced set (the ELSI
	// path); 0 trains on the full key set (OG).
	rsBeta int
	// workers bounds the parallel key mapping, sorting, and error-bound
	// scan of Build (0 = GOMAXPROCS, 1 = serial).
	workers int

	keys      []float64
	pts       []Point
	model     *rmi.Bounded
	trainSize int
}

// NewIndex returns an unbuilt d-dimensional index. rsBeta > 0 enables
// RS-reduced training with the given cell capacity.
func NewIndex(space Rect, trainer rmi.Trainer, rsBeta int) *Index {
	return NewIndexWorkers(space, trainer, rsBeta, 0)
}

// NewIndexWorkers is NewIndex with an explicit worker count for the
// parallel build stages (0 = GOMAXPROCS, 1 = serial). Builds are
// bit-identical across worker counts.
func NewIndexWorkers(space Rect, trainer rmi.Trainer, rsBeta, workers int) *Index {
	return &Index{space: space, trainer: trainer, rsBeta: rsBeta, workers: workers}
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return len(ix.pts) }

// TrainSetSize returns the size of the model's training set (|Ds|
// when RS reduction is enabled, n otherwise).
func (ix *Index) TrainSetSize() int { return ix.trainSize }

// validatePoints rejects NaN/±Inf coordinates: they have no Morton key
// and would poison the sort order and training targets downstream.
func validatePoints(pts []Point) error {
	for i, p := range pts {
		for _, c := range p {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("ndim: invalid coordinate in point %d: %v", i, p)
			}
		}
	}
	return nil
}

// Build maps, sorts, reduces (optionally), trains, and bounds. Key
// mapping is chunked across workers and the key/point pairs are
// co-sorted with the deterministic stable parallel merge sort.
func (ix *Index) Build(pts []Point) error {
	return ix.BuildCtx(context.Background(), pts)
}

// BuildCtx is Build with cooperative cancellation: training and the
// error-bound scan abort when ctx is done and return its error. A
// failed build leaves the index unusable; callers must discard it.
func (ix *Index) BuildCtx(ctx context.Context, pts []Point) error {
	if err := validatePoints(pts); err != nil {
		return err
	}
	ix.keys = make([]float64, len(pts))
	ix.pts = make([]Point, len(pts))
	copy(ix.pts, pts)
	parallel.For(len(pts), ix.workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ix.keys[i] = ZKey(ix.pts[i], ix.space)
		}
	})
	parallel.SortPairs(ix.keys, ix.pts, ix.workers)
	if len(pts) == 0 {
		ix.model = &rmi.Bounded{Model: rmi.ConstModel(0), N: 0}
		ix.trainSize = 0
		return nil
	}
	train := ix.keys
	if ix.rsBeta > 0 {
		train = RepresentativeKeys(ix.pts, ix.space, ix.rsBeta)
	}
	ix.trainSize = len(train)
	model, err := rmi.NewBounded(ctx, ix.trainer, train, ix.keys, ix.workers)
	if err != nil {
		return err
	}
	ix.model = model
	return nil
}

// PointQuery reports whether p is stored (exact).
func (ix *Index) PointQuery(p Point) bool {
	if len(ix.pts) == 0 {
		return false
	}
	lo, hi := ix.model.SearchRange(ZKey(p, ix.space))
	for i := lo; i < hi; i++ {
		if ix.pts[i].Equal(p) {
			return true
		}
	}
	return false
}

// WindowQuery returns the stored points inside win (exact): the
// corner keys bound every inside point's key, and the boundaries are
// located exactly by binary search seeded at the model prediction.
func (ix *Index) WindowQuery(win Rect) []Point {
	return ix.WindowQueryAppend(win, nil)
}

// WindowQueryAppend is WindowQuery appending matches to out and
// returning the extended slice, for callers reusing result buffers.
func (ix *Index) WindowQueryAppend(win Rect, out []Point) []Point {
	if len(ix.pts) == 0 {
		return out
	}
	loKey, hiKey := MinMaxKeys(win, ix.space)
	lo := sort.SearchFloat64s(ix.keys, loKey)
	hi := searchGTKeys(ix.keys, hiKey)
	for i := lo; i < hi; i++ {
		if win.Contains(ix.pts[i]) {
			out = append(out, ix.pts[i])
		}
	}
	return out
}

// searchGTKeys returns the first index whose key exceeds k — the
// closure-free equivalent of sort.Search over a sorted key column.
func searchGTKeys(keys []float64, k float64) int {
	lo, hi := 0, len(keys)
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

// KNN returns the k nearest stored points to q by expanding a box
// until the k-th candidate lies within the box radius (exact).
func (ix *Index) KNN(q Point, k int) []Point {
	return ix.KNNAppend(q, k, nil)
}

// knnScratch holds the expanding-window candidate set and its distance
// column; pooled so repeated kNN queries reuse one working set.
type knnScratch struct {
	cand []Point
	dist []float64
	win  Rect
}

func (s *knnScratch) Len() int           { return len(s.cand) }
func (s *knnScratch) Less(i, j int) bool { return s.dist[i] < s.dist[j] }
func (s *knnScratch) Swap(i, j int) {
	s.cand[i], s.cand[j] = s.cand[j], s.cand[i]
	s.dist[i], s.dist[j] = s.dist[j], s.dist[i]
}

var knnScratchPool = sync.Pool{New: func() interface{} { return new(knnScratch) }}

// KNNAppend is KNN appending the answer to out and returning the
// extended slice; both entry points share one implementation, so their
// results are identical (including tie order).
func (ix *Index) KNNAppend(q Point, k int, out []Point) []Point {
	n := len(ix.pts)
	if k <= 0 || n == 0 {
		return out
	}
	if k > n {
		k = n
	}
	d := ix.space.Dim()
	// initial radius from expected density
	r := 0.01
	if vol := ix.space.Volume(); vol > 0 {
		r = rootD(float64(4*k)/float64(n)*vol, d)
	}
	maxR := 0.0
	for i := 0; i < d; i++ {
		if side := ix.space.Max[i] - ix.space.Min[i]; side > maxR {
			maxR = side
		}
	}
	s := knnScratchPool.Get().(*knnScratch)
	defer knnScratchPool.Put(s)
	if len(s.win.Min) != d {
		s.win = Rect{Min: make(Point, d), Max: make(Point, d)}
	}
	for {
		for i := 0; i < d; i++ {
			s.win.Min[i] = q[i] - r
			s.win.Max[i] = q[i] + r
		}
		s.cand = ix.WindowQueryAppend(s.win, s.cand[:0])
		if len(s.cand) >= k {
			s.sortByDist(q)
			if s.dist[k-1] <= r*r || r >= maxR {
				return append(out, s.cand[:k]...)
			}
		} else if r >= maxR {
			s.sortByDist(q)
			return append(out, s.cand[:min(k, len(s.cand))]...)
		}
		r *= 2
	}
}

// sortByDist orders the candidate column by ascending squared distance
// to q, computing each distance once.
func (s *knnScratch) sortByDist(q Point) {
	s.dist = s.dist[:0]
	for _, p := range s.cand {
		s.dist = append(s.dist, p.Dist2(q))
	}
	sort.Sort(s)
}

// ErrWidth exposes the model's err_l + err_u.
func (ix *Index) ErrWidth() int { return ix.model.ErrBoundsWidth() }

// rootD returns v^(1/d).
func rootD(v float64, d int) float64 {
	if v <= 0 || d < 1 {
		return 0
	}
	return math.Pow(v, 1/float64(d))
}
