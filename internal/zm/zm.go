// Package zm implements the Z-order model index (ZM, Wang et al.
// 2019): points are mapped to their Z-curve values, sorted, and an
// RMI-style learned model predicts the storage rank of a key. Point
// queries follow the predict-and-scan paradigm; window queries
// decompose the window into Z-key ranges and resolve each range's
// boundaries with a model-seeded exponential search, so they are
// exact. The model builder is pluggable: the OG builder reproduces ZM
// as published, an ELSI builder reproduces ZM-F.
package zm

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"elsi/internal/base"
	"elsi/internal/curve"
	"elsi/internal/geo"
	"elsi/internal/rmi"
	"elsi/internal/store"
)

// Config controls index construction.
type Config struct {
	// Space is the data-space rectangle.
	Space geo.Rect
	// Builder builds each index model (OG or ELSI).
	Builder base.ModelBuilder
	// Fanout is the number of second-stage models (>= 1). With 1, a
	// single model covers the whole key space.
	Fanout int
	// RootTrainer trains the dispatch model when Fanout > 1; defaults
	// to a piecewise-linear trainer.
	RootTrainer rmi.Trainer
	// MaxZDepth caps the window-query Z-range decomposition depth.
	MaxZDepth int
	// UseBigMin switches window queries from the recursive Z-range
	// decomposition to the Tropf-Herzog BIGMIN skip-scan.
	UseBigMin bool
	// Workers bounds the parallel build stages — key mapping, sorting,
	// and concurrent leaf-model builds (0 = GOMAXPROCS, 1 = serial).
	// Builds are bit-identical across worker counts.
	Workers int
	// BuildTimeout, when positive, bounds each Build call: BuildCtx
	// runs under a context that expires after it, and the build
	// returns the context error. Zero means unbounded.
	BuildTimeout time.Duration
}

// Index is the ZM index.
type Index struct {
	cfg         Config
	st          *store.Sorted
	staged      *rmi.Staged
	single      *rmi.Bounded
	stats       []base.BuildStats
	invocations atomic.Int64
}

// New returns an unbuilt ZM index.
func New(cfg Config) *Index {
	if cfg.Fanout < 1 {
		cfg.Fanout = 1
	}
	if cfg.MaxZDepth <= 0 {
		cfg.MaxZDepth = 8
	}
	if cfg.RootTrainer == nil {
		cfg.RootTrainer = rmi.PiecewiseTrainer(1.0 / 1024)
	}
	return &Index{cfg: cfg}
}

// Name implements index.Index.
func (ix *Index) Name() string { return "ZM" }

// Len implements index.Index.
//
//elsi:noalloc
func (ix *Index) Len() int {
	if ix.st == nil {
		return 0
	}
	return ix.st.Len()
}

// MapKey returns the Z-order key of p — the base index's map()
// function of Algorithm 1.
//
//elsi:noalloc
func (ix *Index) MapKey(p geo.Point) float64 {
	return float64(curve.ZEncode(p, ix.cfg.Space))
}

// Build implements index.Index (Algorithm 1 end to end). It runs
// BuildCtx under a background context, bounded by Config.BuildTimeout
// when set.
func (ix *Index) Build(pts []geo.Point) error {
	return ix.BuildCtx(context.Background(), pts)
}

// BuildCtx is Build with cooperative cancellation: the build aborts
// between model builds when ctx is done (or the per-build timeout
// expires) and returns the context's error. A failed build leaves the
// index unusable; callers must discard it or rebuild.
func (ix *Index) BuildCtx(ctx context.Context, pts []geo.Point) error {
	if err := base.ValidatePoints(pts); err != nil {
		return err
	}
	if ix.cfg.BuildTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ix.cfg.BuildTimeout)
		defer cancel()
	}
	d := base.PrepareWorkers(pts, ix.cfg.Space, ix.MapKey, ix.cfg.Workers)
	// The prepared columns are already sorted and owned by this build;
	// the store adopts them without the former per-build entry copy.
	ix.st = store.NewSortedColumns(d.Keys, d.Pts)
	ix.stats = ix.stats[:0]
	if len(pts) == 0 {
		ix.single = &rmi.Bounded{Model: rmi.ConstModel(0), N: 0}
		ix.staged = nil
		return nil
	}
	if ix.cfg.Fanout == 1 {
		m, st, err := base.BuildModelCtx(ctx, ix.cfg.Builder, d)
		if err != nil {
			return err
		}
		ix.single = m
		ix.staged = nil
		ix.stats = append(ix.stats, st)
		return nil
	}
	ix.single = nil
	// Leaf stats are collected keyed by partition start and re-emitted
	// in partition order below: goroutine completion order varies with
	// the worker count, the stats report must not.
	statsByStart := make(map[int]base.BuildStats, ix.cfg.Fanout)
	var mu sync.Mutex
	staged, err := rmi.NewStaged(ctx, d.Keys, ix.cfg.Fanout, ix.cfg.RootTrainer, func(start int, part []float64) (*rmi.Bounded, error) {
		sub := &base.SortedData{
			Pts:   d.Pts[start : start+len(part)],
			Keys:  part,
			Space: d.Space,
			Map:   d.Map,
		}
		m, st, err := base.BuildModelCtx(ctx, ix.cfg.Builder, sub)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		statsByStart[start] = st
		mu.Unlock()
		return m, nil
	}, ix.cfg.Workers)
	if err != nil {
		return err
	}
	ix.staged = staged
	ix.stats = append(ix.stats, statsInOrder(statsByStart, len(d.Keys), ix.cfg.Fanout)...)
	return nil
}

// statsInOrder lays out per-leaf build stats in partition order using
// the equi-count split boundaries (empty partitions build no model and
// record no stats).
func statsInOrder(byStart map[int]base.BuildStats, n, fanout int) []base.BuildStats {
	out := make([]base.BuildStats, 0, len(byStart))
	for i := 0; i < fanout; i++ {
		start, end := i*n/fanout, (i+1)*n/fanout
		if end > start {
			out = append(out, byStart[start])
		}
	}
	return out
}

// searchRange returns the guaranteed scan range for key.
//
//elsi:noalloc
func (ix *Index) searchRange(key float64) (int, int) {
	ix.invocations.Add(1)
	if ix.staged != nil {
		return ix.staged.SearchRangeWide(key)
	}
	return ix.single.SearchRange(key)
}

// predictRank returns the model's best-guess rank for key.
//
//elsi:noalloc
func (ix *Index) predictRank(key float64) int {
	ix.invocations.Add(1)
	if ix.staged != nil {
		lo, hi := ix.staged.SearchRange(key)
		return (lo + hi) / 2
	}
	return ix.single.PredictRank(key)
}

// PointQuery implements index.Index: one model invocation plus a
// bounded scan.
//
//elsi:noalloc
func (ix *Index) PointQuery(p geo.Point) bool {
	if ix.st == nil || ix.st.Len() == 0 {
		return false
	}
	key := ix.MapKey(p)
	lo, hi := ix.searchRange(key)
	return ix.st.FindPoint(lo, hi, p)
}

// WindowQuery implements index.Index (exact): either the recursive
// Z-range decomposition or the BIGMIN skip-scan, per configuration.
func (ix *Index) WindowQuery(win geo.Rect) []geo.Point {
	return ix.WindowQueryAppend(win, nil)
}

// WindowQueryAppend implements index.WindowAppender: matches are
// appended to out, so steady-state window queries allocate only for
// the result slice's own growth.
//
//elsi:noalloc
func (ix *Index) WindowQueryAppend(win geo.Rect, out []geo.Point) []geo.Point {
	if ix.cfg.UseBigMin {
		return ix.WindowQueryBigMinAppend(win, out)
	}
	return ix.WindowQueryZRangesAppend(win, out)
}

// zrangeBufPool recycles Z-range decomposition buffers across window
// queries (any index instance; the ranges are recomputed per call).
var zrangeBufPool = sync.Pool{New: func() interface{} { return new([]curve.KeyRange) }}

// WindowQueryZRanges answers a window query by cutting the window into
// Z-ranges; each range's boundaries are located with a model-seeded
// exponential search (exact).
func (ix *Index) WindowQueryZRanges(win geo.Rect) []geo.Point {
	return ix.WindowQueryZRangesAppend(win, nil)
}

// WindowQueryZRangesAppend is WindowQueryZRanges appending into out,
// with the Z-range buffer drawn from a pool.
//
//elsi:noalloc
func (ix *Index) WindowQueryZRangesAppend(win geo.Rect, out []geo.Point) []geo.Point {
	if ix.st == nil || ix.st.Len() == 0 {
		return out
	}
	buf := zrangeBufPool.Get().(*[]curve.KeyRange)
	rs := curve.ZRangesAppend(win, ix.cfg.Space, ix.cfg.MaxZDepth, (*buf)[:0])
	for _, r := range rs {
		loKey := float64(r.Lo)
		hiKey := float64(r.Hi)
		lo := ix.st.FirstGE(loKey, ix.predictRank(loKey))
		hi := ix.st.FirstGT(hiKey, ix.predictRank(hiKey))
		out = ix.st.CollectWindow(lo, hi, win, out)
	}
	*buf = rs[:0]
	zrangeBufPool.Put(buf)
	return out
}

// WindowQueryBigMin answers a window query with the Tropf-Herzog
// skip-scan (exact): scan the corner-key range in storage order and,
// whenever a stored key's cell falls outside the window's cell box,
// jump directly to BIGMIN — the next key that can be inside — instead
// of filtering through the out-of-window run.
func (ix *Index) WindowQueryBigMin(win geo.Rect) []geo.Point {
	return ix.WindowQueryBigMinAppend(win, nil)
}

// WindowQueryBigMinAppend is WindowQueryBigMin appending into out. The
// skip-scan streams the dense key column directly.
//
//elsi:noalloc
func (ix *Index) WindowQueryBigMinAppend(win geo.Rect, out []geo.Point) []geo.Point {
	if ix.st == nil || ix.st.Len() == 0 {
		return out
	}
	clip := win.Intersection(ix.cfg.Space)
	if clip.IsEmpty() {
		return out
	}
	zmin := curve.ZEncode(geo.Point{X: clip.MinX, Y: clip.MinY}, ix.cfg.Space)
	zmax := curve.ZEncode(geo.Point{X: clip.MaxX, Y: clip.MaxY}, ix.cfg.Space)
	pos := ix.st.FirstGE(float64(zmin), ix.predictRank(float64(zmin)))
	n := ix.st.Len()
	for pos < n {
		key := uint64(ix.st.KeyAt(pos))
		if key > zmax {
			break
		}
		if curve.ZCellInBox(key, zmin, zmax) {
			if p := ix.st.PointAt(pos); win.Contains(p) {
				out = append(out, p)
			}
			pos++
			continue
		}
		next := curve.BigMin(key, zmin, zmax)
		if next > zmax {
			break
		}
		pos = ix.st.FirstGE(float64(next), pos)
	}
	return out
}

// KNN implements index.Index by repeatedly widening a window around q
// until the k-th nearest candidate is closer than the window radius,
// which makes the result exact given the exact window query.
func (ix *Index) KNN(q geo.Point, k int) []geo.Point {
	return WindowKNN(ix, ix.cfg.Space, ix.Len(), q, k)
}

// KNNAppend implements index.KNNAppender through the shared expanding-
// window helper's append path.
//
//elsi:noalloc
func (ix *Index) KNNAppend(q geo.Point, k int, out []geo.Point) []geo.Point {
	return WindowKNNAppend(ix, ix.cfg.Space, ix.Len(), q, k, out)
}

// Stats returns the per-model build statistics of the last Build.
func (ix *Index) Stats() []base.BuildStats { return ix.stats }

// ModelInvocations returns the number of model invocations since
// construction (the M(1) count of the cost analysis).
func (ix *Index) ModelInvocations() int64 { return ix.invocations.Load() }

// Scanned returns the cumulative number of entries scanned.
func (ix *Index) Scanned() int64 {
	if ix.st == nil {
		return 0
	}
	return ix.st.Scanned()
}

// ResetCounters zeroes the invocation and scan counters.
func (ix *Index) ResetCounters() {
	ix.invocations.Store(0)
	if ix.st != nil {
		ix.st.ResetScanned()
	}
}

// windowQuerier is the subset of index behaviour WindowKNN needs.
type windowQuerier interface {
	WindowQuery(win geo.Rect) []geo.Point
}

// WindowAppender is the subset WindowKNNAppend needs (satisfied by the
// learned indices' WindowQueryAppend methods).
type WindowAppender interface {
	WindowQueryAppend(win geo.Rect, out []geo.Point) []geo.Point
}

// WindowKNN is the shared kNN-by-expanding-window strategy the learned
// indices use ("the learned indices use window queries as the basis
// for kNN queries", Section VII-G3). It starts from a radius estimated
// from the data density and doubles it until k in-radius candidates
// are found or the window covers the space.
func WindowKNN(ix windowQuerier, space geo.Rect, n int, q geo.Point, k int) []geo.Point {
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	// initial radius: expected side enclosing ~4k points under a
	// uniform assumption
	r := math.Sqrt(float64(4*k) / float64(n) * space.Area() / math.Pi)
	if r <= 0 {
		r = 0.01
	}
	maxR := math.Max(space.Width(), space.Height()) * 1.5
	for {
		win := geo.Rect{MinX: q.X - r, MinY: q.Y - r, MaxX: q.X + r, MaxY: q.Y + r}
		cand := ix.WindowQuery(win)
		if len(cand) >= k {
			best := NearestK(cand, q, k)
			if best[k-1].Dist(q) <= r || r >= maxR {
				return best
			}
		} else if r >= maxR {
			return NearestK(cand, q, min(k, len(cand)))
		}
		r *= 2
	}
}

// knnScratch holds one expanding-window search's reusable buffers: the
// window candidates and the selected k-best.
type knnScratch struct {
	cand []geo.Point
	sel  []geo.Point
}

var knnScratchPool = sync.Pool{New: func() interface{} { return new(knnScratch) }}

// WindowKNNAppend is WindowKNN appending the k results to out, with
// all intermediate buffers (window candidates, selection scratch)
// pooled. It returns exactly the same points in the same order as
// WindowKNN.
//
//elsi:noalloc
func WindowKNNAppend(ix WindowAppender, space geo.Rect, n int, q geo.Point, k int, out []geo.Point) []geo.Point {
	if k <= 0 || n == 0 {
		return out
	}
	if k > n {
		k = n
	}
	s := knnScratchPool.Get().(*knnScratch)
	r := math.Sqrt(float64(4*k) / float64(n) * space.Area() / math.Pi)
	if r <= 0 {
		r = 0.01
	}
	maxR := math.Max(space.Width(), space.Height()) * 1.5
	for {
		win := geo.Rect{MinX: q.X - r, MinY: q.Y - r, MaxX: q.X + r, MaxY: q.Y + r}
		s.cand = ix.WindowQueryAppend(win, s.cand[:0])
		if len(s.cand) >= k {
			s.sel = NearestKAppend(s.cand, q, k, s.sel[:0])
			if s.sel[k-1].Dist(q) <= r || r >= maxR {
				out = append(out, s.sel...)
				knnScratchPool.Put(s)
				return out
			}
		} else if r >= maxR {
			s.sel = NearestKAppend(s.cand, q, min(k, len(s.cand)), s.sel[:0])
			out = append(out, s.sel...)
			knnScratchPool.Put(s)
			return out
		}
		r *= 2
	}
}

// pointDist pairs a candidate with its squared distance to the query.
type pointDist struct {
	p geo.Point
	d float64
}

var pdPool = sync.Pool{New: func() interface{} { return new([]pointDist) }}

// NearestK returns the k nearest of cand to q, sorted by distance. It
// is shared by the learned indices' expanding-window query paths.
func NearestK(cand []geo.Point, q geo.Point, k int) []geo.Point {
	if k > len(cand) {
		k = len(cand)
	}
	if k == 0 {
		return nil
	}
	return NearestKAppend(cand, q, k, make([]geo.Point, 0, k))
}

// NearestKAppend is NearestK appending into out, with the selection
// scratch pooled; in steady state it allocates only for out's growth.
//
//elsi:noalloc
func NearestKAppend(cand []geo.Point, q geo.Point, k int, out []geo.Point) []geo.Point {
	if k > len(cand) {
		k = len(cand)
	}
	if k == 0 {
		return out
	}
	// partial selection via the shared KNNScan would import index;
	// select inline instead (candidate sets are small).
	buf := pdPool.Get().(*[]pointDist)
	ps := (*buf)[:0]
	for _, p := range cand {
		ps = append(ps, pointDist{p, p.Dist2(q)})
	}
	for i := 0; i < k; i++ {
		minJ := i
		for j := i + 1; j < len(ps); j++ {
			if ps[j].d < ps[minJ].d {
				minJ = j
			}
		}
		ps[i], ps[minJ] = ps[minJ], ps[i]
	}
	for i := 0; i < k; i++ {
		out = append(out, ps[i].p)
	}
	*buf = ps[:0]
	pdPool.Put(buf)
	return out
}
