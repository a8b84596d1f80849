// Package mlindex implements the ML-Index (Davitkova et al. 2020): the
// iDistance technique maps each point to refID*C + dist(point, ref),
// where ref is the nearest of a set of reference points derived from
// the data, and a learned model indexes the mapped keys. Point,
// window, and kNN queries are exact ("By design, ML offers accurate
// results", Section VII-G2): window queries scan one key annulus per
// reference point, kNN queries grow a search radius iDistance-style.
package mlindex

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"elsi/internal/base"
	"elsi/internal/geo"
	"elsi/internal/methods"
	"elsi/internal/rmi"
	"elsi/internal/store"
	"elsi/internal/zm"
)

// stride (the iDistance constant C) separates the key intervals of the
// reference points; it must exceed any possible point-to-reference
// distance. The unit square's diameter is sqrt(2).
const stride = 4.0

// Config controls index construction.
type Config struct {
	Space geo.Rect
	// Builder builds each index model (OG or ELSI).
	Builder base.ModelBuilder
	// Refs is the number of iDistance reference points (default 16).
	Refs int
	// Fanout is the number of second-stage models (default 1).
	Fanout int
	// RootTrainer dispatches across leaf models when Fanout > 1.
	RootTrainer rmi.Trainer
	// Seed drives the reference-point clustering.
	Seed int64
	// SampleForRefs caps the sample used to derive reference points.
	SampleForRefs int
	// Workers bounds the parallel build stages — iDistance key mapping,
	// sorting, and concurrent leaf-model builds (0 = GOMAXPROCS, 1 =
	// serial). Builds are bit-identical across worker counts.
	Workers int
	// BuildTimeout, when positive, bounds each Build call: BuildCtx
	// runs under a context that expires after it, and the build
	// returns the context error. Zero means unbounded.
	BuildTimeout time.Duration
}

// Index is the ML-Index.
type Index struct {
	cfg         Config
	refs        []geo.Point
	st          *store.Sorted
	staged      *rmi.Staged
	single      *rmi.Bounded
	stats       []base.BuildStats
	invocations atomic.Int64
}

// New returns an unbuilt ML-Index.
func New(cfg Config) *Index {
	if cfg.Refs <= 0 {
		cfg.Refs = 16
	}
	if cfg.Fanout < 1 {
		cfg.Fanout = 1
	}
	if cfg.RootTrainer == nil {
		cfg.RootTrainer = rmi.PiecewiseTrainer(1.0 / 1024)
	}
	if cfg.SampleForRefs <= 0 {
		cfg.SampleForRefs = 5000
	}
	return &Index{cfg: cfg}
}

// Name implements index.Index.
func (ix *Index) Name() string { return "ML" }

// Len implements index.Index.
func (ix *Index) Len() int {
	if ix.st == nil {
		return 0
	}
	return ix.st.Len()
}

// refFor returns the nearest reference point's id and distance.
//
//elsi:noalloc
func (ix *Index) refFor(p geo.Point) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for i, r := range ix.refs {
		if d := p.Dist2(r); d < bestD {
			best, bestD = i, d
		}
	}
	return best, math.Sqrt(bestD)
}

// MapKey is the iDistance mapping.
//
//elsi:noalloc
func (ix *Index) MapKey(p geo.Point) float64 {
	id, d := ix.refFor(p)
	return float64(id)*stride + d
}

// Build implements index.Index. It runs BuildCtx under a background
// context, bounded by Config.BuildTimeout when set.
func (ix *Index) Build(pts []geo.Point) error {
	return ix.BuildCtx(context.Background(), pts)
}

// BuildCtx is Build with cooperative cancellation: the build aborts
// between stages when ctx is done (or the per-build timeout expires)
// and returns the context's error. A failed build leaves the index
// unusable; callers must discard it or rebuild.
func (ix *Index) BuildCtx(ctx context.Context, pts []geo.Point) error {
	if err := base.ValidatePoints(pts); err != nil {
		return err
	}
	if ix.cfg.BuildTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ix.cfg.BuildTimeout)
		defer cancel()
	}
	ix.stats = ix.stats[:0]
	// reference points: k-means centers over a sample of the data
	sample := pts
	if len(sample) > ix.cfg.SampleForRefs {
		step := len(sample) / ix.cfg.SampleForRefs
		reduced := make([]geo.Point, 0, ix.cfg.SampleForRefs+1)
		for i := 0; i < len(sample); i += step {
			reduced = append(reduced, sample[i])
		}
		sample = reduced
	}
	if len(sample) == 0 {
		ix.refs = []geo.Point{ix.cfg.Space.Center()}
	} else {
		refs, err := methods.KMeans(ctx, sample, ix.cfg.Refs, 10, ix.cfg.Seed)
		if err != nil {
			return err
		}
		ix.refs = refs
	}
	d := base.PrepareWorkers(pts, ix.cfg.Space, ix.MapKey, ix.cfg.Workers)
	// The prepared columns are already sorted and owned by this build;
	// the store adopts them without the former per-build entry copy.
	ix.st = store.NewSortedColumns(d.Keys, d.Pts)
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
	// As in zm: collect leaf stats keyed by partition start, re-emit in
	// partition order so the report is worker-count-independent.
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
	n := len(d.Keys)
	for i := 0; i < ix.cfg.Fanout; i++ {
		start, end := i*n/ix.cfg.Fanout, (i+1)*n/ix.cfg.Fanout
		if end > start {
			ix.stats = append(ix.stats, statsByStart[start])
		}
	}
	return nil
}

//elsi:noalloc
func (ix *Index) searchRange(key float64) (int, int) {
	ix.invocations.Add(1)
	if ix.staged != nil {
		return ix.staged.SearchRangeWide(key)
	}
	return ix.single.SearchRange(key)
}

//elsi:noalloc
func (ix *Index) predictRank(key float64) int {
	ix.invocations.Add(1)
	if ix.staged != nil {
		lo, hi := ix.staged.SearchRange(key)
		return (lo + hi) / 2
	}
	return ix.single.PredictRank(key)
}

// PointQuery implements index.Index.
//
//elsi:noalloc
func (ix *Index) PointQuery(p geo.Point) bool {
	if ix.st == nil || ix.st.Len() == 0 {
		return false
	}
	lo, hi := ix.searchRange(ix.MapKey(p))
	return ix.st.FindPoint(lo, hi, p)
}

// WindowQuery implements index.Index (exact). For each reference
// point, every point of its partition lying in win has a distance to
// the reference inside [minDist(ref, win), maxDist(ref, win)], so the
// corresponding key annulus is scanned and filtered.
func (ix *Index) WindowQuery(win geo.Rect) []geo.Point {
	return ix.WindowQueryAppend(win, nil)
}

// WindowQueryAppend implements index.WindowAppender.
//
//elsi:noalloc
func (ix *Index) WindowQueryAppend(win geo.Rect, out []geo.Point) []geo.Point {
	if ix.st == nil || ix.st.Len() == 0 {
		return out
	}
	for id, ref := range ix.refs {
		dMin := math.Sqrt(win.Dist2(ref))
		dMax := maxDistToRect(ref, win)
		loKey := float64(id)*stride + dMin
		hiKey := float64(id)*stride + dMax
		lo := ix.st.FirstGE(loKey, ix.predictRank(loKey))
		hi := ix.st.FirstGT(hiKey, ix.predictRank(hiKey))
		out = ix.st.CollectWindow(lo, hi, win, out)
	}
	return out
}

// maxDistToRect returns the maximum distance from p to any point of r
// (attained at a corner).
//
//elsi:noalloc
func maxDistToRect(p geo.Point, r geo.Rect) float64 {
	d2 := 0.0
	for _, c := range [4]geo.Point{
		{X: r.MinX, Y: r.MinY}, {X: r.MinX, Y: r.MaxY},
		{X: r.MaxX, Y: r.MinY}, {X: r.MaxX, Y: r.MaxY},
	} {
		if d := p.Dist2(c); d > d2 {
			d2 = d
		}
	}
	return math.Sqrt(d2)
}

// KNN implements index.Index with the iDistance radius search: grow r,
// scan the key annulus [d(q,ref)-r, d(q,ref)+r] of each reference
// partition, and stop once the k-th candidate lies within r.
func (ix *Index) KNN(q geo.Point, k int) []geo.Point {
	if ix.st == nil || k <= 0 || ix.st.Len() == 0 {
		return nil
	}
	return ix.KNNAppend(q, k, nil)
}

// knnScratch holds one radius search's reusable buffers.
type knnScratch struct {
	cand []geo.Point
	sel  []geo.Point
}

var knnScratchPool = sync.Pool{New: func() interface{} { return new(knnScratch) }}

// KNNAppend implements index.KNNAppender: the iDistance radius search
// with pooled candidate and selection buffers, appending the k results
// to out. Annulus candidates are gathered with the closure-free
// CollectRange kernel.
//
//elsi:noalloc
func (ix *Index) KNNAppend(q geo.Point, k int, out []geo.Point) []geo.Point {
	if ix.st == nil || k <= 0 || ix.st.Len() == 0 {
		return out
	}
	n := ix.st.Len()
	if k > n {
		k = n
	}
	s := knnScratchPool.Get().(*knnScratch)
	r := math.Sqrt(float64(4*k)/float64(n)*ix.cfg.Space.Area()) / 2
	if r <= 0 {
		r = 0.01
	}
	maxR := stride / 2
	for {
		s.cand = s.cand[:0]
		for id, ref := range ix.refs {
			dq := q.Dist(ref)
			loKey := float64(id)*stride + math.Max(0, dq-r)
			hiKey := float64(id)*stride + dq + r
			lo := ix.st.FirstGE(loKey, ix.predictRank(loKey))
			hi := ix.st.FirstGT(hiKey, ix.predictRank(hiKey))
			s.cand = ix.st.CollectRange(lo, hi, s.cand)
		}
		if len(s.cand) >= k {
			s.sel = zm.NearestKAppend(s.cand, q, k, s.sel[:0])
			if s.sel[k-1].Dist(q) <= r || r >= maxR {
				out = append(out, s.sel...)
				knnScratchPool.Put(s)
				return out
			}
		} else if r >= maxR {
			s.sel = zm.NearestKAppend(s.cand, q, len(s.cand), s.sel[:0])
			out = append(out, s.sel...)
			knnScratchPool.Put(s)
			return out
		}
		r *= 2
	}
}

// Stats returns per-model build statistics.
func (ix *Index) Stats() []base.BuildStats { return ix.stats }

// ModelInvocations returns the model-invocation count.
func (ix *Index) ModelInvocations() int64 { return ix.invocations.Load() }

// Scanned returns cumulative scanned entries.
func (ix *Index) Scanned() int64 {
	if ix.st == nil {
		return 0
	}
	return ix.st.Scanned()
}

// ResetCounters zeroes the counters.
func (ix *Index) ResetCounters() {
	ix.invocations.Store(0)
	if ix.st != nil {
		ix.st.ResetScanned()
	}
}

// Refs exposes the reference points (read-only; used by tests).
func (ix *Index) Refs() []geo.Point { return ix.refs }
