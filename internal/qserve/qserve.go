// Package qserve is the batched parallel query engine: it shards
// batches of point, window, and kNN queries across workers and writes
// each answer at the input position of its query, so the output order
// is the input order and the results are identical for every worker
// count (including 1). Each worker reuses the caller-provided result
// buffers in place — with append-capable sources (every index family
// and the rebuild processor) a warmed-up batch performs no per-query
// allocations.
//
// The engine adds no synchronization of its own: queries within a
// batch run concurrently against the source, which must therefore be
// safe for concurrent readers. All in-repo indices are, and
// rebuild.Processor serializes each query against concurrent updates
// and background rebuilds with its own read lock — so each query in a
// batch sees a consistent snapshot, though a concurrent writer may
// advance the state between two queries of the same batch (exactly as
// it may between two serial queries).
package qserve

import (
	"elsi/internal/geo"
	"elsi/internal/parallel"
)

// Source is the queryable surface the engine serves. Every index
// family and rebuild.Processor implement it.
type Source interface {
	PointQuery(p geo.Point) bool
	WindowQuery(win geo.Rect) []geo.Point
	KNN(q geo.Point, k int) []geo.Point
}

// windowAppender and knnAppender mirror the index package's appender
// interfaces; declared locally so qserve serves rebuild.Processor (not
// an index.Index) through the same zero-allocation fast paths.
type windowAppender interface {
	WindowQueryAppend(win geo.Rect, out []geo.Point) []geo.Point
}

type knnAppender interface {
	KNNAppend(q geo.Point, k int, out []geo.Point) []geo.Point
}

// Engine shards query batches over a fixed source.
type Engine struct {
	src     Source
	wa      windowAppender // nil when src has no append path
	ka      knnAppender    // nil when src has no append path
	workers int
}

// New returns an engine over src with the given worker bound
// (0 = GOMAXPROCS, 1 = serial). Results are identical for every
// worker count.
func New(src Source, workers int) *Engine {
	e := &Engine{src: src, workers: workers}
	e.wa, _ = src.(windowAppender)
	e.ka, _ = src.(knnAppender)
	return e
}

// shard splits [0, n) into one contiguous chunk per worker and runs
// fn over the chunks concurrently. Unlike parallel.For it has no
// minimum chunk size: query batches are worth sharding at far smaller
// sizes than the build pipeline's array passes, because each element
// is a full index probe rather than a few float operations.
func (e *Engine) shard(n int, fn func(lo, hi int)) {
	w := parallel.Resolve(e.workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	fns := make([]func(), w)
	for c := 0; c < w; c++ {
		lo, hi := c*n/w, (c+1)*n/w
		fns[c] = func() { fn(lo, hi) }
	}
	parallel.Do(fns...)
}

// PointBatch answers pts[i] into out[i], growing out to len(pts) and
// returning it. A caller-reused out makes the batch allocation-free.
func (e *Engine) PointBatch(pts []geo.Point, out []bool) []bool {
	out = GrowBools(out, len(pts))
	e.shard(len(pts), func(lo, hi int) { e.pointSpan(pts, out, lo, hi) })
	return out
}

// pointSpan answers pts[lo:hi] into out[lo:hi] — the per-worker kernel
// of PointBatch. All per-query work lives here so the enforced no-
// allocation surface covers everything that runs len(batch) times; the
// shard closure above it runs once per worker.
//
//elsi:noalloc
func (e *Engine) pointSpan(pts []geo.Point, out []bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = e.src.PointQuery(pts[i])
	}
}

// WindowBatch answers wins[i] into out[i], reusing each out[i]'s
// backing array, growing out to len(wins), and returning it. The
// answers match serial WindowQuery calls element for element.
func (e *Engine) WindowBatch(wins []geo.Rect, out [][]geo.Point) [][]geo.Point {
	out = GrowSlices(out, len(wins))
	e.shard(len(wins), func(lo, hi int) { e.windowSpan(wins, out, lo, hi) })
	return out
}

// windowSpan is WindowBatch's per-worker kernel.
//
//elsi:noalloc
func (e *Engine) windowSpan(wins []geo.Rect, out [][]geo.Point, lo, hi int) {
	for i := lo; i < hi; i++ {
		if e.wa != nil {
			out[i] = e.wa.WindowQueryAppend(wins[i], out[i][:0])
		} else {
			out[i] = append(out[i][:0], e.src.WindowQuery(wins[i])...)
		}
	}
}

// KNNVarBatch answers the ks[i] nearest neighbors of qs[i] into
// out[i], reusing each out[i]'s backing array, growing out to len(qs),
// and returning it. len(ks) must equal len(qs). The answers match
// serial KNN calls element for element.
// A non-positive ks[i] yields an empty answer, exactly like the serial
// paths. The serving layer funnels concurrently arriving kNN requests
// — which carry their own k each — through this entry point.
func (e *Engine) KNNVarBatch(qs []geo.Point, ks []int, out [][]geo.Point) [][]geo.Point {
	if len(ks) != len(qs) {
		panic("qserve: KNNVarBatch len(ks) != len(qs)")
	}
	out = GrowSlices(out, len(qs))
	e.shard(len(qs), func(lo, hi int) { e.knnSpan(qs, ks, out, lo, hi) })
	return out
}

// knnSpan is KNNVarBatch's per-worker kernel.
//
//elsi:noalloc
func (e *Engine) knnSpan(qs []geo.Point, ks []int, out [][]geo.Point, lo, hi int) {
	for i := lo; i < hi; i++ {
		if e.ka != nil {
			out[i] = e.ka.KNNAppend(qs[i], ks[i], out[i][:0])
		} else {
			out[i] = append(out[i][:0], e.src.KNN(qs[i], ks[i])...)
		}
	}
}

// GrowBools returns out resized to n, reallocating only when the
// capacity is short.
func GrowBools(out []bool, n int) []bool {
	if cap(out) < n {
		next := make([]bool, n)
		copy(next, out)
		return next
	}
	return out[:n]
}

// GrowSlices returns out resized to n, keeping the per-element result
// buffers already allocated in earlier batches.
func GrowSlices(out [][]geo.Point, n int) [][]geo.Point {
	if cap(out) < n {
		next := make([][]geo.Point, n)
		copy(next, out)
		return next
	}
	return out[:n]
}
