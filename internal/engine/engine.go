// Package engine is the transport-agnostic serving facade over the
// update processor (rebuild.Processor) and the batched query engine
// (qserve). Network handlers — HTTP, the binary TCP protocol, or an
// in-process client — call its per-request methods concurrently; the
// engine funnels concurrently arriving queries of the same kind into
// one qserve batch via a small accumulator that flushes when the
// batch fills or a deadline expires, whichever comes first. Updates
// go straight to the processor (its write lock serializes them; there
// is nothing to amortize).
//
// The engine also owns the serving-side operational concerns the
// transports share: admission control (a bounded in-flight request
// count; excess requests are rejected with ErrOverloaded rather than
// queued without bound), graceful shutdown (Close rejects new
// requests, flushes the accumulated batches, and waits for every
// admitted request to finish), and a Stats snapshot combining the
// processor's rebuild/fault counters with the serve-side ones.
package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"elsi/internal/base"
	"elsi/internal/core"
	"elsi/internal/faults"
	"elsi/internal/geo"
	"elsi/internal/qcache"
)

func init() {
	faults.Register("qcache/invalidate", "advisory cache drop after an update (losing it leaves invalidation to the generation check)")
}

// ErrOverloaded rejects a request when the bounded in-flight count is
// exhausted. Transports map it to their backpressure signal (HTTP 429,
// the protocol's overloaded status byte); clients may retry later.
var ErrOverloaded = errors.New("engine: overloaded")

// ErrClosed rejects requests arriving after Close began.
var ErrClosed = errors.New("engine: closed")

// Config sizes the engine. The zero value selects the defaults.
type Config struct {
	// Workers bounds the qserve worker count per batch
	// (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// MaxBatch flushes an accumulating batch when it reaches this many
	// queries (default 64).
	MaxBatch int
	// FlushInterval flushes a non-empty batch this long after its
	// first query arrived (default 200µs), bounding the latency cost
	// of batching under low concurrency.
	FlushInterval time.Duration
	// MaxInFlight bounds the admitted-but-unfinished request count
	// across all operations (default 4096). Beyond it, requests fail
	// with ErrOverloaded.
	MaxInFlight int
	// Cache, when non-nil, enables the hot-region result cache for
	// point and small-window queries (see qcache): hits are answered
	// before the batching accumulator, turning repeated reads on
	// skewed traffic into nanosecond lookups. Invalidation is by the
	// backend's update generations — stale entries are never served.
	// The zero qcache.Config selects its defaults.
	Cache *qcache.Config
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 200 * time.Microsecond
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4096
	}
	return c
}

// knnReq carries one kNN request through the accumulator: unlike
// points and windows, each kNN query brings its own k.
type knnReq struct {
	q geo.Point
	k int
}

// Engine is the serving facade. All methods are safe for concurrent
// use. Create with New or NewWithBackend; the zero value is not
// usable.
type Engine struct {
	be  Backend
	sys *core.System // optional: selector counters for Stats
	cfg Config

	cache *qcache.Cache // nil = caching off

	// mu guards admission state and the accumulators. It is a leaf
	// lock on the engine's fast path: enqueue and flush release it
	// before blocking on batch results or downstream locks.
	//
	//elsi:lockorder
	mu       sync.Mutex
	closed   bool
	inFlight int
	wg       sync.WaitGroup // one unit per admitted request

	// Lock-free mirrors of the admission/accumulator gauges, written
	// under mu and read by Stats, so /stats polling never contends
	// with the flush path (scraping under load used to show up as
	// p999 spikes).
	inFlightA atomic.Int64
	closedA   atomic.Bool

	points  acc[geo.Point, bool]
	windows acc[geo.Rect, []geo.Point]
	knns    acc[knnReq, []geo.Point]

	// serve counters (monotonic; read without the lock by Stats)
	cPoints, cWindows, cKNNs  atomic.Int64
	cInserts, cDeletes        atomic.Int64
	cBatches, cBatchedQueries atomic.Int64
	cFlushSize, cFlushTimer   atomic.Int64
	cFlushClose               atomic.Int64
	cOverloads                atomic.Int64
}

// NewWithBackend serves an arbitrary backend — a Single processor or
// the sharded router — behind the same accumulator and admission
// machinery.
func NewWithBackend(be Backend, sys *core.System, cfg Config) *Engine {
	e := &Engine{be: be, sys: sys, cfg: cfg.withDefaults()}
	if cfg.Cache != nil {
		e.cache = qcache.New(*cfg.Cache)
	}
	e.points.init(e, func(qs []geo.Point) []bool { return e.be.PointBatch(qs, nil) })
	e.windows.init(e, func(qs []geo.Rect) [][]geo.Point { return e.be.WindowBatch(qs, nil) })
	e.knns.init(e, func(reqs []knnReq) [][]geo.Point {
		qs := make([]geo.Point, len(reqs))
		ks := make([]int, len(reqs))
		for i, r := range reqs {
			qs[i], ks[i] = r.q, r.k
		}
		return e.be.KNNVarBatch(qs, ks, nil)
	})
	return e
}

// --- admission ----------------------------------------------------------

// admit reserves an in-flight slot. Every admitted request must call
// release exactly once. Admission and Close share the mutex, so after
// Close marks the engine closed no request can add to the WaitGroup it
// is about to wait on.
func (e *Engine) admit() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if e.inFlight >= e.cfg.MaxInFlight {
		e.cOverloads.Add(1)
		return ErrOverloaded
	}
	e.inFlight++
	e.inFlightA.Store(int64(e.inFlight))
	e.wg.Add(1)
	return nil
}

func (e *Engine) release() {
	e.mu.Lock()
	e.inFlight--
	e.inFlightA.Store(int64(e.inFlight))
	e.mu.Unlock()
	e.wg.Done()
}

// --- queries ------------------------------------------------------------

// PointQuery reports whether pt is currently stored.
//
// With the result cache on, the lookup happens before the batching
// accumulator: a hit costs two atomic loads and one shard read-lock
// instead of a batch round-trip. The generation is read BEFORE the
// uncached answer is computed, so a mutation racing the fill only ever
// invalidates the entry (see qcache's package comment).
func (e *Engine) PointQuery(pt geo.Point) (bool, error) {
	if err := e.admit(); err != nil {
		return false, err
	}
	defer e.release()
	e.cPoints.Add(1)
	if e.cache == nil {
		return e.points.enqueue(pt), nil
	}
	k := qcache.PointKey(pt)
	gen := e.be.PointGen(pt)
	if v, ok := e.cache.GetPoint(k, gen); ok {
		return v, nil
	}
	v := e.points.enqueue(pt)
	e.cache.PutPoint(k, gen, v)
	return v, nil
}

// WindowQuery returns the points inside win. The returned slice is
// owned by the caller.
//
// Small windows (qcache.Config.MaxWindowArea) go through the result
// cache; their entries are stamped with the backend's global
// generation, so any update anywhere invalidates them — coarser than
// the per-shard point stamps, but window keys cannot name their owning
// shards without decomposing the window on every lookup.
func (e *Engine) WindowQuery(win geo.Rect) ([]geo.Point, error) {
	if err := e.admit(); err != nil {
		return nil, err
	}
	defer e.release()
	e.cWindows.Add(1)
	if e.cache == nil || !e.cache.Cacheable(win) {
		return e.windows.enqueue(win), nil
	}
	k := qcache.WindowKey(win)
	gen := e.be.GlobalGen()
	if out, ok := e.cache.GetWindowAppend(k, gen, nil); ok {
		return out, nil
	}
	res := e.windows.enqueue(win)
	e.cache.PutWindow(k, gen, res)
	return res, nil
}

// KNN returns the k nearest stored points to q (fewer when fewer are
// stored, none for k <= 0). The returned slice is owned by the caller.
func (e *Engine) KNN(q geo.Point, k int) ([]geo.Point, error) {
	if err := e.admit(); err != nil {
		return nil, err
	}
	defer e.release()
	e.cKNNs.Add(1)
	return e.knns.enqueue(knnReq{q: q, k: k}), nil
}

// --- updates ------------------------------------------------------------

// Insert adds pt (a no-op if it is already stored; the processor keeps
// set semantics). It reports whether the update triggered a rebuild.
func (e *Engine) Insert(pt geo.Point) (bool, error) {
	if err := e.admit(); err != nil {
		return false, err
	}
	defer e.release()
	e.cInserts.Add(1)
	reb := e.be.Insert(pt)
	e.dropCached(pt)
	return reb, nil
}

// dropCached eagerly frees the cache slot of a just-updated point.
// Advisory only — the generation bump that happened inside the backend
// already makes any entry for pt unservable, so the injected loss of
// this signal ("qcache/invalidate") must never produce a stale read;
// the chaos suite asserts exactly that.
func (e *Engine) dropCached(pt geo.Point) {
	if e.cache == nil {
		return
	}
	if err := faults.Hit("qcache/invalidate"); err != nil {
		return // invalidation signal dropped/delayed: generations cover us
	}
	e.cache.Drop(qcache.PointKey(pt))
}

// Delete removes pt by value. It reports whether the update triggered
// a rebuild.
func (e *Engine) Delete(pt geo.Point) (bool, error) {
	if err := e.admit(); err != nil {
		return false, err
	}
	defer e.release()
	e.cDeletes.Add(1)
	reb := e.be.Delete(pt)
	e.dropCached(pt)
	return reb, nil
}

// --- shutdown -----------------------------------------------------------

// Close drains the engine: new requests are rejected with ErrClosed,
// the batches accumulated so far are flushed immediately, and Close
// blocks until every admitted request has finished. Safe to call more
// than once. The underlying processor stays usable (a background
// rebuild in flight is not interrupted — callers that need it settled
// use Processor().WaitRebuild()).
func (e *Engine) Close() {
	e.mu.Lock()
	already := e.closed
	e.closed = true
	e.closedA.Store(true)
	pb := e.points.detachLocked()
	wb := e.windows.detachLocked()
	kb := e.knns.detachLocked()
	e.mu.Unlock()
	if !already {
		for _, flushed := range []bool{e.points.runIf(pb), e.windows.runIf(wb), e.knns.runIf(kb)} {
			if flushed {
				e.cFlushClose.Add(1)
			}
		}
	}
	e.wg.Wait()
}

// --- stats --------------------------------------------------------------

// Stats is a point-in-time snapshot of the engine and the processor
// behind it, shaped for a /stats endpoint (JSON-encodable).
type Stats struct {
	// index/data state
	Len                 int  // stored points
	PendingUpdates      int  // delta records across both layers
	Rebuilding          bool // background rebuild in flight
	Rebuilds            int  // completed full rebuilds
	RebuildFailures     int
	RebuildRetries      int
	ConsecutiveFailures int
	BreakerOpen         bool

	// request counters
	PointQueries  int64
	WindowQueries int64
	KNNQueries    int64
	Inserts       int64
	Deletes       int64

	// batching behaviour
	Batches        int64 // qserve batches executed
	BatchedQueries int64 // queries carried by those batches
	FlushBySize    int64 // batches flushed because they filled
	FlushByTimer   int64 // batches flushed by the deadline
	FlushByClose   int64 // batches flushed during Close
	Queued         int   // queries sitting in accumulators right now
	InFlight       int   // admitted, unfinished requests
	Overloads      int64 // requests rejected with ErrOverloaded
	Closed         bool

	// model-build cost decomposition of the current index, when the
	// family records it (ZM, MLI, LISA, RSMI)
	BuildStats []base.BuildStats `json:",omitempty"`
	// selector counters, when the engine was given a core.System
	Selections map[string]int `json:",omitempty"`
	Fallbacks  map[string]int `json:",omitempty"`

	// result cache counters, when the cache is enabled
	Cache *qcache.Stats `json:",omitempty"`

	// per-shard breakdown: one entry for a Single backend, one per
	// shard for the sharded router (including its scatter/prune
	// counters)
	Shards []ShardStats `json:",omitempty"`
}

// Stats snapshots the counters. It is safe to call while requests are
// blocked inside queries, and takes no engine lock at all: every gauge
// has a lock-free mirror, so a /stats scrape never contends with the
// admission or accumulator-flush paths (the mutex here was visible as
// p999 spikes when polling during load).
func (e *Engine) Stats() Stats {
	st := Stats{
		Queued:   int(e.points.queued.Load() + e.windows.queued.Load() + e.knns.queued.Load()),
		InFlight: int(e.inFlightA.Load()),
		Closed:   e.closedA.Load(),
	}

	st.PointQueries = e.cPoints.Load()
	st.WindowQueries = e.cWindows.Load()
	st.KNNQueries = e.cKNNs.Load()
	st.Inserts = e.cInserts.Load()
	st.Deletes = e.cDeletes.Load()
	st.Batches = e.cBatches.Load()
	st.BatchedQueries = e.cBatchedQueries.Load()
	st.FlushBySize = e.cFlushSize.Load()
	st.FlushByTimer = e.cFlushTimer.Load()
	st.FlushByClose = e.cFlushClose.Load()
	st.Overloads = e.cOverloads.Load()

	bs := e.be.BackendStats()
	st.Len = bs.Len
	st.PendingUpdates = bs.PendingUpdates
	st.Rebuilding = bs.Rebuilding
	st.Rebuilds = bs.Rebuilds
	st.RebuildFailures = bs.RebuildFailures
	st.RebuildRetries = bs.RebuildRetries
	st.ConsecutiveFailures = bs.ConsecutiveFailures
	st.BreakerOpen = bs.BreakerOpen
	st.BuildStats = bs.BuildStats
	st.Shards = bs.Shards

	if e.sys != nil {
		st.Selections = e.sys.Selections()
		st.Fallbacks = e.sys.Fallbacks()
	}
	if e.cache != nil {
		cs := e.cache.CacheStats()
		st.Cache = &cs
	}
	return st
}

// --- batching accumulator -----------------------------------------------

// batch is one accumulating group of same-kind queries. The goroutine
// that flushes it runs the whole batch and closes done; every waiter
// then reads its answer at its enqueue position.
type batch[Q, R any] struct {
	qs    []Q
	out   []R
	timer *time.Timer
	done  chan struct{}
}

// acc accumulates queries of one kind. All fields are guarded by the
// owning engine's mutex except run, set once at init, and queued, a
// lock-free mirror of the accumulating batch's length (written under
// the mutex, read by Stats without it).
type acc[Q, R any] struct {
	e      *Engine
	run    func([]Q) []R
	cur    *batch[Q, R]
	queued atomic.Int64
}

func (a *acc[Q, R]) init(e *Engine, run func([]Q) []R) {
	a.e = e
	a.run = run
}

// enqueue adds q to the current batch — creating one and arming its
// deadline if the accumulator is empty — and blocks until the batch
// runs, returning this query's answer. The batch that fills to
// MaxBatch is flushed immediately by the filling goroutine.
func (a *acc[Q, R]) enqueue(q Q) R {
	a.e.mu.Lock()
	b := a.cur
	if b == nil {
		b = &batch[Q, R]{done: make(chan struct{})}
		a.cur = b
		b.timer = time.AfterFunc(a.e.cfg.FlushInterval, func() { a.flushDeadline(b) })
	}
	i := len(b.qs)
	b.qs = append(b.qs, q)
	full := len(b.qs) >= a.e.cfg.MaxBatch
	if full {
		a.detachBatchLocked(b)
	} else {
		a.queued.Store(int64(len(b.qs)))
	}
	a.e.mu.Unlock()
	if full {
		a.e.cFlushSize.Add(1)
		a.runBatch(b)
	}
	<-b.done
	return b.out[i]
}

// flushDeadline is the timer callback: flush b if it is still the
// accumulating batch (a size flush or Close may have beaten the timer).
func (a *acc[Q, R]) flushDeadline(b *batch[Q, R]) {
	a.e.mu.Lock()
	mine := a.cur == b
	if mine {
		a.detachBatchLocked(b)
	}
	a.e.mu.Unlock()
	if !mine {
		return // a size flush or Close beat the timer
	}
	a.e.cFlushTimer.Add(1)
	a.runBatch(b)
}

// detachLocked removes and returns the accumulating batch, if any.
// Called with the engine mutex held.
func (a *acc[Q, R]) detachLocked() *batch[Q, R] {
	b := a.cur
	if b != nil {
		a.detachBatchLocked(b)
	}
	return b
}

func (a *acc[Q, R]) detachBatchLocked(b *batch[Q, R]) {
	a.cur = nil
	a.queued.Store(0)
	if b.timer != nil {
		b.timer.Stop()
	}
}

// runIf runs a detached batch, reporting whether there was one.
func (a *acc[Q, R]) runIf(b *batch[Q, R]) bool {
	if b == nil {
		return false
	}
	a.runBatch(b)
	return true
}

// runBatch executes a detached batch and releases its waiters.
func (a *acc[Q, R]) runBatch(b *batch[Q, R]) {
	b.out = a.run(b.qs)
	a.e.cBatches.Add(1)
	a.e.cBatchedQueries.Add(int64(len(b.qs)))
	close(b.done)
}
