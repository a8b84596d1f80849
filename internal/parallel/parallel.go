// Package parallel provides the small, stdlib-only concurrency
// kernels the build pipeline runs on: a chunked parallel for,
// order-independent reductions, and a deterministic parallel merge
// sort. Every primitive is bit-deterministic — the result is
// identical for any worker count, including 1 — because the chunk
// boundaries are fixed functions of the input length and every
// combine step is either order-independent (max) or performed in
// chunk order (merge). That property is what lets the parallel build
// pipeline produce indices bit-identical to a serial build (same
// error bounds, same storage order, same query answers), which the
// determinism tests assert.
package parallel

import (
	"runtime"
	"sync"
)

// DefaultWorkers returns the default worker count for the build
// stages: GOMAXPROCS. Callers override it per call site by passing an
// explicit positive worker count (core.Config.Workers threads one
// through the ELSI build pipeline).
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// Resolve maps a configured worker count to an effective one:
// non-positive values select the default.
func Resolve(workers int) int {
	if workers <= 0 {
		return DefaultWorkers()
	}
	return workers
}

// minChunk is the smallest per-worker chunk worth a goroutine; below
// it the dispatch overhead dominates any speedup.
const minChunk = 1024

// chunks returns the number of contiguous chunks [0, n) is split
// into for the given worker count. Boundaries depend only on n and
// the returned count, never on scheduling.
func chunks(n, workers int) int {
	workers = Resolve(workers)
	if workers > n/minChunk {
		workers = n / minChunk
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For runs fn over the contiguous chunks of [0, n), one goroutine per
// chunk, and waits for all of them. fn must be safe for concurrent
// use across disjoint chunks. With workers <= 1 (or n too small to
// split) fn runs inline over the whole range.
//
// A panic in a worker goroutine does not crash the process: it is
// recovered and re-raised as a *PanicError on the calling goroutine
// after all workers finish, so callers with their own recovery (the
// degradation ladder, the background rebuild) can contain it.
func For(n, workers int, fn func(lo, hi int)) {
	nc := chunks(n, workers)
	if nc == 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var sink ErrSink
	var wg sync.WaitGroup
	wg.Add(nc)
	for c := 0; c < nc; c++ {
		lo, hi := c*n/nc, (c+1)*n/nc
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if pe := Recovered(recover()); pe != nil {
					sink.Record(pe)
				}
			}()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	if err := sink.Get(); err != nil {
		panic(err)
	}
}

// Do runs the given functions concurrently and waits for all of them
// — the fork/join for a handful of independent tasks (e.g. training
// the scorer's build-cost and query-cost nets). As with For, a worker
// panic is re-raised as a *PanicError on the calling goroutine rather
// than crashing the process.
func Do(fns ...func()) {
	if len(fns) == 1 {
		fns[0]()
		return
	}
	var sink ErrSink
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		go func(fn func()) {
			defer wg.Done()
			defer func() {
				if pe := Recovered(recover()); pe != nil {
					sink.Record(pe)
				}
			}()
			fn()
		}(fn)
	}
	wg.Wait()
	if err := sink.Get(); err != nil {
		panic(err)
	}
}
