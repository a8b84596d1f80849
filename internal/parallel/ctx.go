package parallel

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is a panic recovered from a worker (or any other build
// stage) and converted into an error, carrying the panicking
// goroutine's stack. The fault-tolerant build pipeline turns worker
// panics into PanicErrors instead of crashing the process: a panicking
// model build falls down the degradation ladder, and a panicking
// background rebuild keeps the old index serving.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// Unwrap exposes the panic value when it is itself an error, so
// errors.Is/As see through the recovery.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Recovered converts a recover() result into a *PanicError (nil for a
// nil recovery). Build stages that must not crash the process share
// this conversion:
//
//	defer func() {
//		if pe := parallel.Recovered(recover()); pe != nil {
//			err = pe
//		}
//	}()
func Recovered(r any) *PanicError {
	if r == nil {
		return nil
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// ErrSink collects the first error from a set of concurrent workers:
// panics outrank other errors — a recovered panic replaces a
// previously recorded context error, never the other way around — and
// the first wins otherwise. The zero value is ready to use;
// Record(nil) is a no-op. The package's own kernels and the pipeline
// stages that run their own goroutines (staged leaf builds, background
// rebuilds) share it.
type ErrSink struct {
	mu  sync.Mutex
	err error
}

// Record stores err per the sink's precedence rules.
func (s *ErrSink) Record(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
		return
	}
	if _, isPanic := s.err.(*PanicError); !isPanic {
		if _, ok := err.(*PanicError); ok {
			s.err = err
		}
	}
}

// Get returns the recorded error, if any.
func (s *ErrSink) Get() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ctxBlock is the cooperative cancellation granularity: workers check
// the context between blocks of this many indices. It matches
// minChunk, so the check overhead stays far below the work it gates.
const ctxBlock = minChunk

// forBlocks runs fn over [lo, hi) in blocks of ctxBlock, checking ctx
// between blocks and recovering panics into *PanicError. The block
// subdivision is invisible to element-wise fns (every For-style fn in
// this repo); the chunk boundaries passed to fn remain deterministic
// functions of the range.
func forBlocks(ctx context.Context, lo, hi int, fn func(lo, hi int)) (err error) {
	defer func() {
		if pe := Recovered(recover()); pe != nil {
			err = pe
		}
	}()
	for b := lo; b < hi; b += ctxBlock {
		if e := ctx.Err(); e != nil {
			return e
		}
		end := b + ctxBlock
		if end > hi {
			end = hi
		}
		fn(b, end)
	}
	return nil
}

// MaxReduceCtx evaluates chunk over the contiguous chunks of [0, n) in
// parallel and returns the element-wise maxima of the (a, b) pairs —
// the reduction the empirical error-bound scan (Algorithm 1, line 6)
// runs over the full data set. Max is commutative and associative, so
// the result is independent of chunk completion order and worker
// count. Workers check ctx at block boundaries (every ctxBlock indices)
// and stop early when it is done, and a panicking chunk is recovered
// into a *PanicError instead of crashing the process. On a non-nil
// error the maxima are partial and must be discarded.
func MaxReduceCtx(ctx context.Context, n, workers int, chunk func(lo, hi int) (a, b int)) (maxA, maxB int, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	nc := chunks(n, workers)
	reduce := func(lo, hi int) (int, int, error) {
		var a, b int
		e := forBlocks(ctx, lo, hi, func(blo, bhi int) {
			ca, cb := chunk(blo, bhi)
			if ca > a {
				a = ca
			}
			if cb > b {
				b = cb
			}
		})
		return a, b, e
	}
	if nc == 1 {
		if n > 0 {
			return reduce(0, n)
		}
		return 0, 0, nil
	}
	as := make([]int, nc)
	bs := make([]int, nc)
	var sink ErrSink
	var wg sync.WaitGroup
	wg.Add(nc)
	for c := 0; c < nc; c++ {
		lo, hi := c*n/nc, (c+1)*n/nc
		go func(c, lo, hi int) {
			defer wg.Done()
			var e error
			as[c], bs[c], e = reduce(lo, hi)
			sink.Record(e)
		}(c, lo, hi)
	}
	wg.Wait()
	if err := sink.Get(); err != nil {
		return 0, 0, err
	}
	maxA, maxB = as[0], bs[0]
	for c := 1; c < nc; c++ {
		if as[c] > maxA {
			maxA = as[c]
		}
		if bs[c] > maxB {
			maxB = bs[c]
		}
	}
	return maxA, maxB, nil
}
