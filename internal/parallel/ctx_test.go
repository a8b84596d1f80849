package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForPanicIsolation(t *testing.T) {
	// A worker panic must surface as *PanicError on the caller, not
	// crash the process.
	defer func() {
		r := recover()
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recover() = %v (%T), want *PanicError", r, r)
		}
		if pe.Value != "boom" {
			t.Fatalf("PanicError.Value = %v, want boom", pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("PanicError.Stack is empty")
		}
	}()
	For(8192, 4, func(lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
	})
	t.Fatal("For did not re-panic")
}

func TestDoPanicIsolation(t *testing.T) {
	defer func() {
		if _, ok := recover().(*PanicError); !ok {
			t.Fatal("Do did not re-panic a *PanicError")
		}
	}()
	Do(
		func() {},
		func() { panic("boom") },
	)
	t.Fatal("Do did not re-panic")
}

func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	pe := Recovered(sentinel)
	if !errors.Is(pe, sentinel) {
		t.Fatal("PanicError does not unwrap an error panic value")
	}
	if pe2 := Recovered("not an error"); pe2.Unwrap() != nil {
		t.Fatal("non-error panic value should unwrap to nil")
	}
	if Recovered(nil) != nil {
		t.Fatal("Recovered(nil) should be nil")
	}
}

func TestForCtxCoversRange(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		n := 10000
		seen := make([]atomic.Int32, n)
		err := ForCtx(context.Background(), n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: ForCtx = %v", workers, err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var visited atomic.Int64
	n := 1 << 20
	err := ForCtx(ctx, n, 2, func(lo, hi int) {
		visited.Add(int64(hi - lo))
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForCtx = %v, want context.Canceled", err)
	}
	if v := visited.Load(); v >= int64(n) {
		t.Fatalf("ForCtx visited the whole range (%d) despite cancellation", v)
	}
}

func TestForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ForCtx(ctx, 10, 1, func(lo, hi int) { ran = true })
	if !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("pre-cancelled ForCtx = %v (ran=%v)", err, ran)
	}
}

func TestForCtxPanicOutranksCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := ForCtx(ctx, 8192, 4, func(lo, hi int) {
		if lo == 0 {
			cancel()
			panic("boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("ForCtx = %v, want *PanicError to outrank cancellation", err)
	}
}

func TestDoCtx(t *testing.T) {
	boom := errors.New("boom")
	err := DoCtx(context.Background(),
		func() error { return nil },
		func() error { return boom },
	)
	if !errors.Is(err, boom) {
		t.Fatalf("DoCtx = %v, want boom", err)
	}
	err = DoCtx(context.Background(), func() error { panic("pow") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("DoCtx = %v, want *PanicError", err)
	}
	if err := DoCtx(context.Background(), func() error { return nil }); err != nil {
		t.Fatalf("DoCtx success = %v", err)
	}
}

// TestMaxReduceCtxMatchesMaxReduce checks the parallel reduction against one
// serial call of chunk over the whole range.
func TestMaxReduceCtxMatchesMaxReduce(t *testing.T) {
	n := 50000
	vals := make([]int, n)
	for i := range vals {
		vals[i] = (i * 2654435761) % 100003
	}
	chunk := func(lo, hi int) (int, int) {
		var a, b int
		for i := lo; i < hi; i++ {
			if vals[i] > a {
				a = vals[i]
			}
			if n-vals[i] > b {
				b = n - vals[i]
			}
		}
		return a, b
	}
	wantA, wantB := chunk(0, n)
	for _, workers := range []int{1, 2, 7} {
		a, b, err := MaxReduceCtx(context.Background(), n, workers, chunk)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if a != wantA || b != wantB {
			t.Fatalf("workers=%d: got (%d, %d), want (%d, %d)", workers, a, b, wantA, wantB)
		}
	}
}

func TestMaxReduceCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, _, err := MaxReduceCtx(ctx, 10000, 4, func(lo, hi int) (int, int) { ran = true; return 0, 0 })
	if !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("pre-cancelled MaxReduceCtx = %v (ran=%v), want context.Canceled", err, ran)
	}

	// Cancelled mid-run: workers stop at the next block boundary.
	ctx, cancel = context.WithCancel(context.Background())
	var visited atomic.Int64
	n := 1 << 20
	_, _, err = MaxReduceCtx(ctx, n, 2, func(lo, hi int) (int, int) {
		visited.Add(int64(hi - lo))
		cancel()
		return 0, 0
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MaxReduceCtx = %v, want context.Canceled", err)
	}
	if v := visited.Load(); v >= int64(n) {
		t.Fatalf("MaxReduceCtx visited the whole range (%d) despite cancellation", v)
	}

	// A chunk panic outranks the cancellation it raced with.
	ctx, cancel = context.WithCancel(context.Background())
	_, _, err = MaxReduceCtx(ctx, 8192, 4, func(lo, hi int) (int, int) {
		if lo == 0 {
			cancel()
			panic("boom")
		}
		return 0, 0
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("MaxReduceCtx = %v, want *PanicError to outrank cancellation", err)
	}
}

func TestErrSinkPanicPriority(t *testing.T) {
	var s ErrSink
	s.Record(context.Canceled)
	s.Record(&PanicError{Value: "boom"})
	var pe *PanicError
	if !errors.As(s.Get(), &pe) {
		t.Fatalf("sink = %v, want panic to replace cancellation", s.Get())
	}
	// But a later non-panic error never replaces anything.
	s.Record(fmt.Errorf("other"))
	if !errors.As(s.Get(), &pe) {
		t.Fatal("non-panic error replaced the recorded panic")
	}
}
