// Fixture for ctxprop: positive hits for each rule, clean wrapper
// conventions, and the //lint:ignore escape hatch.
package a

import (
	"context"
	"sync"
)

// Rule 1: a named context parameter must be consulted.

func Process(ctx context.Context, n int) int { // want `Process accepts a context.Context but never consults it`
	return n * 2
}

func Wait(ctx context.Context) { // clean: ctx is consulted
	<-ctx.Done()
}

func Quick(_ context.Context) int { return 1 } // clean: explicit opt-out

func threaded(ctx context.Context, n int) int { // clean: passed through
	if ctx.Err() != nil {
		return 0
	}
	return n
}

// Rule 2: exported functions may not manufacture a context.

func Build(n int) int {
	ctx := context.Background() // want `exported Build manufactures context.Background`
	return threaded(ctx, n)
}

func Todo(n int) int {
	return threaded(context.TODO(), n) // want `exported Todo manufactures context.TODO`
}

func build(n int) int { // clean: unexported helpers may bottom out
	return threaded(context.Background(), n)
}

// Run is clean: the exported RunCtx sibling marks it as the sanctioned
// compatibility wrapper.

func Run(n int) int {
	return RunCtx(context.Background(), n)
}

func RunCtx(ctx context.Context, n int) int {
	return threaded(ctx, n)
}

// Rule 3: exported functions may not spawn unbounded goroutines.

func Detach(ch chan int) {
	go func() { // want `exported Detach spawns a goroutine but accepts no context.Context`
		ch <- 1
	}()
}

func SpawnCtx(ctx context.Context, ch chan int) { // clean: has and uses ctx
	go func() {
		select {
		case ch <- 1:
		case <-ctx.Done():
		}
	}()
}

// Fan is clean: FanCtx marks it as the compatibility wrapper.

func Fan(ch chan int) {
	go func() { ch <- 1 }()
}

func FanCtx(ctx context.Context, ch chan int) {
	_ = ctx.Err()
	go func() { ch <- 1 }()
}

// Rule 3 exempts a fork/join: every goroutine is joined before the
// function returns.

func ForkJoin(n int, fn func(i int)) { // clean: Add, spawn loop, Wait
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

func JoinEach(fns []func()) { // clean: Add per iteration, before the go
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
}

func ReturnBeforeWait(fns []func(), stop bool) {
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		go func() { // want `exported ReturnBeforeWait spawns a goroutine`
			defer wg.Done()
			fn()
		}()
	}
	if stop {
		return
	}
	wg.Wait()
}

func ReturnInLoop(fns []func()) {
	var wg sync.WaitGroup
	for _, fn := range fns {
		if fn == nil {
			return // a later iteration returns past an earlier spawn
		}
		wg.Add(1)
		go func() { // want `exported ReturnInLoop spawns a goroutine`
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
}

func WaitInIf(fn func(), wait bool) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want `exported WaitInIf spawns a goroutine`
		defer wg.Done()
		fn()
	}()
	if wait {
		wg.Wait()
	}
}

func NoAdd(fn func()) {
	var wg sync.WaitGroup
	go func() { // want `exported NoAdd spawns a goroutine`
		fn()
	}()
	wg.Wait()
}

// The escape hatch works.

func Legacy(n int) int {
	//lint:ignore ctxprop this entry point predates the context plumbing
	ctx := context.Background()
	return threaded(ctx, n)
}
