package rebuild

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elsi/internal/dataset"
	"elsi/internal/faults"
	"elsi/internal/geo"
	"elsi/internal/index"
	"elsi/internal/parallel"
)

// waitUntil polls cond to avoid sleeping for fixed durations in tests
// that wait on background goroutines.
func waitUntil(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("timeout waiting for " + msg)
}

// failingFactory returns a Factory whose built indexes always fail,
// counting invocations.
func failingFactory(calls *atomic.Int64, err error) func() Rebuildable {
	return func() Rebuildable {
		calls.Add(1)
		return &gatedIndex{buildErr: err}
	}
}

// TestRetryBackoffDeterministic drives a permanently failing
// background rebuild through the retry loop until the circuit breaker
// opens, capturing every backoff delay through the Sleep hook. The
// delays must equal the schedule recomputed from the same seed: capped
// exponential growth with seeded jitter, fully reproducible.
func TestRetryBackoffDeterministic(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 300, 21)
	p, err := NewProcessor(index.NewBruteForce(), nil, pts, xKey, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var calls atomic.Int64
	var mu sync.Mutex
	var delays []time.Duration
	p.Factory = failingFactory(&calls, boom)
	p.Retry = &RetryPolicy{
		Base:   10 * time.Millisecond,
		Max:    60 * time.Millisecond,
		Jitter: 0.5,
		Seed:   42,
		Sleep: func(d time.Duration) {
			mu.Lock()
			delays = append(delays, d)
			mu.Unlock()
		},
	}

	p.Rebuild()
	waitUntil(t, p.BreakerOpen, "breaker to open")
	waitUntil(t, func() bool { return !p.Rebuilding() && !p.RetryPending() }, "retry chain to drain")

	// Default threshold 5: the initial attempt plus 4 retries fail,
	// the 5th failure opens the breaker and schedules nothing more.
	if got := p.Failures(); got != 5 {
		t.Errorf("Failures = %d, want 5", got)
	}
	if got := p.Retries(); got != 4 {
		t.Errorf("Retries = %d, want 4", got)
	}
	if got := p.ConsecutiveFailures(); got != 5 {
		t.Errorf("ConsecutiveFailures = %d, want 5", got)
	}
	if got := calls.Load(); got != 5 {
		t.Errorf("factory calls = %d, want 5", got)
	}
	if got := p.RebuildErrors(); len(got) != 5 {
		t.Errorf("error ring holds %d, want 5", len(got))
	} else {
		for _, e := range got {
			if !errors.Is(e, boom) {
				t.Errorf("ring error = %v, want boom", e)
			}
		}
	}

	// Recompute the expected schedule from the same policy and seed.
	ref := &RetryPolicy{Base: 10 * time.Millisecond, Max: 60 * time.Millisecond, Jitter: 0.5}
	rng := rand.New(rand.NewSource(42))
	var want []time.Duration
	for attempt := 1; attempt <= 4; attempt++ {
		want = append(want, ref.backoff(attempt, rng))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delays) != len(want) {
		t.Fatalf("recorded %d delays, want %d", len(delays), len(want))
	}
	for i := range want {
		if delays[i] != want[i] {
			t.Errorf("delay[%d] = %v, want %v", i, delays[i], want[i])
		}
		if delays[i] > ref.Max {
			t.Errorf("delay[%d] = %v exceeds cap %v", i, delays[i], ref.Max)
		}
	}
}

// TestPanickingBackgroundRebuild injects a panic into the background
// rebuild: the process must not crash, the processor must not wedge in
// the rebuilding state, queries must keep being served from the old
// index, and a later rebuild (fault exhausted) must succeed and close
// the failure streak.
func TestPanickingBackgroundRebuild(t *testing.T) {
	defer faults.Reset()
	pts := dataset.MustGenerate(dataset.Uniform, 500, 23)
	p, err := NewProcessor(index.NewBruteForce(), nil, pts, xKey, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	p.Factory = func() Rebuildable { return index.NewBruteForce() }

	faults.Enable("rebuild/background", faults.Fault{Mode: faults.ModePanic, Times: 1})
	ins := geo.Point{X: 0.111, Y: 0.222}
	p.Insert(ins)
	p.Rebuild()
	p.WaitRebuild()

	var pe *parallel.PanicError
	if !errors.As(p.RebuildErr(), &pe) {
		t.Fatalf("RebuildErr = %v, want *parallel.PanicError", p.RebuildErr())
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
	if p.Rebuilding() {
		t.Fatal("processor wedged in rebuilding state after panic")
	}
	// serving snapshot plus delta overlay stay live
	if !p.PointQuery(pts[0]) || !p.PointQuery(ins) {
		t.Fatal("query lost after panicking rebuild")
	}
	if p.Failures() != 1 || p.ConsecutiveFailures() != 1 {
		t.Errorf("failure counters = %d/%d, want 1/1", p.Failures(), p.ConsecutiveFailures())
	}

	// fault exhausted (Times: 1): the next rebuild succeeds and resets
	// the streak
	p.Rebuild()
	p.WaitRebuild()
	if p.RebuildErr() != nil {
		t.Fatalf("recovery rebuild failed: %v", p.RebuildErr())
	}
	if p.ConsecutiveFailures() != 0 {
		t.Errorf("success did not reset the streak: %d", p.ConsecutiveFailures())
	}
	if !p.Index().PointQuery(ins) {
		t.Error("recovery rebuild lost the pending insert")
	}
}

// TestBreakerPinsToInline proves the circuit-breaker contract: after
// the threshold of consecutive background failures the breaker opens,
// automatic rebuilds are suppressed, and an explicit Rebuild() runs
// inline on the serving index instead of spawning another doomed
// background build. The inline success closes the breaker.
func TestBreakerPinsToInline(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 300, 29)
	p, err := NewProcessor(index.NewBruteForce(), nil, pts, xKey, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var calls atomic.Int64
	p.Factory = failingFactory(&calls, boom)
	p.BreakerThreshold = 3
	p.Retry = &RetryPolicy{Base: time.Millisecond, Seed: 1, Sleep: func(time.Duration) {}}

	p.Rebuild()
	waitUntil(t, p.BreakerOpen, "breaker to open")
	waitUntil(t, func() bool { return !p.Rebuilding() && !p.RetryPending() }, "retry chain to drain")
	if got := calls.Load(); got != 3 {
		t.Errorf("factory calls before open = %d, want 3", got)
	}

	// While open, updates keep landing in the overlay and queries work.
	ins := geo.Point{X: 0.777, Y: 0.888}
	p.Insert(ins)
	if !p.PointQuery(ins) || !p.PointQuery(pts[0]) {
		t.Fatal("query failed with breaker open")
	}

	// Explicit Rebuild runs inline on the healthy serving index: no new
	// factory call, immediate success, breaker closed.
	before := calls.Load()
	p.Rebuild()
	if calls.Load() != before {
		t.Errorf("open-breaker Rebuild used the factory (%d calls)", calls.Load()-before)
	}
	if p.BreakerOpen() {
		t.Fatal("successful inline rebuild left the breaker open")
	}
	if p.ConsecutiveFailures() != 0 {
		t.Errorf("streak = %d after success", p.ConsecutiveFailures())
	}
	if !p.Index().PointQuery(ins) {
		t.Error("inline rebuild lost the overlay insert")
	}

	// With the breaker closed, background rebuilds run again: the next
	// Rebuild calls the factory (the fault is still there, so the
	// attempt fails — but it does run).
	before = calls.Load()
	p.Rebuild()
	p.WaitRebuild()
	waitUntil(t, func() bool { return !p.RetryPending() && !p.Rebuilding() }, "post-close chain to drain")
	if calls.Load() == before {
		t.Error("closed breaker did not re-enable background rebuilds")
	}
}

// TestRetryMaxAttempts bounds the retry chain independently of the
// breaker.
func TestRetryMaxAttempts(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 300, 37)
	p, err := NewProcessor(index.NewBruteForce(), nil, pts, xKey, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	p.Factory = failingFactory(&calls, errors.New("down"))
	p.BreakerThreshold = -1 // disabled: only MaxAttempts stops the chain
	p.Retry = &RetryPolicy{Base: time.Millisecond, Seed: 1, MaxAttempts: 2, Sleep: func(time.Duration) {}}

	p.Rebuild()
	waitUntil(t, func() bool { return p.Failures() == 3 }, "initial attempt plus 2 retries")
	waitUntil(t, func() bool { return !p.Rebuilding() && !p.RetryPending() }, "chain to stop")
	if p.BreakerOpen() {
		t.Error("disabled breaker opened")
	}
	if got := p.Retries(); got != 2 {
		t.Errorf("Retries = %d, want 2", got)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("factory calls = %d, want 3", got)
	}
}

// TestErrorRingBounded overflows the recent-error ring with inline
// failures and checks it keeps only the newest errRingCap entries.
func TestErrorRingBounded(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 200, 41)
	ix := &gatedIndex{}
	p, err := NewProcessor(ix, nil, pts, xKey, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	p.BreakerThreshold = -1
	ix.buildErr = errors.New("down")
	for i := 0; i < errRingCap+9; i++ {
		p.Rebuild() // inline (no Factory): fails synchronously
	}
	if got := p.Failures(); got != errRingCap+9 {
		t.Errorf("Failures = %d, want %d", got, errRingCap+9)
	}
	if got := len(p.RebuildErrors()); got != errRingCap {
		t.Errorf("ring length = %d, want %d", got, errRingCap)
	}
}

// TestInlineRebuildFailureKeepsDelta: a failed inline rebuild must not
// clear the pending updates — nothing absorbed them.
func TestInlineRebuildFailureKeepsDelta(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 200, 43)
	ix := &gatedIndex{}
	p, err := NewProcessor(ix, nil, pts, xKey, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	ins := geo.Point{X: 0.123, Y: 0.321}
	p.Insert(ins)
	ix.buildErr = errors.New("down")
	p.Rebuild()
	if p.RebuildErr() == nil {
		t.Fatal("failed inline rebuild reported no error")
	}
	if p.PendingUpdates() != 1 {
		t.Fatalf("failed inline rebuild dropped the delta: %d pending", p.PendingUpdates())
	}
	if !p.PointQuery(ins) {
		t.Fatal("pending insert lost after failed inline rebuild")
	}
	ix.buildErr = nil
	p.Rebuild()
	if p.PendingUpdates() != 0 || p.RebuildErr() != nil {
		t.Fatal("recovery rebuild did not drain the delta")
	}
	if !p.Index().PointQuery(ins) {
		t.Error("recovery rebuild lost the pending insert")
	}
}

// TestChaosWorkloadRace runs a concurrent insert/query workload while
// the first background rebuilds fail via injection and the retry loop
// recovers them; run under -race this checks the whole failure path's
// locking discipline, and at the end every point must be queryable.
func TestChaosWorkloadRace(t *testing.T) {
	defer faults.Reset()
	pts := dataset.MustGenerate(dataset.Uniform, 1000, 47)
	p, err := NewProcessor(index.NewBruteForce(), nil, pts, xKey, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	p.Factory = func() Rebuildable { return index.NewBruteForce() }
	p.Retry = &RetryPolicy{Base: time.Millisecond, Jitter: 0.5, Seed: 7, Sleep: func(time.Duration) {}}
	faults.Enable("rebuild/background", faults.Fault{Mode: faults.ModeError, Times: 2})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := pts[rng.Intn(len(pts))]
				p.PointQuery(q)
				p.KNN(q, 4)
			}
		}(int64(w + 1))
	}
	inserted := make([]geo.Point, 0, 50)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		np := geo.Point{X: rng.Float64(), Y: rng.Float64()}
		inserted = append(inserted, np)
		p.Insert(np)
		if i%10 == 0 {
			p.Rebuild()
		}
	}
	waitUntil(t, func() bool { return !p.Rebuilding() && !p.RetryPending() }, "chaos to settle")
	close(stop)
	wg.Wait()

	if p.Failures() != 2 {
		t.Errorf("Failures = %d, want 2 (Times: 2)", p.Failures())
	}
	if p.BreakerOpen() {
		t.Error("breaker opened below threshold")
	}
	for _, q := range inserted {
		if !p.PointQuery(q) {
			t.Fatalf("inserted point %v lost in chaos", q)
		}
	}
	for _, q := range pts[:100] {
		if !p.PointQuery(q) {
			t.Fatalf("original point %v lost in chaos", q)
		}
	}
}
