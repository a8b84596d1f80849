package engine

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"elsi/internal/dataset"
	"elsi/internal/geo"
	"elsi/internal/index"
	"elsi/internal/rebuild"
)

func xKey(p geo.Point) float64 { return p.X }

// newTestProcessor builds a processor with pending overlay state, so
// engine queries exercise the layered merge/filter paths.
func newTestProcessor(t *testing.T, n int, seed int64) *rebuild.Processor {
	t.Helper()
	pts := dataset.MustGenerate(dataset.Uniform, n, seed)
	proc, err := rebuild.NewProcessor(index.NewBruteForce(), nil, pts, xKey, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40 && i*11 < n; i++ {
		proc.Delete(pts[i*11])
		proc.Insert(geo.Point{X: float64(i) / 40, Y: 0.015})
	}
	return proc
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineMatchesSerial floods the engine from many goroutines and
// checks every batched answer against its serial processor counterpart,
// then audits the counters. A small MaxBatch and a short deadline make
// both flush paths fire.
func TestEngineMatchesSerial(t *testing.T) {
	proc := newTestProcessor(t, 1500, 7)
	e := NewWithBackend(NewSingle(proc, 0), nil, Config{MaxBatch: 4, FlushInterval: time.Millisecond})

	const goroutines = 8
	const perG = 60
	type queryCase struct {
		kind int // 0 point, 1 window, 2 knn
		pt   geo.Point
		win  geo.Rect
		k    int
	}
	// one deterministic query tape per goroutine, answered serially first
	tapes := make([][]queryCase, goroutines)
	wantBool := make([][]bool, goroutines)
	wantPts := make([][][]geo.Point, goroutines)
	for g := range tapes {
		rng := rand.New(rand.NewSource(int64(100 + g)))
		tapes[g] = make([]queryCase, perG)
		wantBool[g] = make([]bool, perG)
		wantPts[g] = make([][]geo.Point, perG)
		for i := range tapes[g] {
			qc := queryCase{kind: rng.Intn(3)}
			switch qc.kind {
			case 0:
				qc.pt = geo.Point{X: rng.Float64(), Y: rng.Float64()}
				wantBool[g][i] = proc.PointQuery(qc.pt)
			case 1:
				x, y := rng.Float64(), rng.Float64()
				qc.win = geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*0.3, MaxY: y + rng.Float64()*0.3}
				wantPts[g][i] = append([]geo.Point(nil), proc.WindowQuery(qc.win)...)
			default:
				qc.pt = geo.Point{X: rng.Float64(), Y: rng.Float64()}
				qc.k = rng.Intn(20) - 2 // includes k <= 0
				wantPts[g][i] = append([]geo.Point(nil), proc.KNN(qc.pt, qc.k)...)
			}
			tapes[g][i] = qc
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, qc := range tapes[g] {
				switch qc.kind {
				case 0:
					got, err := e.PointQuery(qc.pt)
					if err != nil {
						t.Errorf("g%d q%d: PointQuery: %v", g, i, err)
					} else if got != wantBool[g][i] {
						t.Errorf("g%d q%d: PointQuery = %v, want %v", g, i, got, wantBool[g][i])
					}
				case 1:
					got, err := e.WindowQuery(qc.win)
					if err != nil {
						t.Errorf("g%d q%d: WindowQuery: %v", g, i, err)
					} else if !samePoints(got, wantPts[g][i]) {
						t.Errorf("g%d q%d: WindowQuery diverged: got %d pts, want %d", g, i, len(got), len(wantPts[g][i]))
					}
				default:
					got, err := e.KNN(qc.pt, qc.k)
					if err != nil {
						t.Errorf("g%d q%d: KNN: %v", g, i, err)
					} else if !samePoints(got, wantPts[g][i]) {
						t.Errorf("g%d q%d: KNN diverged: got %d pts, want %d", g, i, len(got), len(wantPts[g][i]))
					}
				}
			}
		}()
	}
	wg.Wait()
	e.Close()

	st := e.Stats()
	total := st.PointQueries + st.WindowQueries + st.KNNQueries
	if total != goroutines*perG {
		t.Errorf("query counters sum to %d, want %d", total, goroutines*perG)
	}
	if st.BatchedQueries != total {
		t.Errorf("BatchedQueries = %d, want %d", st.BatchedQueries, total)
	}
	if st.Batches == 0 || st.Batches > st.BatchedQueries {
		t.Errorf("implausible batch count %d for %d queries", st.Batches, st.BatchedQueries)
	}
	if got := st.FlushBySize + st.FlushByTimer + st.FlushByClose; got != st.Batches {
		t.Errorf("flush counters sum to %d, want Batches = %d", got, st.Batches)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("after drain: InFlight = %d, Queued = %d, want 0, 0", st.InFlight, st.Queued)
	}
	if !st.Closed {
		t.Error("Stats().Closed = false after Close")
	}
}

func samePoints(a, b []geo.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDeadlineFlush pins the latency bound: a lone query in a huge
// batch must still be answered by the deadline flush.
func TestDeadlineFlush(t *testing.T) {
	proc := newTestProcessor(t, 200, 9)
	e := NewWithBackend(NewSingle(proc, 0), nil, Config{MaxBatch: 1 << 20, FlushInterval: 2 * time.Millisecond})
	defer e.Close()

	got, err := e.PointQuery(geo.Point{X: 0.5, Y: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if want := proc.PointQuery(geo.Point{X: 0.5, Y: 0.5}); got != want {
		t.Errorf("PointQuery = %v, want %v", got, want)
	}
	st := e.Stats()
	if st.FlushByTimer != 1 || st.FlushBySize != 0 {
		t.Errorf("FlushByTimer = %d, FlushBySize = %d, want 1, 0", st.FlushByTimer, st.FlushBySize)
	}
}

// gatedBrute blocks point queries on a gate, so tests can hold
// requests in flight deterministically.
type gatedBrute struct {
	*index.BruteForce
	gate chan struct{}
}

func (g *gatedBrute) PointQuery(p geo.Point) bool {
	<-g.gate
	return g.BruteForce.PointQuery(p)
}

// TestOverload fills MaxInFlight with gated requests and checks the
// next one is rejected with ErrOverloaded, not queued.
func TestOverload(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 100, 11)
	gate := make(chan struct{})
	gb := &gatedBrute{BruteForce: index.NewBruteForce(), gate: gate}
	proc, err := rebuild.NewProcessor(gb, nil, pts, xKey, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	e := NewWithBackend(NewSingle(proc, 0), nil, Config{MaxBatch: 1, MaxInFlight: 2})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.PointQuery(geo.Point{X: 0.5, Y: 0.5}); err != nil {
				t.Errorf("gated PointQuery: %v", err)
			}
		}()
	}
	waitUntil(t, "2 requests in flight", func() bool { return e.Stats().InFlight == 2 })

	if _, err := e.PointQuery(geo.Point{X: 0.1, Y: 0.1}); !errors.Is(err, ErrOverloaded) {
		t.Errorf("overloaded PointQuery error = %v, want ErrOverloaded", err)
	}
	if st := e.Stats(); st.Overloads != 1 {
		t.Errorf("Overloads = %d, want 1", st.Overloads)
	}

	close(gate)
	wg.Wait()
	e.Close()
	if st := e.Stats(); st.InFlight != 0 {
		t.Errorf("InFlight = %d after drain, want 0", st.InFlight)
	}
}

// TestCloseDrainsQueued parks queries in an accumulator with a far-off
// deadline and checks Close answers them by flushing the batch itself
// (FlushByClose, not FlushByTimer), then rejects new requests.
func TestCloseDrainsQueued(t *testing.T) {
	proc := newTestProcessor(t, 300, 13)
	e := NewWithBackend(NewSingle(proc, 0), nil, Config{MaxBatch: 100, FlushInterval: time.Minute})

	win := geo.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.7, MaxY: 0.7}
	want := append([]geo.Point(nil), proc.WindowQuery(win)...)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := e.WindowQuery(win)
			if err != nil {
				t.Errorf("queued WindowQuery: %v", err)
			} else if !samePoints(got, want) {
				t.Errorf("queued WindowQuery diverged: got %d pts, want %d", len(got), len(want))
			}
		}()
	}
	waitUntil(t, "3 queries queued", func() bool { return e.Stats().Queued == 3 })

	e.Close()
	wg.Wait()

	st := e.Stats()
	if st.FlushByClose != 1 || st.FlushByTimer != 0 {
		t.Errorf("FlushByClose = %d, FlushByTimer = %d, want 1, 0", st.FlushByClose, st.FlushByTimer)
	}
	if _, err := e.PointQuery(geo.Point{}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close PointQuery error = %v, want ErrClosed", err)
	}
	if _, err := e.Insert(geo.Point{}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close Insert error = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

// TestConcurrentUpdatesAndRebuild runs mixed queries and updates
// through the engine while background rebuilds come and go — the
// -race run checks the locking of the whole stack.
func TestConcurrentUpdatesAndRebuild(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 1000, 17)
	proc, err := rebuild.NewProcessor(index.NewBruteForce(), nil, pts, xKey, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	proc.Factory = func() rebuild.Rebuildable { return index.NewBruteForce() }
	e := NewWithBackend(NewSingle(proc, 0), nil, Config{MaxBatch: 8, FlushInterval: 500 * time.Microsecond})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 1)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := geo.Point{X: rng.Float64(), Y: rng.Float64()}
				switch rng.Intn(4) {
				case 0:
					if _, err := e.PointQuery(q); err != nil {
						t.Errorf("PointQuery: %v", err)
						return
					}
				case 1:
					if _, err := e.WindowQuery(geo.Rect{MinX: q.X, MinY: q.Y, MaxX: q.X + 0.2, MaxY: q.Y + 0.2}); err != nil {
						t.Errorf("WindowQuery: %v", err)
						return
					}
				case 2:
					if _, err := e.KNN(q, rng.Intn(8)); err != nil {
						t.Errorf("KNN: %v", err)
						return
					}
				default:
					if rng.Intn(2) == 0 {
						if _, err := e.Insert(q); err != nil {
							t.Errorf("Insert: %v", err)
							return
						}
					} else if _, err := e.Delete(pts[rng.Intn(len(pts))]); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		proc.Rebuild()
		time.Sleep(5 * time.Millisecond)
		proc.WaitRebuild()
	}
	close(stop)
	wg.Wait()
	e.Close()

	st := e.Stats()
	if got := st.FlushBySize + st.FlushByTimer + st.FlushByClose; got != st.Batches {
		t.Errorf("flush counters sum to %d, want Batches = %d", got, st.Batches)
	}
	if st.BatchedQueries != st.PointQueries+st.WindowQueries+st.KNNQueries {
		t.Errorf("BatchedQueries = %d, want %d", st.BatchedQueries, st.PointQueries+st.WindowQueries+st.KNNQueries)
	}
	if st.Rebuilds < 3 {
		t.Errorf("Rebuilds = %d, want >= 3", st.Rebuilds)
	}
}

// TestCloseRacesStatsAndFlushes slams Close into the middle of a live
// request stream while Stats readers hammer the counters — the -race
// run checks that shutdown, the in-flight accounting, and the batch
// flush paths compose. After Close returns, every admitted request
// must have been answered: no waiter may be left blocked on a batch
// that never runs.
func TestCloseRacesStatsAndFlushes(t *testing.T) {
	proc := newTestProcessor(t, 800, 19)
	// A small batch and a long deadline force Close itself to flush
	// whatever was accumulating when it hit.
	e := NewWithBackend(NewSingle(proc, 0), nil, Config{MaxBatch: 4, FlushInterval: 50 * time.Millisecond})

	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		answered int64 // requests that returned nil error
		mu       sync.Mutex
	)
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for {
				q := geo.Point{X: rng.Float64(), Y: rng.Float64()}
				var err error
				switch rng.Intn(5) {
				case 0:
					_, err = e.PointQuery(q)
				case 1:
					_, err = e.WindowQuery(geo.Rect{MinX: q.X, MinY: q.Y, MaxX: q.X + 0.1, MaxY: q.Y + 0.1})
				case 2:
					_, err = e.KNN(q, 1+rng.Intn(4))
				case 3:
					_, err = e.Insert(q)
				default:
					_, err = e.Delete(q)
				}
				switch {
				case err == nil:
					mu.Lock()
					answered++
					mu.Unlock()
				case errors.Is(err, ErrClosed):
					return // shutdown reached this goroutine
				case errors.Is(err, ErrOverloaded):
					// acceptable under load; keep going
				default:
					t.Errorf("unexpected request error: %v", err)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := e.Stats()
				if st.InFlight < 0 || st.Queued < 0 {
					t.Errorf("negative accounting: InFlight=%d Queued=%d", st.InFlight, st.Queued)
					return
				}
			}
		}()
	}

	time.Sleep(20 * time.Millisecond) // let the stream build up
	var cwg sync.WaitGroup
	for i := 0; i < 2; i++ {
		cwg.Add(1)
		go func() { defer cwg.Done(); e.Close() }() // concurrent idempotent Close
	}
	cwg.Wait()
	close(stop)
	wg.Wait()

	st := e.Stats()
	if !st.Closed {
		t.Error("Stats().Closed false after Close")
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("after Close: InFlight=%d Queued=%d, want 0, 0", st.InFlight, st.Queued)
	}
	mu.Lock()
	got := answered
	mu.Unlock()
	if total := st.PointQueries + st.WindowQueries + st.KNNQueries + st.Inserts + st.Deletes; total != got {
		t.Errorf("admitted %d requests, %d answered", total, got)
	}
	if st.BatchedQueries != st.PointQueries+st.WindowQueries+st.KNNQueries {
		t.Errorf("BatchedQueries = %d, want %d: a Close-time flush dropped waiters",
			st.BatchedQueries, st.PointQueries+st.WindowQueries+st.KNNQueries)
	}
}
