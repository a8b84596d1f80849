package engine

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"elsi/internal/dataset"
	"elsi/internal/faults"
	"elsi/internal/geo"
	"elsi/internal/index"
	"elsi/internal/indextest"
	"elsi/internal/qcache"
	"elsi/internal/rebuild"
)

// cachedEngine builds a cache-on engine over a fresh rebuildable
// processor and returns both ends.
func cachedEngine(t *testing.T, n int, seed int64, cfg Config) (*Engine, *rebuild.Processor) {
	t.Helper()
	pts := dataset.MustGenerate(dataset.Uniform, n, seed)
	proc, err := rebuild.NewProcessor(index.NewBruteForce(), nil, pts, xKey, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	proc.Factory = func() rebuild.Rebuildable { return index.NewBruteForce() }
	if cfg.Cache == nil {
		cfg.Cache = &qcache.Config{}
	}
	return NewWithBackend(NewSingle(proc, cfg.Workers), nil, cfg), proc
}

// TestCachedEquivalenceRaced checks the acceptance bar for the result
// cache: under a raced mixed read/write workload — with a background
// rebuild parked in flight at its BuildGate for part of the run —
// cached answers are byte-identical to what the processor computes
// directly. The compare uses the generation protocol itself: a reader
// records the owning generation before the engine call and after the
// direct oracle call; if the two match, no mutation was visible in
// between, so the answers were computed over the same state and must
// agree. Mismatched spans are skipped (the race only costs a miss).
func TestCachedEquivalenceRaced(t *testing.T) {
	e, proc := cachedEngine(t, 3000, 21, Config{MaxBatch: 8, FlushInterval: 200 * time.Microsecond})
	defer e.Close()
	be := e.be

	// Park a background rebuild mid-build: the workload below runs
	// against the frozen view + delta overlay until hold is released.
	hold := make(chan struct{})
	proc.BuildGate = func() func() {
		<-hold
		return func() {}
	}
	proc.Rebuild()

	pts := dataset.MustGenerate(dataset.Uniform, 3000, 21)
	hot := pts[:48] // small hot set so repeats actually hit the cache

	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		g := g
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			// Bounded: with the rebuild parked every mutation lands in
			// the delta overlay, and an unthrottled writer would make
			// each query scan an ever-growing pending set.
			for i := 0; i < 4000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if rng.Intn(2) == 0 {
					if _, err := e.Insert(geo.Point{X: rng.Float64(), Y: 5 + rng.Float64()}); err != nil {
						t.Errorf("Insert: %v", err)
						return
					}
				} else if _, err := e.Delete(pts[1000+rng.Intn(2000)]); err != nil {
					t.Errorf("Delete: %v", err)
					return
				}
			}
		}()
	}

	var compared, skipped int64
	var cmpMu sync.Mutex
	for g := 0; g < 4; g++ {
		g := g
		readers.Add(1)
		go func() {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			var nCmp, nSkip int64
			for i := 0; i < 2500; i++ {
				if i == 1250 && g == 0 {
					close(hold) // un-park the rebuild mid-run
				}
				pt := hot[rng.Intn(len(hot))]
				if rng.Intn(4) == 0 {
					// Small window around a hot point, stamped with the
					// global generation inside the engine.
					win := geo.Rect{MinX: pt.X, MinY: pt.Y, MaxX: pt.X + 0.02, MaxY: pt.Y + 0.02}
					g0 := be.GlobalGen()
					got, err := e.WindowQuery(win)
					if err != nil {
						t.Errorf("WindowQuery: %v", err)
						return
					}
					want := proc.WindowQuery(win)
					if be.GlobalGen() != g0 {
						nSkip++
						continue // mutation raced the span; no verdict
					}
					nCmp++
					if !samePoints(got, want) {
						t.Errorf("window %v: cached %v, direct %v", win, got, want)
						return
					}
					continue
				}
				g0 := be.PointGen(pt)
				got, err := e.PointQuery(pt)
				if err != nil {
					t.Errorf("PointQuery: %v", err)
					return
				}
				want := proc.PointQuery(pt)
				if be.PointGen(pt) != g0 {
					nSkip++
					continue
				}
				nCmp++
				if got != want {
					t.Errorf("point %v: cached %v, direct %v", pt, got, want)
					return
				}
			}
			cmpMu.Lock()
			compared += nCmp
			skipped += nSkip
			cmpMu.Unlock()
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	proc.WaitRebuild()

	if compared < 1000 {
		t.Fatalf("only %d quiescent comparisons (%d skipped); the test lost its teeth", compared, skipped)
	}
	st := e.Stats()
	if st.Cache == nil {
		t.Fatal("Stats.Cache missing with the cache enabled")
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("no cache hits across the hot set: %+v", *st.Cache)
	}
	if st.Rebuilds < 1 {
		t.Fatalf("the gated rebuild never completed: %+v", st)
	}
}

// TestCacheStaleNeverServedUnderFault arms qcache/invalidate so the
// advisory Drop after every update is lost, then flips membership of a
// small key set and re-reads after each flip. With eager invalidation
// gone, only the generation stamp stands between the cache and a stale
// answer — every re-read must still see the flip.
func TestCacheStaleNeverServedUnderFault(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	faults.Enable("qcache/invalidate", faults.Fault{Mode: faults.ModeError})

	e, proc := cachedEngine(t, 500, 31, Config{MaxBatch: 4, FlushInterval: 100 * time.Microsecond})
	defer e.Close()

	pts := dataset.MustGenerate(dataset.Uniform, 500, 31)
	hot := pts[:16]
	for i := 0; i < 400; i++ {
		pt := hot[i%len(hot)]
		v1, err := e.PointQuery(pt)
		if err != nil {
			t.Fatal(err)
		}
		// Re-read without a mutation in between: a cache hit, same answer.
		if v2, _ := e.PointQuery(pt); v2 != v1 {
			t.Fatalf("step %d: repeated read flipped %v → %v with no mutation", i, v1, v2)
		}
		if v1 {
			if _, err := e.Delete(pt); err != nil {
				t.Fatal(err)
			}
		} else if _, err := e.Insert(pt); err != nil {
			t.Fatal(err)
		}
		v3, err := e.PointQuery(pt)
		if err != nil {
			t.Fatal(err)
		}
		if v3 == v1 {
			t.Fatalf("step %d: stale read: membership flipped but the cache still answered %v", i, v1)
		}
		if i == 200 {
			// A rebuild swap must invalidate too (its gen bump is the
			// only signal — swaps never issue advisory drops at all).
			proc.Rebuild()
			proc.WaitRebuild()
		}
	}

	// Windows rely on the generation check alone even without the
	// fault (updates never drop window keys): fill, mutate inside the
	// window, re-read — the new point must appear.
	win := geo.Rect{MinX: 2, MinY: 2, MaxX: 2.02, MaxY: 2.02}
	got, err := e.WindowQuery(win)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty region returned %v", got)
	}
	inside := geo.Point{X: 2.01, Y: 2.01}
	if _, err := e.Insert(inside); err != nil {
		t.Fatal(err)
	}
	got, err = e.WindowQuery(win)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != inside {
		t.Fatalf("window after insert = %v, want [%v]", got, inside)
	}

	st := e.Stats()
	if st.Cache.Hits == 0 || st.Cache.Stale == 0 {
		t.Fatalf("the fault run exercised neither hits nor stale drops: %+v", *st.Cache)
	}
	if st.Cache.Drops != 0 {
		t.Fatalf("advisory drops = %d with qcache/invalidate armed, want 0", st.Cache.Drops)
	}
}

// TestCachedPointQueryZeroAllocs pins the whole engine hit path —
// admission, key derivation, generation read, cache lookup — at zero
// allocations per query.
func TestCachedPointQueryZeroAllocs(t *testing.T) {
	e, _ := cachedEngine(t, 200, 41, Config{})
	defer e.Close()

	pt := geo.Point{X: 0.25, Y: 0.75}
	if _, err := e.Insert(pt); err != nil {
		t.Fatal(err)
	}
	if v, err := e.PointQuery(pt); err != nil || !v {
		t.Fatalf("warm query = %v, %v", v, err)
	}
	indextest.AssertZeroAllocs(t, "engine cached point query", func() {
		v, err := e.PointQuery(pt)
		if err != nil || !v {
			t.Fatalf("hit path returned %v, %v", v, err)
		}
	})

	st := e.Stats()
	if st.Cache.Hits < 100 {
		t.Fatalf("measured path was not the hit path: %+v", *st.Cache)
	}
}

// TestCacheOffStatsOmitted checks the cache field stays absent when
// caching is off, so /stats keeps its old shape for existing scrapers.
func TestCacheOffStatsOmitted(t *testing.T) {
	proc := newTestProcessor(t, 100, 3)
	e := NewWithBackend(NewSingle(proc, 0), nil, Config{})
	defer e.Close()
	if _, err := e.PointQuery(geo.Point{X: 0.5, Y: 0.5}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Cache != nil {
		t.Fatalf("Stats.Cache = %+v without a cache", *st.Cache)
	}
}
