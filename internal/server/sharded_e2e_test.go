package server_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"elsi/internal/client"
	"elsi/internal/curve"
	"elsi/internal/dataset"
	"elsi/internal/engine"
	"elsi/internal/geo"
	"elsi/internal/index"
	"elsi/internal/rebuild"
	"elsi/internal/server"
	"elsi/internal/shard"
)

// canon sorts a window result into the router's canonical (X, Y)
// order so unsharded answers compare against sharded ones.
func canon(pts []geo.Point) []geo.Point {
	out := append([]geo.Point(nil), pts...)
	shard.SortPointsXY(out)
	return out
}

// TestShardedServerE2E serves a 4-shard router over both transports
// and checks every answer against an unsharded reference processor
// holding the same points: queries while clients also write through
// the server (mirrored into the reference), a settled full-space
// sweep, and the /stats per-shard breakdown.
func TestShardedServerE2E(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 3000, 71)
	mk := func(sub []geo.Point) (*rebuild.Processor, error) {
		proc, err := rebuild.NewProcessor(index.NewBruteForce(), nil, sub, xKey, 1<<30)
		if err != nil {
			return nil, err
		}
		proc.Factory = func() rebuild.Rebuildable { return index.NewBruteForce() }
		return proc, nil
	}
	r, err := shard.New(pts, geo.UnitRect, shard.Config{Shards: 4}, mk)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rebuild.NewProcessor(index.NewBruteForce(), nil, pts, xKey, 1<<30)
	if err != nil {
		t.Fatal(err)
	}

	eng := engine.NewWithBackend(r, nil, engine.Config{MaxBatch: 8, FlushInterval: 500 * time.Microsecond})
	srv := server.New(eng)
	if err := srv.Start(context.Background(), "127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })

	hc := &client.HTTP{Base: "http://" + srv.HTTPAddr()}
	tc, err := client.DialTCP(srv.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	// --- phase A: read-only equivalence across transports ---
	type queryClient interface {
		PointQuery(pt geo.Point) (bool, error)
		WindowQuery(win geo.Rect) ([]geo.Point, error)
		KNN(q geo.Point, k int) ([]geo.Point, error)
	}
	var wg sync.WaitGroup
	for ci, qc := range []queryClient{hc, tc} {
		ci, qc := ci, qc
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + ci)))
			for i := 0; i < 40; i++ {
				q := geo.Point{X: rng.Float64(), Y: rng.Float64()}
				switch rng.Intn(3) {
				case 0:
					want := ref.PointQuery(q)
					if got, err := qc.PointQuery(q); err != nil {
						t.Errorf("client %d: PointQuery: %v", ci, err)
					} else if got != want {
						t.Errorf("client %d: PointQuery(%v) = %v, want %v", ci, q, got, want)
					}
				case 1:
					win := geo.Rect{MinX: q.X, MinY: q.Y, MaxX: q.X + 0.15, MaxY: q.Y + 0.15}
					want := canon(ref.WindowQuery(win))
					if got, err := qc.WindowQuery(win); err != nil {
						t.Errorf("client %d: WindowQuery: %v", ci, err)
					} else if !samePoints(got, want) {
						t.Errorf("client %d: WindowQuery(%v) returned %d pts, want %d", ci, win, len(got), len(want))
					}
				default:
					k := 1 + rng.Intn(15)
					want := ref.KNN(q, k)
					if got, err := qc.KNN(q, k); err != nil {
						t.Errorf("client %d: KNN: %v", ci, err)
					} else if !samePoints(got, want) {
						t.Errorf("client %d: KNN(%v, %d) returned %d pts, want %d", ci, q, k, len(got), len(want))
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// --- phase B: writes through both transports, mirrored into the
	// reference, then a settled full-space sweep must agree ---
	rng := rand.New(rand.NewSource(81))
	type updateClient interface {
		Insert(pt geo.Point) (bool, error)
		Delete(pt geo.Point) (bool, error)
	}
	for _, uc := range []updateClient{hc, tc} {
		for i := 0; i < 30; i++ {
			if rng.Intn(2) == 0 {
				p := geo.Point{X: rng.Float64(), Y: rng.Float64()}
				if _, err := uc.Insert(p); err != nil {
					t.Fatalf("Insert: %v", err)
				}
				ref.Insert(p)
			} else {
				p := pts[rng.Intn(len(pts))]
				if _, err := uc.Delete(p); err != nil {
					t.Fatalf("Delete: %v", err)
				}
				ref.Delete(p)
			}
		}
	}
	want := canon(ref.WindowQuery(geo.UnitRect))
	gotHTTP, err := hc.WindowQuery(geo.UnitRect)
	if err != nil {
		t.Fatal(err)
	}
	gotTCP, err := tc.WindowQuery(geo.UnitRect)
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(gotHTTP, want) || !samePoints(gotTCP, want) {
		t.Errorf("settled sweep diverged: HTTP %d pts, TCP %d pts, reference %d pts",
			len(gotHTTP), len(gotTCP), len(want))
	}

	// --- phase C: the per-shard breakdown flows over both transports ---
	stHTTP, err := hc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	stTCP, err := tc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]engine.Stats{"HTTP": stHTTP, "TCP": stTCP} {
		if len(st.Shards) != r.NumShards() {
			t.Fatalf("%s stats: %d shard entries, want %d", name, len(st.Shards), r.NumShards())
		}
		if st.Len != ref.Len() {
			t.Errorf("%s stats: Len = %d, want %d", name, st.Len, ref.Len())
		}
		sum, lo := 0, uint64(0)
		var points, inserts int64
		for i, ss := range st.Shards {
			if ss.KeyLo != lo {
				t.Errorf("%s stats: shard %d KeyLo = %d, want %d (contiguous coverage)", name, i, ss.KeyLo, lo)
			}
			lo = ss.KeyHi + 1
			sum += ss.Len
			points += ss.PointQueries
			inserts += ss.Inserts
		}
		if st.Shards[len(st.Shards)-1].KeyHi != curve.MaxKey {
			t.Errorf("%s stats: last shard KeyHi = %d, want MaxKey", name, st.Shards[len(st.Shards)-1].KeyHi)
		}
		if sum != st.Len {
			t.Errorf("%s stats: shard Lens sum to %d, want %d", name, sum, st.Len)
		}
		if points == 0 || inserts == 0 {
			t.Errorf("%s stats: per-shard counters did not move: points=%d inserts=%d", name, points, inserts)
		}
	}
}
