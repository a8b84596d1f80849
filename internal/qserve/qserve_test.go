package qserve

import (
	"math/rand"
	"sync"
	"testing"

	"elsi/internal/base"
	"elsi/internal/dataset"
	"elsi/internal/geo"
	"elsi/internal/grid"
	"elsi/internal/index"
	"elsi/internal/kdb"
	"elsi/internal/rebuild"
	"elsi/internal/rmi"
	"elsi/internal/rtree"
	"elsi/internal/zm"
)

// constK returns n copies of k: the per-query ks of a batch that asks
// every query for the same k.
func constK(n, k int) []int {
	ks := make([]int, n)
	for i := range ks {
		ks[i] = k
	}
	return ks
}

func testQueries(pts []geo.Point, seed int64) (probes []geo.Point, wins []geo.Rect, knn []geo.Point) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 60; i++ {
		probes = append(probes, pts[rng.Intn(len(pts))])
		probes = append(probes, geo.Point{X: rng.Float64()*2 + 1.5, Y: rng.Float64()})
		c := pts[rng.Intn(len(pts))]
		half := 0.005 + rng.Float64()*0.05
		wins = append(wins, geo.Rect{MinX: c.X - half, MinY: c.Y - half, MaxX: c.X + half, MaxY: c.Y + half})
		knn = append(knn, geo.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	return probes, wins, knn
}

func builtSources(t *testing.T, pts []geo.Point) map[string]Source {
	t.Helper()
	builder := func() base.ModelBuilder {
		return &base.Direct{Trainer: rmi.PiecewiseTrainer(1.0 / 256)}
	}
	srcs := map[string]Source{
		"BruteForce": index.NewBruteForce(),
		"ZM":         zm.New(zm.Config{Space: geo.UnitRect, Builder: builder(), Fanout: 4}),
		"Grid":       grid.New(geo.UnitRect),
		"KDB":        kdb.New(geo.UnitRect),
		"HRR":        rtree.NewHRR(geo.UnitRect),
	}
	for name, s := range srcs {
		if err := s.(index.Index).Build(pts); err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
	}
	return srcs
}

func assertEqualResults(t *testing.T, name string, got [][]geo.Point, want [][]geo.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d batched answers, want %d", name, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: query %d: %d points, want %d", name, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: query %d result %d = %v, want %v", name, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestBatchMatchesSerial asserts that for every index family and every
// worker count the batched engine returns exactly the serial answers,
// in input order.
func TestBatchMatchesSerial(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 3000, 17)
	probes, wins, knn := testQueries(pts, 18)
	for name, src := range builtSources(t, pts) {
		wantPoint := make([]bool, len(probes))
		for i, p := range probes {
			wantPoint[i] = src.PointQuery(p)
		}
		wantWin := make([][]geo.Point, len(wins))
		for i, w := range wins {
			wantWin[i] = src.WindowQuery(w)
		}
		wantKNN := make([][]geo.Point, len(knn))
		for i, q := range knn {
			wantKNN[i] = src.KNN(q, 10)
		}
		for _, workers := range []int{1, 4, 13} {
			e := New(src, workers)
			gotPoint := e.PointBatch(probes, nil)
			for i := range gotPoint {
				if gotPoint[i] != wantPoint[i] {
					t.Fatalf("%s workers=%d: PointBatch[%d] = %v, want %v", name, workers, i, gotPoint[i], wantPoint[i])
				}
			}
			assertEqualResults(t, name, e.WindowBatch(wins, nil), wantWin)
			assertEqualResults(t, name, e.KNNVarBatch(knn, constK(len(knn), 10), nil), wantKNN)
		}
	}
}

// TestBatchBufferReuse asserts a second batch through the same buffers
// returns the same answers: reuse must not leak earlier results.
func TestBatchBufferReuse(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 2000, 19)
	_, wins, knn := testQueries(pts, 20)
	for name, src := range builtSources(t, pts) {
		e := New(src, 4)
		first := e.WindowBatch(wins, nil)
		want := make([][]geo.Point, len(first))
		for i := range first {
			want[i] = append([]geo.Point(nil), first[i]...)
		}
		assertEqualResults(t, name, e.WindowBatch(wins, first), want)
		kfirst := e.KNNVarBatch(knn, constK(len(knn), 7), nil)
		kwant := make([][]geo.Point, len(kfirst))
		for i := range kfirst {
			kwant[i] = append([]geo.Point(nil), kfirst[i]...)
		}
		assertEqualResults(t, name, e.KNNVarBatch(knn, constK(len(knn), 7), kfirst), kwant)
	}
}

// TestBatchMatchesBruteForce cross-checks every exact family's batched
// window answers against the brute-force reference as multisets.
func TestBatchMatchesBruteForce(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Skewed, 2500, 21)
	_, wins, _ := testQueries(pts, 22)
	bf := index.NewBruteForce()
	if err := bf.Build(pts); err != nil {
		t.Fatal(err)
	}
	for name, src := range builtSources(t, pts) {
		e := New(src, 0)
		got := e.WindowBatch(wins, nil)
		for i, w := range wins {
			want := bf.WindowQuery(w)
			if r := index.Recall(got[i], want); r < 1 {
				t.Fatalf("%s: window %d recall %.3f < 1", name, i, r)
			}
			if len(got[i]) != len(want) {
				t.Fatalf("%s: window %d: %d results, want %d", name, i, len(got[i]), len(want))
			}
		}
	}
}

// gatedIndex blocks Build until its gate closes, pinning a background
// rebuild in flight.
type gatedIndex struct {
	index.BruteForce
	gate chan struct{}
}

func (g *gatedIndex) Build(pts []geo.Point) error {
	if g.gate != nil {
		<-g.gate
	}
	return g.BruteForce.Build(pts)
}

// TestBatchThroughProcessorDuringRebuild drives the engine against a
// rebuild.Processor while a background rebuild is held in flight, and
// again after it completes: batched answers must equal the serial
// processor answers in both states.
func TestBatchThroughProcessorDuringRebuild(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 2000, 23)
	gate := make(chan struct{})
	p, err := rebuild.NewProcessor(&gatedIndex{}, nil, pts, func(pt geo.Point) float64 { return pt.X }, 4)
	if err != nil {
		t.Fatal(err)
	}
	p.Factory = func() rebuild.Rebuildable { return &gatedIndex{gate: gate} }
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 300; i++ {
		p.Insert(geo.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	p.Rebuild() // background, blocked on the gate
	if !p.Rebuilding() {
		t.Fatal("rebuild not in flight")
	}
	// more updates land in the overlay while the snapshot is frozen
	for i := 0; i < 100; i++ {
		p.Insert(geo.Point{X: rng.Float64(), Y: rng.Float64()})
		p.Delete(pts[rng.Intn(len(pts))])
	}
	probes, wins, knn := testQueries(pts, 25)
	check := func(stage string) {
		e := New(p, 4)
		gotWin := e.WindowBatch(wins, nil)
		for i, w := range wins {
			want := p.WindowQuery(w)
			if len(gotWin[i]) != len(want) {
				t.Fatalf("%s: window %d: %d results, want %d", stage, i, len(gotWin[i]), len(want))
			}
			for j := range want {
				if gotWin[i][j] != want[j] {
					t.Fatalf("%s: window %d result %d mismatch", stage, i, j)
				}
			}
		}
		gotPoint := e.PointBatch(probes, nil)
		for i, pr := range probes {
			if gotPoint[i] != p.PointQuery(pr) {
				t.Fatalf("%s: point %d mismatch", stage, i)
			}
		}
		gotKNN := e.KNNVarBatch(knn, constK(len(knn), 5), nil)
		for i, q := range knn {
			want := p.KNN(q, 5)
			if len(gotKNN[i]) != len(want) {
				t.Fatalf("%s: knn %d: %d results, want %d", stage, i, len(gotKNN[i]), len(want))
			}
			for j := range want {
				if gotKNN[i][j] != want[j] {
					t.Fatalf("%s: knn %d result %d mismatch", stage, i, j)
				}
			}
		}
	}
	check("during rebuild")
	close(gate)
	p.WaitRebuild()
	check("after rebuild")
}

// TestBatchConcurrentWithUpdates races batched queries against live
// insertions through the processor — run under -race this is the
// engine's concurrency safety net; every window answer must still lie
// inside its window.
func TestBatchConcurrentWithUpdates(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 2000, 26)
	p, err := rebuild.NewProcessor(&gatedIndex{}, nil, pts, func(pt geo.Point) float64 { return pt.X }, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	_, wins, knn := testQueries(pts, 27)
	e := New(p, 4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(28))
		// cap the write load so the inserter contends with the readers
		// without starving them for the whole test
		for n := 0; n < 2000; n++ {
			select {
			case <-stop:
				return
			default:
				p.Insert(geo.Point{X: rng.Float64(), Y: rng.Float64()})
			}
		}
	}()
	var out [][]geo.Point
	for round := 0; round < 8; round++ {
		out = e.WindowBatch(wins, out)
		for i, w := range wins {
			for _, pt := range out[i] {
				if !w.Contains(pt) {
					t.Errorf("round %d: window %d returned outside point %v", round, i, pt)
				}
			}
		}
		e.KNNVarBatch(knn, constK(len(knn), 5), nil)
	}
	close(stop)
	wg.Wait()
}
