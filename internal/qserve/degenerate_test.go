package qserve

import (
	"math"
	"testing"

	"elsi/internal/base"
	"elsi/internal/dataset"
	"elsi/internal/geo"
	"elsi/internal/index"
	"elsi/internal/lisa"
	"elsi/internal/mlindex"
	"elsi/internal/rebuild"
	"elsi/internal/rmi"
	"elsi/internal/rsmi"
)

// learnedSources adds the remaining learned families to the degenerate
// sweeps: the serving layer can be configured with any of them, so a
// hostile window or k must behave identically serial and batched on
// every family a server can host.
func learnedSources(t *testing.T, pts []geo.Point) map[string]Source {
	t.Helper()
	builder := func() base.ModelBuilder {
		return &base.Direct{Trainer: rmi.PiecewiseTrainer(1.0 / 256)}
	}
	srcs := map[string]Source{
		"MLI":  mlindex.New(mlindex.Config{Space: geo.UnitRect, Builder: builder(), Refs: 16, Fanout: 4, Seed: 1}),
		"LISA": lisa.New(lisa.Config{Space: geo.UnitRect, Builder: builder()}),
		"RSMI": rsmi.New(rsmi.Config{Space: geo.UnitRect, Builder: builder(), Fanout: 8, LeafCap: 256}),
	}
	for name, s := range srcs {
		if err := s.(index.Index).Build(pts); err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
	}
	return srcs
}

// allSources merges the base and learned family maps.
func allSources(t *testing.T, pts []geo.Point) map[string]Source {
	t.Helper()
	srcs := builtSources(t, pts)
	for name, s := range learnedSources(t, pts) {
		srcs[name] = s
	}
	return srcs
}

// degenerateWindows are the window shapes a network client can always
// send: inverted on one or both axes, zero-area (a point or a line),
// far outside the data space, and infinite.
func degenerateWindows() []geo.Rect {
	return []geo.Rect{
		{MinX: 0.8, MinY: 0.8, MaxX: 0.2, MaxY: 0.2},     // fully inverted
		{MinX: 0.2, MinY: 0.8, MaxX: 0.8, MaxY: 0.2},     // inverted on y
		{MinX: 0.5, MinY: 0.1, MaxX: 0.5, MaxY: 0.9},     // zero width
		{MinX: 0.25, MinY: 0.25, MaxX: 0.25, MaxY: 0.25}, // zero area
		{MinX: 3, MinY: 3, MaxX: 4, MaxY: 4},             // outside the space
		{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10},       // covers everything
		{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)},
	}
}

// TestDegenerateWindowsBatchedMatchesSerial drives the degenerate
// windows through every family serially and batched (at several worker
// counts): the answers must match element for element — a window that
// is nonsense serially must be exactly as nonsensical batched.
func TestDegenerateWindowsBatchedMatchesSerial(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 2000, 23)
	wins := degenerateWindows()
	wins = append(wins, geo.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.6}) // one sane window as control
	for name, src := range allSources(t, pts) {
		want := make([][]geo.Point, len(wins))
		for i, w := range wins {
			want[i] = append([]geo.Point(nil), src.WindowQuery(w)...)
		}
		for _, workers := range []int{1, 4} {
			e := New(src, workers)
			got := e.WindowBatch(wins, nil)
			assertEqualResults(t, name, got, want)
		}
	}
}

// TestDegenerateKNNBatchedMatchesSerial covers k <= 0 and k far beyond
// the cardinality through KNNVarBatch with one k for the whole batch.
func TestDegenerateKNNBatchedMatchesSerial(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 500, 29)
	qs := []geo.Point{{X: 0.5, Y: 0.5}, {X: -3, Y: 7}, {X: 0.1, Y: 0.9}, {X: 2, Y: 2}}
	for name, src := range allSources(t, pts) {
		for _, k := range []int{-5, 0, 1, 3, len(pts), len(pts) + 100} {
			want := make([][]geo.Point, len(qs))
			for i, q := range qs {
				want[i] = append([]geo.Point(nil), src.KNN(q, k)...)
			}
			for _, workers := range []int{1, 4} {
				e := New(src, workers)
				got := e.KNNVarBatch(qs, constK(len(qs), k), nil)
				assertEqualResults(t, name, got, want)
			}
		}
	}
}

// TestKNNVarBatchMatchesSerial mixes per-query ks — including zero and
// negative — in one batch and checks each answer against its serial
// counterpart.
func TestKNNVarBatchMatchesSerial(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 500, 31)
	qs := []geo.Point{{X: 0.5, Y: 0.5}, {X: 0.2, Y: 0.8}, {X: 0.9, Y: 0.1}, {X: 0.4, Y: 0.4}, {X: 0, Y: 0}}
	ks := []int{3, 0, -2, 10, 1000}
	for name, src := range allSources(t, pts) {
		want := make([][]geo.Point, len(qs))
		for i, q := range qs {
			want[i] = append([]geo.Point(nil), src.KNN(q, ks[i])...)
		}
		for _, workers := range []int{1, 4} {
			e := New(src, workers)
			got := e.KNNVarBatch(qs, ks, nil)
			assertEqualResults(t, name, got, want)
		}
	}
}

// TestEmptyBatches pins the zero-length batch through all three entry
// points: no panic, zero-length output, reused buffers untouched.
func TestEmptyBatches(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 100, 37)
	for name, src := range allSources(t, pts) {
		e := New(src, 0)
		if got := e.PointBatch(nil, nil); len(got) != 0 {
			t.Errorf("%s: empty PointBatch returned %d answers", name, len(got))
		}
		if got := e.WindowBatch(nil, nil); len(got) != 0 {
			t.Errorf("%s: empty WindowBatch returned %d answers", name, len(got))
		}
		if got := e.KNNVarBatch(nil, nil, nil); len(got) != 0 {
			t.Errorf("%s: empty KNNVarBatch returned %d answers", name, len(got))
		}
		// a reused non-empty out must shrink to the batch size
		reuse := make([][]geo.Point, 3)
		if got := e.WindowBatch(nil, reuse); len(got) != 0 {
			t.Errorf("%s: empty WindowBatch with reused out returned %d answers", name, len(got))
		}
	}
}

// TestDegenerateThroughProcessor runs the same degenerate inputs
// against the rebuild processor (the serving layer's source), with
// pending inserts and deletions in the overlay so the layered filter
// paths see the degenerate shapes too.
func TestDegenerateThroughProcessor(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 1000, 41)
	proc, err := rebuild.NewProcessor(index.NewBruteForce(), nil, pts, func(p geo.Point) float64 { return p.X }, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		proc.Delete(pts[i*7])
		proc.Insert(geo.Point{X: float64(i) / 50, Y: 0.01})
	}
	wins := degenerateWindows()
	wantW := make([][]geo.Point, len(wins))
	for i, w := range wins {
		wantW[i] = append([]geo.Point(nil), proc.WindowQuery(w)...)
	}
	qs := []geo.Point{{X: 0.5, Y: 0.5}, {X: -1, Y: -1}}
	ks := []int{-1, 0}
	wantK := make([][]geo.Point, len(qs))
	for i, q := range qs {
		wantK[i] = append([]geo.Point(nil), proc.KNN(q, ks[i])...)
	}
	for _, workers := range []int{1, 4} {
		e := New(proc, workers)
		assertEqualResults(t, "Processor/window", e.WindowBatch(wins, nil), wantW)
		assertEqualResults(t, "Processor/knn", e.KNNVarBatch(qs, ks, nil), wantK)
		if got := e.PointBatch(nil, nil); len(got) != 0 {
			t.Errorf("Processor: empty PointBatch returned %d answers", len(got))
		}
	}
}
