package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"elsi/internal/base"
	"elsi/internal/core"
	"elsi/internal/dataset"
	"elsi/internal/geo"
	"elsi/internal/ndim"
	"elsi/internal/rebuild"
	"elsi/internal/rmi"
	"elsi/internal/scorer"
	"elsi/internal/zm"
)

// This file holds experiments beyond the paper's evaluation: deletion
// workloads (the paper covers insertions only "due to the space
// limit"), parallel bulk building, the PGM-style theoretical bounds
// the paper lists as future work, and the window-aware method scorer
// of Section IV-B1's "other query types" remark.

// ExtDelete studies mixed insert/delete workloads through the update
// processor: deletions are the paper's untested half of the update
// path.
func ExtDelete(w io.Writer, e *Env) error {
	n0 := e.N / 10
	if n0 < 500 {
		n0 = 500
	}
	initial := dataset.MustGenerate(dataset.OSM1, n0, e.Seed)
	rng := rand.New(rand.NewSource(e.Seed + 201))

	tw := table(w)
	defer tw.Flush()
	row(tw, "index", "deleted%", "point_query", "window_query", "pending", "rebuilds")
	for _, name := range LearnedNames() {
		ix, err := NewLearned(name, e.System(name, 0.8, core.SelectorLearned, ""), n0)
		if err != nil {
			return err
		}
		proc, err := rebuild.NewProcessor(asRebuildable(ix), e.Predictor, initial, mapKeyOf(ix), n0/8)
		if err != nil {
			return err
		}
		remaining := append([]geo.Point(nil), initial...)
		deleted := 0
		for _, pct := range []int{5, 10, 20, 40} {
			target := n0 * pct / 100
			for deleted < target && len(remaining) > 1 {
				i := rng.Intn(len(remaining))
				proc.Delete(remaining[i])
				remaining[i] = remaining[len(remaining)-1]
				remaining = remaining[:len(remaining)-1]
				deleted++
			}
			pq := PointQueryTime(proc, remaining, e.Queries/2, e.Seed+77)
			wq := WindowQueryTime(proc, remaining, e.Queries/8+5, 0.0001, e.Seed+79)
			row(tw, name+"-R", fmt.Sprintf("%d", pct), micros(pq), micros(wq.AvgTime), proc.PendingUpdates(), proc.Rebuilds())
		}
	}
	return nil
}

// ExtParallel measures parallel leaf-model building: the per-partition
// models are independent, so the map-and-sort bulk load parallelizes.
func ExtParallel(w io.Writer, e *Env) error {
	pts := dataset.MustGenerate(dataset.OSM1, e.N, e.Seed)
	fanout := 16
	tw := table(w)
	defer tw.Flush()
	row(tw, "workers", "build_time", "speedup")
	var base1 time.Duration
	maxWorkers := runtime.GOMAXPROCS(0)
	if maxWorkers > 8 {
		maxWorkers = 8
	}
	if maxWorkers < 4 {
		// still exercise the concurrent path (no speedup expected on a
		// starved machine, but correctness and overhead are visible)
		maxWorkers = 4
	}
	for workers := 1; workers <= maxWorkers; workers *= 2 {
		ix := zm.New(zm.Config{
			Space:   geo.UnitRect,
			Builder: e.ogBuilder(),
			Fanout:  fanout,
			Workers: workers,
		})
		bt, err := BuildTimed(ix, pts)
		if err != nil {
			return err
		}
		if workers == 1 {
			base1 = bt
		}
		speedup := float64(base1) / float64(bt)
		row(tw, workers, secs(bt), fmt.Sprintf("%.2fx", speedup))
	}
	return nil
}

// ExtTheory contrasts the empirical error bounds of Algorithm 1
// (model-dependent M(n) pass) with the PGM-style theoretical bounds
// derived from the piecewise trainer's eps guarantee — the future-work
// direction of Section IV-A. ExtTheoryCtx is the cancellable form.
func ExtTheory(w io.Writer, e *Env) error {
	return ExtTheoryCtx(context.Background(), w, e)
}

// ExtTheoryCtx is ExtTheory with build cancellation: ctx is threaded
// into every empirical-bounds build.
func ExtTheoryCtx(ctx context.Context, w io.Writer, e *Env) error {
	pts := dataset.MustGenerate(dataset.OSM1, e.N, e.Seed)
	ix := zm.New(zm.Config{Space: geo.UnitRect, Builder: e.ogBuilder()})
	d := base.Prepare(pts, geo.UnitRect, ix.MapKey)

	tw := table(w)
	defer tw.Flush()
	row(tw, "variant", "eps", "build_time", "|error|", "guaranteed")
	for _, eps := range []float64{1.0 / 64, 1.0 / 256, 1.0 / 1024} {
		t0 := time.Now()
		theo := rmi.NewBoundedTheoretical(d.Keys, eps)
		theoTime := time.Since(t0)
		row(tw, "theoretical", fmt.Sprintf("1/%d", int(1/eps)), secs(theoTime), theo.ErrBoundsWidth(), "yes")

		t0 = time.Now()
		emp, err := rmi.NewBounded(ctx, rmi.PiecewiseTrainer(eps), d.Keys, d.Keys, 0)
		empTime := time.Since(t0)
		if err != nil {
			return err
		}
		row(tw, "empirical", fmt.Sprintf("1/%d", int(1/eps)), secs(empTime), emp.ErrBoundsWidth(), "no (measured)")
	}
	return nil
}

// ExtWindow evaluates the window-aware scorer: the method chosen for a
// window-heavy workload can differ from the point-query choice.
func ExtWindow(w io.Writer, e *Env) error {
	cards := scaledCards(e.N)
	gen := scorer.GenConfig{
		Cardinalities: cards[:2],
		Dists:         []float64{0, 0.3, 0.6, 0.9},
		Trainer:       fastPrepTrainer(e),
		Queries:       100,
		Seed:          e.Seed,
	}
	samples := scorer.GenerateWindowSamples(gen, 0.0001)
	ws, err := scorer.TrainWithWindow(samples, scorer.Config{Hidden: 24, Epochs: 300, Seed: e.Seed})
	if err != nil {
		return err
	}
	tw := table(w)
	defer tw.Flush()
	row(tw, "n", "dist", "point_choice", "window_choice(f=1)", "mixed_choice(f=0.5)")
	for _, n := range gen.Cardinalities {
		for _, dist := range gen.Dists {
			p := ws.SelectMixed(nil, n, dist, 0.5, 1, 0)
			win := ws.SelectMixed(nil, n, dist, 0.5, 1, 1)
			mix := ws.SelectMixed(nil, n, dist, 0.5, 1, 0.5)
			row(tw, n, fmt.Sprintf("%.1f", dist), p, win, mix)
		}
	}
	return nil
}

// ExtLatency reports point-query tail latencies (P50/P95/P99) per
// index on the OSM1 surrogate — averages hide the scan-window blowups
// that error-bound-based indices exhibit on sparse regions.
func ExtLatency(w io.Writer, e *Env) error {
	pts := dataset.MustGenerate(dataset.OSM1, e.N, e.Seed)
	names, qs, err := e.variantSet(dataset.OSM1, e.N, e.Seed)
	if err != nil {
		return err
	}
	tw := table(w)
	defer tw.Flush()
	row(tw, "index", "mean", "p50", "p95", "p99", "max")
	for i, name := range names {
		s := PointQueryLatencies(qs[i], pts, e.Queries, e.Seed+83)
		row(tw, name, micros(s.Mean), micros(s.P50), micros(s.P95), micros(s.P99), micros(s.Max))
	}
	return nil
}

// ExtPerIndex contrasts the generic (surrogate-measured) scorer with a
// scorer whose ground truth was measured on the target index itself,
// as Section VII-B2 prescribes ("When integrated with a base index,
// we use every applicable method ... to build an index"). LISA is the
// index whose mapping strays farthest from the surrogate.
func ExtPerIndex(w io.Writer, e *Env) error {
	pts := dataset.MustGenerate(dataset.OSM1, e.N, e.Seed)
	tw := table(w)
	defer tw.Flush()
	row(tw, "index", "scorer", "chosen", "build_time", "point_query")
	for _, name := range []string{NameLISA, NameML} {
		perIdx, _, err := e.TrainPerIndexScorer(name, nil, nil)
		if err != nil {
			return err
		}
		for _, variant := range []struct {
			label string
			sc    *scorer.Scorer
		}{{"generic", e.Scorer}, {"per-index", perIdx}} {
			sys := core.MustNewSystem(core.Config{
				Trainer:  e.Trainer,
				Lambda:   0.8,
				WQ:       1,
				Pool:     core.PoolForIndex(name),
				Selector: core.SelectorLearned,
				Scorer:   variant.sc,
				Seed:     e.Seed,
			})
			ix, err := NewLearned(name, sys, e.N)
			if err != nil {
				return err
			}
			bt, err := BuildTimed(ix, pts)
			if err != nil {
				return err
			}
			q := PointQueryTime(ix, pts, e.Queries, e.Seed+91)
			chosen := ""
			for m, c := range sys.Selections() {
				if chosen != "" {
					chosen += "+"
				}
				chosen += fmt.Sprintf("%s:%d", m, c)
			}
			row(tw, name, variant.label, chosen, secs(bt), micros(q))
		}
	}
	return nil
}

// Ext3D runs the d-dimensional build study: OG vs RS-reduced training
// of the 3-D Morton-mapped learned index (Definition 1 is
// d-dimensional; the 2-D experiments are the paper's evaluation
// setting, this driver shows the mechanisms carry over).
func Ext3D(w io.Writer, e *Env) error {
	rng := rand.New(rand.NewSource(e.Seed + 301))
	pts := make([]ndim.Point, e.N)
	for i := range pts {
		// skewed 3-D cloud: dense floor plus sparse volume
		z := rng.Float64()
		z = z * z * z
		pts[i] = ndim.Point{rng.Float64(), rng.Float64(), z}
	}
	space := ndim.UnitCube(3)
	tw := table(w)
	defer tw.Flush()
	row(tw, "variant", "build_time", "|train set|", "|error|", "point_query")
	for _, v := range []struct {
		name   string
		rsBeta int
	}{{"OG", 0}, {"ELSI/RS", 400}} {
		ix := ndim.NewIndex(space, e.Trainer, v.rsBeta)
		t0 := time.Now()
		if err := ix.Build(pts); err != nil {
			return err
		}
		bt := time.Since(t0)
		qs := make([]ndim.Point, e.Queries)
		for i := range qs {
			qs[i] = pts[rng.Intn(len(pts))]
		}
		t0 = time.Now()
		for _, q := range qs {
			if !ix.PointQuery(q) {
				return fmt.Errorf("ext-3d: stored point lost under %s", v.name)
			}
		}
		q := time.Since(t0) / time.Duration(len(qs))
		row(tw, v.name, secs(bt), ix.TrainSetSize(), ix.ErrWidth(), micros(q))
	}
	return nil
}
