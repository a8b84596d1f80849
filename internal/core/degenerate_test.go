package core

import (
	"context"
	"fmt"
	"testing"

	"elsi/internal/base"
	"elsi/internal/curve"
	"elsi/internal/geo"
	"elsi/internal/index"
	"elsi/internal/lisa"
	"elsi/internal/methods"
	"elsi/internal/mlindex"
	"elsi/internal/rsmi"
	"elsi/internal/scorer"
	"elsi/internal/zm"
)

// degenerateSets are the inputs that historically break index builds:
// nothing, one point, and a pile of identical points (every key equal).
func degenerateSets() map[string][]geo.Point {
	dup := make([]geo.Point, 64)
	for i := range dup {
		dup[i] = geo.Point{X: 0.25, Y: 0.75}
	}
	return map[string][]geo.Point{
		"empty":      nil,
		"single":     {{X: 0.5, Y: 0.5}},
		"duplicates": dup,
	}
}

// TestPoolBuildersDegenerateData builds every pool method (plus RSP
// and OG) directly on single-point and all-duplicate data — the model
// must come back and cover every rank. Empty partitions never reach a
// method builder (the index families short-circuit them), so they are
// covered by TestSystemDegenerateData below.
func TestPoolBuildersDegenerateData(t *testing.T) {
	builders := scorer.PoolBuildersWorkers(testTrainer(), 1, 1)
	builders[methods.NameRSP] = &methods.RSP{Rho: 0.0001, MinKeys: 500, Trainer: testTrainer(), Seed: 1}
	for name, pts := range degenerateSets() {
		if len(pts) == 0 {
			continue
		}
		d := prepared0(pts)
		for method, b := range builders {
			t.Run(method+"/"+name, func(t *testing.T) {
				m, _, err := base.BuildModelCtx(context.Background(), b, d)
				if err != nil {
					t.Fatalf("%s on %s data: %v", method, name, err)
				}
				checkCovers(t, m, d)
			})
		}
	}
}

// TestSystemDegenerateData runs the full ELSI ladder on each
// degenerate input — including the empty partition, which must come
// back as a usable (if trivial) model, never nil.
func TestSystemDegenerateData(t *testing.T) {
	for name, pts := range degenerateSets() {
		t.Run(name, func(t *testing.T) {
			d := prepared0(pts)
			s := fixedSystem(t, methods.NameSP, 0)
			m, _ := build(t, s, d)
			checkCovers(t, m, d)
		})
	}
}

func prepared0(pts []geo.Point) *base.SortedData {
	return base.Prepare(pts, geo.UnitRect, func(p geo.Point) float64 {
		return float64(curve.ZEncode(p, geo.UnitRect))
	})
}

// TestIndexFamiliesDegenerateData builds the learned index families on
// each degenerate input through an ELSI system and checks the basic
// query contract: stored points are found, phantom points are not,
// window results stay inside the window, and kNN returns what exists.
func TestIndexFamiliesDegenerateData(t *testing.T) {
	mk := func(t *testing.T) *System { return fixedSystem(t, methods.NameSP, 0) }
	families := map[string]func(t *testing.T) rebuildable{
		"zm1": func(t *testing.T) rebuildable {
			return zm.New(zm.Config{Space: geo.UnitRect, Builder: mk(t), Fanout: 1})
		},
		"zm4": func(t *testing.T) rebuildable {
			return zm.New(zm.Config{Space: geo.UnitRect, Builder: mk(t), Fanout: 4})
		},
		"ml": func(t *testing.T) rebuildable {
			return mlindex.New(mlindex.Config{Space: geo.UnitRect, Builder: mk(t), Refs: 4, Seed: 1})
		},
		"lisa": func(t *testing.T) rebuildable {
			return lisa.New(lisa.Config{Space: geo.UnitRect, Builder: mk(t)})
		},
		"rsmi": func(t *testing.T) rebuildable {
			return rsmi.New(rsmi.Config{Space: geo.UnitRect, Builder: mk(t), LeafCap: 16})
		},
	}
	for fam, make := range families {
		for name, pts := range degenerateSets() {
			t.Run(fam+"/"+name, func(t *testing.T) {
				ix := make(t)
				if err := ix.Build(pts); err != nil {
					t.Fatalf("Build(%s): %v", name, err)
				}
				if got := ix.Len(); got != len(pts) {
					t.Fatalf("Len = %d, want %d", got, len(pts))
				}
				phantom := geo.Point{X: 0.987, Y: 0.123}
				if ix.PointQuery(phantom) {
					t.Error("phantom point found")
				}
				win := geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
				got := ix.WindowQuery(win)
				for _, p := range got {
					if !win.Contains(p) {
						t.Errorf("window result %v outside window", p)
					}
				}
				if len(pts) == 0 {
					if len(got) != 0 {
						t.Errorf("empty build returned %d window results", len(got))
					}
					if knn := ix.KNN(phantom, 3); len(knn) != 0 {
						t.Errorf("empty build returned %d kNN results", len(knn))
					}
					return
				}
				if !ix.PointQuery(pts[0]) {
					t.Fatalf("stored point %v not found", pts[0])
				}
				if len(got) == 0 {
					t.Error("full-space window found nothing")
				}
				if len(got) > len(pts) {
					t.Errorf("window returned %d results for %d points", len(got), len(pts))
				}
				knn := ix.KNN(pts[0], 1)
				if len(knn) != 1 || knn[0] != pts[0] {
					t.Errorf("KNN(stored, 1) = %v", knn)
				}
			})
		}
	}
}

// rebuildable mirrors rebuild.Rebuildable without importing it.
type rebuildable interface {
	index.Index
	Build(pts []geo.Point) error
}

// TestIndexBuildRejectsInvalidPoints is the input-validation satellite:
// NaN/±Inf coordinates must be rejected with the typed error at every
// family's build entry.
func TestIndexBuildRejectsInvalidPoints(t *testing.T) {
	nan := func() float64 { var z float64; return 0 / z }()
	bad := [][]geo.Point{
		{{X: nan, Y: 0.5}},
		{{X: 0.5, Y: nan}},
		{{X: 0.1, Y: 0.1}, {X: 1 / func() float64 { var z float64; return z }(), Y: 0.5}},
	}
	mk := func(t *testing.T) *System { return fixedSystem(t, methods.NameSP, 0) }
	families := map[string]func(t *testing.T) rebuildable{
		"zm": func(t *testing.T) rebuildable {
			return zm.New(zm.Config{Space: geo.UnitRect, Builder: mk(t)})
		},
		"ml": func(t *testing.T) rebuildable {
			return mlindex.New(mlindex.Config{Space: geo.UnitRect, Builder: mk(t), Refs: 4, Seed: 1})
		},
		"lisa": func(t *testing.T) rebuildable {
			return lisa.New(lisa.Config{Space: geo.UnitRect, Builder: mk(t)})
		},
		"rsmi": func(t *testing.T) rebuildable {
			return rsmi.New(rsmi.Config{Space: geo.UnitRect, Builder: mk(t)})
		},
		"bruteforce": func(t *testing.T) rebuildable { return index.NewBruteForce() },
	}
	for fam, make := range families {
		for i, pts := range bad {
			t.Run(fmt.Sprintf("%s/%d", fam, i), func(t *testing.T) {
				ix := make(t)
				err := ix.Build(pts)
				var ipe *base.InvalidPointError
				if !asInvalidPoint(err, &ipe) {
					t.Fatalf("Build accepted invalid point, err = %v", err)
				}
			})
		}
	}
}

func asInvalidPoint(err error, target **base.InvalidPointError) bool {
	if err == nil {
		return false
	}
	if e, ok := err.(*base.InvalidPointError); ok {
		*target = e
		return true
	}
	return false
}
