package mlindex

import (
	"math"
	"testing"

	"elsi/internal/base"
	"elsi/internal/dataset"
	"elsi/internal/geo"
	"elsi/internal/indextest"
	"elsi/internal/methods"
	"elsi/internal/rmi"
)

func ogBuilder() base.ModelBuilder {
	return &base.Direct{Trainer: rmi.PiecewiseTrainer(1.0 / 256)}
}

func TestConformanceOG(t *testing.T) {
	for _, name := range dataset.All() {
		t.Run(name, func(t *testing.T) {
			pts := dataset.MustGenerate(name, 3000, 1)
			ix := New(Config{Space: geo.UnitRect, Builder: ogBuilder(), Refs: 8, Seed: 1})
			indextest.Conformance(t, ix, pts, 42, 1.0, 1.0)
		})
	}
}

func TestConformanceReducedBuilder(t *testing.T) {
	pts := dataset.MustGenerate(dataset.OSM2, 4000, 2)
	b := &methods.SP{Rho: 0.02, Trainer: rmi.PiecewiseTrainer(1.0 / 256)}
	ix := New(Config{Space: geo.UnitRect, Builder: b, Refs: 8, Seed: 1})
	indextest.Conformance(t, ix, pts, 43, 1.0, 1.0)
}

func TestConformanceStaged(t *testing.T) {
	pts := dataset.MustGenerate(dataset.NYC, 3000, 3)
	ix := New(Config{Space: geo.UnitRect, Builder: ogBuilder(), Refs: 8, Fanout: 4, Seed: 1})
	indextest.Conformance(t, ix, pts, 44, 1.0, 1.0)
}

func TestMapKeyStructure(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 1000, 4)
	ix := New(Config{Space: geo.UnitRect, Builder: ogBuilder(), Refs: 4, Seed: 1})
	ix.Build(pts)
	if len(ix.refs) != 4 {
		t.Fatalf("got %d refs", len(ix.refs))
	}
	for _, p := range pts[:100] {
		k := ix.MapKey(p)
		id := int(k / stride)
		if id < 0 || id >= 4 {
			t.Fatalf("key %v implies ref %d", k, id)
		}
		d := k - float64(id)*stride
		if d < 0 || d > math.Sqrt2+1e-9 {
			t.Fatalf("distance component %v out of range", d)
		}
		// the distance component equals the distance to the claimed ref
		if got := p.Dist(ix.refs[id]); math.Abs(got-d) > 1e-9 {
			t.Fatalf("distance %v != %v", got, d)
		}
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := New(Config{Space: geo.UnitRect, Builder: ogBuilder()})
	if err := ix.Build(nil); err != nil {
		t.Fatal(err)
	}
	if ix.PointQuery(geo.Point{X: 0.5, Y: 0.5}) {
		t.Error("phantom point")
	}
	if got := ix.KNN(geo.Point{}, 3); got != nil {
		t.Errorf("empty KNN = %v", got)
	}
}

func TestCounters(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 1000, 5)
	ix := New(Config{Space: geo.UnitRect, Builder: ogBuilder(), Refs: 4, Seed: 1})
	ix.Build(pts)
	ix.ResetCounters()
	ix.PointQuery(pts[0])
	if ix.ModelInvocations() != 1 {
		t.Errorf("invocations = %d", ix.ModelInvocations())
	}
	if ix.Scanned() == 0 {
		t.Error("no scanning recorded")
	}
	if len(ix.Stats()) == 0 {
		t.Error("no stats recorded")
	}
}

func BenchmarkPointQuery(b *testing.B) {
	pts := dataset.MustGenerate(dataset.OSM1, 100000, 1)
	ix := New(Config{Space: geo.UnitRect, Builder: ogBuilder(), Refs: 16, Seed: 1})
	ix.Build(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.PointQuery(pts[i%len(pts)])
	}
}

func TestMaxDistToRect(t *testing.T) {
	r := geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	// from the origin corner, the farthest point is (1,1)
	if got := maxDistToRect(geo.Point{X: 0, Y: 0}, r); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("corner maxDist = %v", got)
	}
	// from the center, any corner at sqrt(0.5)
	if got := maxDistToRect(geo.Point{X: 0.5, Y: 0.5}, r); math.Abs(got-math.Sqrt(0.5)) > 1e-12 {
		t.Errorf("center maxDist = %v", got)
	}
	// from outside, the opposite corner
	if got := maxDistToRect(geo.Point{X: 2, Y: 2}, r); math.Abs(got-2*math.Sqrt2) > 1e-12 {
		t.Errorf("outside maxDist = %v", got)
	}
}
