package quadtree

import (
	"math/rand"
	"testing"

	"elsi/internal/dataset"
	"elsi/internal/geo"
	"elsi/internal/index"
)

// nonEmptyLeaves counts the leaves holding at least one point — the
// size of the RS training set.
func nonEmptyLeaves(tr *Tree) int {
	count := 0
	tr.Leaves(func(_ geo.Rect, pts []geo.Point) {
		if len(pts) > 0 {
			count++
		}
	})
	return count
}

func TestLeafCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := dataset.UniformPoints(rng, 2000)
	beta := 32
	tr := New(pts, geo.UnitRect, beta)
	total := 0
	tr.Leaves(func(_ geo.Rect, lp []geo.Point) {
		if len(lp) > beta {
			t.Fatalf("leaf holds %d > beta %d points", len(lp), beta)
		}
		total += len(lp)
	})
	if total != 2000 {
		t.Errorf("leaves hold %d points, want 2000", total)
	}
}

func TestLeavesPartitionSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := dataset.SkewedPoints(rng, 1000, 4)
	tr := New(pts, geo.UnitRect, 16)
	var area float64
	tr.Leaves(func(b geo.Rect, lp []geo.Point) {
		area += b.Area()
		for _, p := range lp {
			if !b.Contains(p) {
				t.Fatalf("point %v outside its leaf %v", p, b)
			}
		}
	})
	if area < 0.999 || area > 1.001 {
		t.Errorf("leaf areas sum to %v, want 1", area)
	}
}

func TestWindowQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := dataset.MustGenerate(dataset.OSM1, 3000, 3)
	tr := New(pts, geo.UnitRect, 20)
	bf := index.NewBruteForce()
	bf.Build(pts)
	for i := 0; i < 30; i++ {
		c := pts[rng.Intn(len(pts))]
		win := geo.Rect{MinX: c.X - 0.03, MinY: c.Y - 0.03, MaxX: c.X + 0.03, MaxY: c.Y + 0.03}
		got := tr.WindowQuery(win)
		want := bf.WindowQuery(win)
		if index.Recall(got, want) != 1 || len(got) != len(want) {
			t.Fatalf("window %v: got %d want %d", win, len(got), len(want))
		}
	}
}

// pointRect is the degenerate window holding only p.
func pointRect(p geo.Point) geo.Rect {
	return geo.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}

// TestContains checks that every stored point is reachable: a window
// degenerate to the point finds it, and finds nothing where no point
// was stored.
func TestContains(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := dataset.UniformPoints(rng, 500)
	tr := New(pts, geo.UnitRect, 8)
	for _, p := range pts[:50] {
		if got := tr.WindowQuery(pointRect(p)); len(got) != 1 || got[0] != p {
			t.Fatalf("stored point %v: window found %v", p, got)
		}
	}
	if got := tr.WindowQuery(pointRect(geo.Point{X: -1, Y: -1})); len(got) != 0 {
		t.Errorf("phantom points found: %v", got)
	}
}

func TestDuplicatePointsTerminate(t *testing.T) {
	// 100 identical points with beta=2 must not recurse forever.
	pts := make([]geo.Point, 100)
	for i := range pts {
		pts[i] = geo.Point{X: 0.5, Y: 0.5}
	}
	tr := New(pts, geo.UnitRect, 2)
	if got := tr.WindowQuery(pointRect(geo.Point{X: 0.5, Y: 0.5})); len(got) != 100 {
		t.Errorf("duplicate point found %d times, want 100", len(got))
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(nil, geo.UnitRect, 4)
	if got := tr.WindowQuery(geo.UnitRect); len(got) != 0 {
		t.Errorf("empty tree window query returned %d points", len(got))
	}
	if n := nonEmptyLeaves(tr); n != 0 {
		t.Errorf("non-empty leaves = %d", n)
	}
	if tr.Depth() != 1 {
		t.Errorf("Depth = %d", tr.Depth())
	}
}

func TestNonEmptyLeavesBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := dataset.UniformPoints(rng, 5000)
	beta := 100
	tr := New(pts, geo.UnitRect, beta)
	leaves := nonEmptyLeaves(tr)
	// At least n/beta leaves are needed; the 2^d fanout means at most
	// ~4n/beta non-empty leaves for uniform data.
	if leaves < 5000/beta {
		t.Errorf("too few leaves: %d", leaves)
	}
	if leaves > 4*5000/beta+4 {
		t.Errorf("too many leaves for uniform data: %d", leaves)
	}
}

func TestDepthGrowsWithSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	uni := New(dataset.UniformPoints(rng, 2000), geo.UnitRect, 16)
	nyc := New(dataset.MustGenerate(dataset.NYC, 2000, 6), geo.UnitRect, 16)
	if nyc.Depth() <= uni.Depth() {
		t.Errorf("skewed depth %d not deeper than uniform %d", nyc.Depth(), uni.Depth())
	}
}

func BenchmarkBuild100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := dataset.UniformPoints(rng, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(pts, geo.UnitRect, 100)
	}
}
