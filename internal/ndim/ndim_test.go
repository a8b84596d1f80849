package ndim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"elsi/internal/rmi"
)

func randPoints(rng *rand.Rand, n, d int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// skewPoints concentrates the last dimension near zero (the d-dim
// analogue of the paper's Skewed set).
func skewPoints(rng *rand.Rand, n, d int) []Point {
	pts := randPoints(rng, n, d)
	for _, p := range pts {
		v := p[d-1]
		p[d-1] = v * v * v * v
	}
	return pts
}

func TestPointRectBasics(t *testing.T) {
	r := UnitCube(3)
	if r.Dim() != 3 {
		t.Fatalf("Dim = %d", r.Dim())
	}
	if !r.Contains(Point{0.5, 0.5, 0.5}) {
		t.Error("center not contained")
	}
	if r.Contains(Point{0.5, 1.5, 0.5}) {
		t.Error("outside point contained")
	}
	if got := r.Volume(); got != 1 {
		t.Errorf("Volume = %v", got)
	}
	p, q := Point{0, 0, 0}, Point{1, 2, 2}
	if p.Dist2(q) != 9 {
		t.Errorf("Dist2 = %v", p.Dist2(q))
	}
	if !p.Equal(p.Clone()) || p.Equal(q) || p.Equal(Point{0, 0}) {
		t.Error("Equal misbehaves")
	}
}

func TestChildPartitioning(t *testing.T) {
	r := UnitCube(3)
	// the 8 children partition the cube: volumes sum to 1, each point
	// routes to the child that contains it
	total := 0.0
	for m := 0; m < 8; m++ {
		total += r.Child(m).Volume()
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("child volumes sum to %v", total)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := randPoints(rng, 1, 3)[0]
		m := r.ChildOf(p)
		if !r.Child(m).Contains(p) {
			t.Fatalf("point %v routed to child %d not containing it", p, m)
		}
	}
}

func TestZEncodeMonotoneUnderDomination(t *testing.T) {
	// the conservative window-scan correctness rests on this: if p <= q
	// coordinate-wise, then ZKey(p) <= ZKey(q)
	rng := rand.New(rand.NewSource(2))
	for _, d := range []int{2, 3, 4} {
		space := UnitCube(d)
		for trial := 0; trial < 500; trial++ {
			p := randPoints(rng, 1, d)[0]
			q := p.Clone()
			for i := range q {
				q[i] += rng.Float64() * (1 - q[i])
			}
			if ZKey(p, space) > ZKey(q, space) {
				t.Fatalf("d=%d: ZKey not monotone: %v > %v", d, p, q)
			}
		}
	}
}

func TestQuickZKeyExactFloat(t *testing.T) {
	// keys must survive the float64 round trip exactly
	f := func(a, b, c float64) bool {
		clamp := func(v float64) float64 {
			if v != v || v < 0 {
				return 0
			}
			if v > 1 {
				return 1
			}
			return v
		}
		p := Point{clamp(a), clamp(b), clamp(c)}
		k := ZEncode(p, UnitCube(3))
		return uint64(float64(k)) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRepresentativeKeysShrinkAndPreserve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{2, 3} {
		pts := skewPoints(rng, 5000, d)
		space := UnitCube(d)
		keys := RepresentativeKeys(pts, space, 200)
		if len(keys) >= len(pts)/4 {
			t.Errorf("d=%d: |Ds| = %d not much smaller than n", d, len(keys))
		}
		if len(keys) < 5000/200 {
			t.Errorf("d=%d: |Ds| = %d too small", d, len(keys))
		}
		if !sort.Float64sAreSorted(keys) {
			t.Fatalf("d=%d: keys not sorted", d)
		}
	}
}

func TestRepresentativeKeysDuplicates(t *testing.T) {
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Point{0.5, 0.5, 0.5}
	}
	keys := RepresentativeKeys(pts, UnitCube(3), 10)
	if len(keys) == 0 {
		t.Fatal("no representatives for duplicate cloud")
	}
}

func testIndexQueries(t *testing.T, d int, rsBeta int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(4 + d)))
	pts := skewPoints(rng, 3000, d)
	space := UnitCube(d)
	ix := NewIndex(space, rmi.PiecewiseTrainer(1.0/256), rsBeta)
	if err := ix.Build(pts); err != nil {
		t.Fatal(err)
	}
	if len(ix.pts) != 3000 {
		t.Fatalf("Len = %d", len(ix.pts))
	}
	// exact point queries
	for _, p := range pts[:300] {
		if !ix.PointQuery(p) {
			t.Fatalf("d=%d: stored point %v not found", d, p)
		}
	}
	off := make(Point, d)
	for i := range off {
		off[i] = 2
	}
	if ix.PointQuery(off) {
		t.Error("phantom point found")
	}
	// exact windows vs brute force
	for trial := 0; trial < 20; trial++ {
		c := pts[rng.Intn(len(pts))]
		win := Rect{Min: make(Point, d), Max: make(Point, d)}
		for i := 0; i < d; i++ {
			win.Min[i] = c[i] - 0.1
			win.Max[i] = c[i] + 0.1
		}
		got := ix.WindowQuery(win)
		want := 0
		for _, p := range pts {
			if win.Contains(p) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("d=%d: window got %d want %d", d, len(got), want)
		}
	}
	// exact kNN vs brute force (distance-tolerant)
	for trial := 0; trial < 10; trial++ {
		q := pts[rng.Intn(len(pts))]
		got := ix.KNN(q, 10)
		if len(got) != 10 {
			t.Fatalf("d=%d: KNN returned %d", d, len(got))
		}
		// brute force k-th distance
		ds := make([]float64, len(pts))
		for i, p := range pts {
			ds[i] = p.Dist2(q)
		}
		sort.Float64s(ds)
		kth := ds[9]
		for _, p := range got {
			if p.Dist2(q) > kth+1e-12 {
				t.Fatalf("d=%d: kNN result %v farther than true k-th", d, p)
			}
		}
	}
}

func TestIndex3DOG(t *testing.T) { testIndexQueries(t, 3, 0) }
func TestIndex3DRS(t *testing.T) { testIndexQueries(t, 3, 200) }
func TestIndex4DRS(t *testing.T) { testIndexQueries(t, 4, 200) }
func TestIndex2DOG(t *testing.T) { testIndexQueries(t, 2, 0) }

func TestRSReductionShrinksTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := skewPoints(rng, 8000, 3)
	space := UnitCube(3)
	og := NewIndex(space, rmi.PiecewiseTrainer(1.0/256), 0)
	rs := NewIndex(space, rmi.PiecewiseTrainer(1.0/256), 400)
	og.Build(pts)
	rs.Build(pts)
	if og.TrainSetSize() != 8000 {
		t.Errorf("OG train size = %d", og.TrainSetSize())
	}
	if rs.TrainSetSize() >= og.TrainSetSize()/4 {
		t.Errorf("RS train size = %d not << %d", rs.TrainSetSize(), og.TrainSetSize())
	}
	if rs.ErrWidth() <= 0 && og.ErrWidth() <= 0 {
		t.Log("both models fit perfectly (acceptable at this scale)")
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := NewIndex(UnitCube(3), rmi.LinearTrainer(), 0)
	ix.Build(nil)
	if ix.PointQuery(Point{0.5, 0.5, 0.5}) {
		t.Error("phantom in empty index")
	}
	if got := ix.KNN(Point{0, 0, 0}, 3); got != nil {
		t.Errorf("empty KNN = %v", got)
	}
	if got := ix.WindowQuery(UnitCube(3)); len(got) != 0 {
		t.Errorf("empty window = %d", len(got))
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{2: 26, 3: 17, 4: 13, 0: 0}
	for d, want := range cases {
		if got := BitsFor(d); got != want {
			t.Errorf("BitsFor(%d) = %d, want %d", d, got, want)
		}
	}
	// total bits never exceed float64's exact-integer range
	for d := 2; d <= 10; d++ {
		if BitsFor(d)*d > 52 {
			t.Errorf("d=%d: %d total bits exceed 52", d, BitsFor(d)*d)
		}
	}
}

// TestIndexDegenerateData covers the historically fragile inputs for
// the d-dimensional index: empty, single-point, and all-duplicate
// builds, on both the OG and RS-reduced training paths.
func TestIndexDegenerateData(t *testing.T) {
	dup := make([]Point, 64)
	for i := range dup {
		dup[i] = Point{0.25, 0.75, 0.5}
	}
	sets := map[string][]Point{
		"empty":      nil,
		"single":     {{0.5, 0.5, 0.5}},
		"duplicates": dup,
	}
	for _, rsBeta := range []int{0, 10} {
		for name, pts := range sets {
			t.Run(fmt.Sprintf("beta%d/%s", rsBeta, name), func(t *testing.T) {
				ix := NewIndex(UnitCube(3), rmi.PiecewiseTrainer(1.0/256), rsBeta)
				if err := ix.Build(pts); err != nil {
					t.Fatalf("Build(%s): %v", name, err)
				}
				if len(ix.pts) != len(pts) {
					t.Fatalf("Len = %d, want %d", len(ix.pts), len(pts))
				}
				if ix.PointQuery(Point{0.987, 0.123, 0.555}) {
					t.Error("phantom point found")
				}
				win := Rect{Min: Point{0, 0, 0}, Max: Point{1, 1, 1}}
				got := ix.WindowQuery(win)
				if len(pts) == 0 {
					if len(got) != 0 {
						t.Errorf("empty build returned %d window results", len(got))
					}
					if knn := ix.KNN(Point{0.5, 0.5, 0.5}, 3); len(knn) != 0 {
						t.Errorf("empty build returned %d kNN results", len(knn))
					}
					return
				}
				if !ix.PointQuery(pts[0]) {
					t.Fatalf("stored point %v not found", pts[0])
				}
				if len(got) != len(pts) {
					t.Errorf("full-space window returned %d of %d points", len(got), len(pts))
				}
				knn := ix.KNN(pts[0], 1)
				if len(knn) != 1 || !knn[0].Equal(pts[0]) {
					t.Errorf("KNN(stored, 1) = %v", knn)
				}
			})
		}
	}
}

// TestIndexBuildRejectsInvalidPoints pins the input-validation
// contract: NaN/±Inf coordinates are rejected before any key mapping.
func TestIndexBuildRejectsInvalidPoints(t *testing.T) {
	nan := math.NaN()
	bad := [][]Point{
		{{nan, 0.5, 0.5}},
		{{0.5, math.Inf(1), 0.5}},
		{{0.1, 0.1, 0.1}, {0.5, 0.5, math.Inf(-1)}},
	}
	for i, pts := range bad {
		ix := NewIndex(UnitCube(3), rmi.PiecewiseTrainer(1.0/256), 0)
		if err := ix.Build(pts); err == nil {
			t.Errorf("case %d: Build accepted invalid point", i)
		}
	}
}
