package store

import (
	"math/rand"
	"sort"
	"testing"

	"elsi/internal/geo"
)

func makeSorted(t *testing.T, n int, seed int64) *Sorted {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		x := rng.Float64()
		pts[i] = geo.Point{X: x, Y: rng.Float64()}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	keys := make([]float64, n)
	for i, p := range pts {
		keys[i] = p.X
	}
	return NewSortedColumns(keys, pts)
}

func TestNewSortedColumnsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	NewSortedColumns([]float64{1}, nil)
}

func TestNewSortedColumnsAliases(t *testing.T) {
	keys := []float64{1, 2, 3}
	pts := []geo.Point{{X: 1}, {X: 2}, {X: 3}}
	s := NewSortedColumns(keys, pts)
	if &s.Keys()[0] != &keys[0] {
		t.Error("NewSortedColumns copied the key column")
	}
	if &s.Points()[0] != &pts[0] {
		t.Error("NewSortedColumns copied the point column")
	}
}

func TestNewSortedColumnsUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unsorted keys")
		}
	}()
	NewSortedColumns([]float64{2, 1}, make([]geo.Point, 2))
}

func TestKeysIsView(t *testing.T) {
	s := makeSorted(t, 64, 9)
	if &s.Keys()[0] != &s.Keys()[0] {
		t.Error("Keys() is not a stable view")
	}
}

func TestFindPoint(t *testing.T) {
	s := makeSorted(t, 200, 4)
	target := s.PointAt(57)
	if !s.FindPoint(0, s.Len(), target) {
		t.Error("stored point not found")
	}
	if s.FindPoint(0, s.Len(), geo.Point{X: -1, Y: -1}) {
		t.Error("absent point reported found")
	}
	if s.FindPoint(58, s.Len(), target) {
		t.Error("point found outside scan range")
	}
}

func TestFindPointAccounting(t *testing.T) {
	s := makeSorted(t, 100, 13)
	s.ResetScanned()
	s.FindPoint(-5, 1000, geo.Point{X: -1, Y: -1})
	if s.Scanned() != 100 {
		t.Errorf("miss scanned %d entries, want 100", s.Scanned())
	}
	s.ResetScanned()
	s.FindPoint(0, s.Len(), s.PointAt(9))
	if s.Scanned() != 10 {
		t.Errorf("hit at position 9 charged %d, want 10", s.Scanned())
	}
}

func TestCollectWindow(t *testing.T) {
	s := makeSorted(t, 300, 5)
	win := geo.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.5, MaxY: 0.5}
	got := s.CollectWindow(0, s.Len(), win, nil)
	want := 0
	for i := 0; i < s.Len(); i++ {
		if win.Contains(s.PointAt(i)) {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("CollectWindow found %d, want %d", len(got), want)
	}
	for _, p := range got {
		if !win.Contains(p) {
			t.Errorf("collected point %v outside window", p)
		}
	}
	if s.Scanned() != 300 {
		t.Errorf("Scanned = %d, want 300", s.Scanned())
	}
}

func TestCollectRange(t *testing.T) {
	s := makeSorted(t, 50, 8)
	out := s.CollectRange(10, 20, nil)
	if len(out) != 10 {
		t.Fatalf("CollectRange returned %d points, want 10", len(out))
	}
	for i, p := range out {
		if p != s.PointAt(10+i) {
			t.Errorf("out[%d] = %v, want %v", i, p, s.PointAt(10+i))
		}
	}
	if s.Scanned() != 10 {
		t.Errorf("Scanned = %d, want 10", s.Scanned())
	}
	// clamped and appending to a prefix
	out = s.CollectRange(45, 99, out)
	if len(out) != 15 {
		t.Errorf("appended CollectRange len = %d, want 15", len(out))
	}
}

func TestSearchKey(t *testing.T) {
	s := NewSortedColumns([]float64{1, 3, 5}, []geo.Point{{X: 1}, {X: 3}, {X: 5}})
	cases := []struct {
		k    float64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {5, 2}, {6, 3}}
	for _, c := range cases {
		if got := s.SearchKey(c.k); got != c.want {
			t.Errorf("SearchKey(%v) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestFirstGEMatchesSearchKey(t *testing.T) {
	s := makeSorted(t, 1000, 11)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 500; trial++ {
		var k float64
		if trial%3 == 0 {
			k = s.KeyAt(rng.Intn(s.Len())) // exact stored key
		} else {
			k = rng.Float64() * 1.2
		}
		hint := rng.Intn(s.Len())
		want := s.SearchKey(k)
		if got := s.FirstGE(k, hint); got != want {
			t.Fatalf("FirstGE(%v, hint=%d) = %d, want %d", k, hint, got, want)
		}
	}
}

func TestFirstGEHintEdges(t *testing.T) {
	s := NewSortedColumns([]float64{1, 2, 2, 3}, make([]geo.Point, 4))
	if got := s.FirstGE(2, -10); got != 1 {
		t.Errorf("negative hint: %d", got)
	}
	if got := s.FirstGE(2, 100); got != 1 {
		t.Errorf("huge hint: %d", got)
	}
	if got := s.FirstGE(0, 3); got != 0 {
		t.Errorf("below-min: %d", got)
	}
	if got := s.FirstGE(10, 0); got != 4 {
		t.Errorf("above-max: %d", got)
	}
	empty := NewSortedColumns(nil, nil)
	if got := empty.FirstGE(1, 0); got != 0 {
		t.Errorf("empty store: %d", got)
	}
}

func TestFirstGT(t *testing.T) {
	s := NewSortedColumns([]float64{1, 2, 2, 2, 3}, make([]geo.Point, 5))
	if got := s.FirstGT(2, 0); got != 4 {
		t.Errorf("FirstGT(2) = %d, want 4", got)
	}
	if got := s.FirstGT(3, 4); got != 5 {
		t.Errorf("FirstGT(3) = %d, want 5", got)
	}
	if got := s.FirstGT(0.5, 2); got != 0 {
		t.Errorf("FirstGT(0.5) = %d, want 0", got)
	}
	empty := NewSortedColumns(nil, nil)
	if got := empty.FirstGT(1, 0); got != 0 {
		t.Errorf("empty store: %d", got)
	}
}

// TestFirstGTDuplicateRuns pins the galloping FirstGT against the
// brute-force definition on duplicate-heavy keys for every hint.
func TestFirstGTDuplicateRuns(t *testing.T) {
	keys := make([]float64, 0, 600)
	for run := 0; run < 6; run++ {
		for i := 0; i < 100; i++ {
			keys = append(keys, float64(run))
		}
	}
	s := NewSortedColumns(keys, make([]geo.Point, len(keys)))
	probes := []float64{-1, 0, 0.5, 1, 2.5, 3, 5, 6}
	for _, k := range probes {
		want := 0
		for want < len(keys) && keys[want] <= k {
			want++
		}
		for hint := -1; hint <= len(keys); hint += 37 {
			if got := s.FirstGT(k, hint); got != want {
				t.Fatalf("FirstGT(%v, hint=%d) = %d, want %d", k, hint, got, want)
			}
		}
	}
}

// TestFirstGTMatchesFirstGE cross-checks FirstGT against
// FirstGE(nextafter(k)) on random data.
func TestFirstGTMatchesFirstGE(t *testing.T) {
	s := makeSorted(t, 1000, 21)
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 500; trial++ {
		var k float64
		if trial%2 == 0 {
			k = s.KeyAt(rng.Intn(s.Len()))
		} else {
			k = rng.Float64() * 1.2
		}
		hint := rng.Intn(s.Len())
		want := s.SearchKey(k)
		for want < s.Len() && s.KeyAt(want) <= k {
			want++
		}
		if got := s.FirstGT(k, hint); got != want {
			t.Fatalf("FirstGT(%v, hint=%d) = %d, want %d", k, hint, got, want)
		}
	}
}
