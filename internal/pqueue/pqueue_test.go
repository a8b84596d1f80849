package pqueue

import (
	"math/rand"
	"sort"
	"testing"

	"elsi/internal/geo"
)

func newKBest(k int) *KBest {
	b := &KBest{}
	b.Reset(k)
	return b
}

func TestMinOrder(t *testing.T) {
	var q Min
	rng := rand.New(rand.NewSource(1))
	var want []float64
	for i := 0; i < 500; i++ {
		d := rng.Float64()
		q.Push(i, d)
		want = append(want, d)
	}
	sort.Float64s(want)
	for i := 0; i < 500; i++ {
		got := q.Pop()
		if got.Dist != want[i] {
			t.Fatalf("pop %d: dist %v, want %v", i, got.Dist, want[i])
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after draining", q.Len())
	}
}

func TestMinPayload(t *testing.T) {
	var q Min
	q.Push("far", 10)
	q.Push("near", 1)
	if got := q.Pop().Value.(string); got != "near" {
		t.Errorf("first pop = %q", got)
	}
	if got := q.Pop().Value.(string); got != "far" {
		t.Errorf("second pop = %q", got)
	}
}

func TestKBestKeepsNearest(t *testing.T) {
	b := newKBest(3)
	pts := []geo.Point{{X: 5}, {X: 1}, {X: 4}, {X: 2}, {X: 3}}
	for _, p := range pts {
		b.Offer(p, p.X*p.X)
	}
	// Full and Worst must be read before Points, which sorts the heap's
	// own storage in place and so consumes the max-heap order.
	if !b.Full() {
		t.Error("Full = false with k candidates")
	}
	if b.Worst() != 9 {
		t.Errorf("Worst = %v, want 9", b.Worst())
	}
	got := b.AppendPoints(nil)
	if len(got) != 3 {
		t.Fatalf("kept %d points", len(got))
	}
	for i, want := range []float64{1, 2, 3} {
		if got[i].X != want {
			t.Errorf("point %d = %v, want X=%v", i, got[i], want)
		}
	}
}

func TestKBestUnderfilled(t *testing.T) {
	b := newKBest(10)
	b.Offer(geo.Point{X: 1}, 1)
	if b.Full() {
		t.Error("Full with 1 of 10")
	}
	if got := b.AppendPoints(nil); len(got) != 1 {
		t.Errorf("Points = %v", got)
	}
}

func TestKBestRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(20)
		n := 1 + rng.Intn(200)
		b := newKBest(k)
		dists := make([]float64, n)
		for i := range dists {
			d := rng.Float64()
			dists[i] = d
			b.Offer(geo.Point{X: d}, d)
		}
		sort.Float64s(dists)
		got := b.AppendPoints(nil)
		wantLen := k
		if n < k {
			wantLen = n
		}
		if len(got) != wantLen {
			t.Fatalf("kept %d, want %d", len(got), wantLen)
		}
		for i := range got {
			if got[i].X != dists[i] {
				t.Fatalf("trial %d: rank %d = %v, want %v", trial, i, got[i].X, dists[i])
			}
		}
	}
}

// TestMergeAppendMatchesDirectOffer splits a candidate stream across
// several per-shard heaps, merges them into a global heap, and checks
// the result is identical to offering every candidate directly.
func TestMergeAppendMatchesDirectOffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(16)
		shards := 1 + rng.Intn(6)
		direct := newKBest(k)
		parts := make([]*KBest, shards)
		for i := range parts {
			parts[i] = newKBest(k)
		}
		n := rng.Intn(300)
		for i := 0; i < n; i++ {
			d := rng.Float64()
			p := geo.Point{X: d, Y: float64(i)}
			direct.Offer(p, d)
			parts[rng.Intn(shards)].Offer(p, d)
		}
		global := newKBest(k)
		for _, part := range parts {
			before := len(part.pts)
			global.MergeAppend(part)
			if len(part.pts) != before {
				t.Fatalf("trial %d: MergeAppend consumed the source heap", trial)
			}
		}
		got := global.AppendPoints(nil)
		want := direct.AppendPoints(nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d candidates, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].X != want[i].X {
				t.Fatalf("trial %d: rank %d dist %v, want %v", trial, i, got[i].X, want[i].X)
			}
		}
	}
}

// TestMergeAppendRespectsBound merges an overfull source into a small
// heap and checks the k-bound holds with the smallest distances kept.
func TestMergeAppendRespectsBound(t *testing.T) {
	src := newKBest(10)
	for i := 0; i < 10; i++ {
		src.Offer(geo.Point{X: float64(i)}, float64(i))
	}
	dst := newKBest(3)
	dst.Offer(geo.Point{X: 0.5}, 0.5)
	dst.MergeAppend(src)
	got := dst.AppendPoints(nil)
	if len(got) != 3 {
		t.Fatalf("kept %d, want 3", len(got))
	}
	for i, want := range []float64{0, 0.5, 1} {
		if got[i].X != want {
			t.Errorf("rank %d = %v, want %v", i, got[i].X, want)
		}
	}
}

// TestMergeAppendZeroAlloc checks the gather path allocates nothing
// once both heaps' storage has warmed up.
func TestMergeAppendZeroAlloc(t *testing.T) {
	src := newKBest(8)
	dst := newKBest(8)
	fill := func() {
		src.Reset(8)
		dst.Reset(8)
		for i := 0; i < 12; i++ {
			src.Offer(geo.Point{X: float64(i)}, float64(i))
			dst.Offer(geo.Point{X: float64(i) + 0.5}, float64(i)+0.5)
		}
	}
	fill()
	dst.MergeAppend(src) // warm both backing arrays
	allocs := testing.AllocsPerRun(100, func() {
		fill()
		dst.MergeAppend(src)
	})
	if allocs != 0 {
		t.Errorf("MergeAppend allocates %.1f per run, want 0", allocs)
	}
}
