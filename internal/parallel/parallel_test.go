package parallel

import (
	"context"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
)

func TestForCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1023, 1024, 4096, 100001} {
		for _, workers := range []int{1, 2, 3, 8} {
			counts := make([]int32, n)
			For(n, workers, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("n=%d workers=%d: bad chunk [%d, %d)", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestForSmallRunsInline(t *testing.T) {
	ran := false
	For(3, 8, func(lo, hi int) {
		if lo != 0 || hi != 3 {
			t.Fatalf("small range split: [%d, %d)", lo, hi)
		}
		ran = true
	})
	if !ran {
		t.Fatal("fn not called")
	}
}

func TestDo(t *testing.T) {
	var n atomic.Int64
	Do(
		func() { n.Add(1) },
		func() { n.Add(10) },
		func() { n.Add(100) },
	)
	if n.Load() != 111 {
		t.Fatalf("Do total = %d, want 111", n.Load())
	}
}

func TestMaxReduceMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 100, 5000, 70000} {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = rng.Intn(1 << 20)
		}
		wantA, wantB := 0, 0
		for i, v := range vals {
			if d := v - i; d > wantA {
				wantA = d
			}
			if d := i - v; d > wantB {
				wantB = d
			}
		}
		for _, workers := range []int{1, 2, 7, 8} {
			a, b, err := MaxReduceCtx(context.Background(), n, workers, func(lo, hi int) (int, int) {
				ca, cb := 0, 0
				for i := lo; i < hi; i++ {
					if d := vals[i] - i; d > ca {
						ca = d
					}
					if d := i - vals[i]; d > cb {
						cb = d
					}
				}
				return ca, cb
			})
			if err != nil || a != wantA || b != wantB {
				t.Fatalf("n=%d workers=%d: MaxReduceCtx = (%d, %d, %v), want (%d, %d)", n, workers, a, b, err, wantA, wantB)
			}
		}
	}
}

func TestSortFloat64sMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 47, 48, 49, 1000, 4096, 50000} {
		base := make([]float64, n)
		for i := range base {
			base[i] = rng.NormFloat64()
		}
		// heavy duplicates too
		for i := 0; i < n/4; i++ {
			base[rng.Intn(maxi(n, 1))] = 0.5
		}
		want := append([]float64(nil), base...)
		sort.Float64s(want)
		for _, workers := range []int{1, 2, 8} {
			got := append([]float64(nil), base...)
			SortFloat64s(got, workers)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d workers=%d: got[%d]=%v want %v", n, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSortPairsStableAndWorkerIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 100, 5000, 60000} {
		keys := make([]float64, n)
		vals := make([]int, n)
		for i := range keys {
			keys[i] = float64(rng.Intn(50)) // many ties
			vals[i] = i
		}
		// reference: stable sort by key, ties keep input order
		type kv struct {
			k float64
			v int
		}
		ref := make([]kv, n)
		for i := range ref {
			ref[i] = kv{keys[i], vals[i]}
		}
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].k < ref[j].k })
		for _, workers := range []int{1, 2, 8} {
			k := append([]float64(nil), keys...)
			v := append([]int(nil), vals...)
			SortPairs(k, v, workers)
			for i := range ref {
				if k[i] != ref[i].k || v[i] != ref[i].v {
					t.Fatalf("n=%d workers=%d: pos %d got (%v, %d) want (%v, %d)",
						n, workers, i, k[i], v[i], ref[i].k, ref[i].v)
				}
			}
		}
	}
}

func TestResolve(t *testing.T) {
	if Resolve(0) != DefaultWorkers() {
		t.Fatalf("Resolve(0) = %d, want DefaultWorkers %d", Resolve(0), DefaultWorkers())
	}
	if Resolve(-1) != DefaultWorkers() {
		t.Fatal("Resolve(-1) should fall back to default")
	}
	if Resolve(5) != 5 {
		t.Fatalf("Resolve(5) = %d", Resolve(5))
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func BenchmarkSortFloat64s1M(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]float64, 1<<20)
	for i := range base {
		base[i] = rng.Float64()
	}
	buf := make([]float64, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, base)
		SortFloat64s(buf, 0)
	}
}

func BenchmarkMaxReduce1M(b *testing.B) {
	n := 1 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = MaxReduceCtx(context.Background(), n, 0, func(lo, hi int) (int, int) {
			a, c := 0, 0
			for j := lo; j < hi; j++ {
				if j&1 == 0 && j > a {
					a = j
				}
				if j&1 == 1 && j > c {
					c = j
				}
			}
			return a, c
		})
	}
}
