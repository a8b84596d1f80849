package rmi

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"elsi/internal/faults"
)

// bounded is NewBounded with a background context and the default
// worker count, failing the test on error.
func bounded(t testing.TB, tr Trainer, trainKeys, fullKeys []float64) *Bounded {
	t.Helper()
	b, err := NewBounded(context.Background(), tr, trainKeys, fullKeys, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// leafTrainer is the NewStaged leaf builder that fits tr on each
// partition's own keys.
func leafTrainer(ctx context.Context, tr Trainer) func(int, []float64) (*Bounded, error) {
	return func(_ int, part []float64) (*Bounded, error) {
		return NewBounded(ctx, tr, part, part, 1)
	}
}

// staged is NewStaged with a background context, leaf trained on each
// partition, and the default worker count, failing the test on error.
func staged(t testing.TB, keys []float64, fanout int, root, leaf Trainer) *Staged {
	t.Helper()
	s, err := NewStaged(context.Background(), keys, fanout, root, leafTrainer(context.Background(), leaf), 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// naiveBounds is the serial reference for Algorithm 1, line 6: the
// largest over- and under-prediction of m over keys, in rank units,
// with the prediction clamped to a valid rank.
func naiveBounds(m Model, keys []float64) (errLo, errHi int) {
	n := len(keys)
	for i, k := range keys {
		pred := min(max(int(m.PredictCDF(k)*float64(n)), 0), n-1)
		errLo = max(errLo, pred-i)
		errHi = max(errHi, i-pred)
	}
	return errLo, errHi
}

func buildCases() map[string][]float64 {
	rng := rand.New(rand.NewSource(11))
	dups := make([]float64, 1000)
	for i := range dups {
		// 1,000 keys over 17 distinct values, most of them on three
		dups[i] = float64(min(rng.Intn(40), 16))
	}
	sort.Float64s(dups)
	return map[string][]float64{
		"n=0":          nil,
		"n=1":          {0.5},
		"n=1000/dups":  dups,
		"n=10000/skew": sortedKeys(rng, 10000, 3),
	}
}

// TestBuildPipelineMatchesNaiveScan pins the parallel, cancellable
// build kernels — ErrorBounds, NewBounded and NewStaged — to the naive
// serial scan for every worker count: the chunked max-reduce and the
// pooled per-worker predictors must not change a single bound.
func TestBuildPipelineMatchesNaiveScan(t *testing.T) {
	ctx := context.Background()
	trainers := map[string]Trainer{
		"linear":    LinearTrainer(),
		"piecewise": PiecewiseTrainer(1.0 / 64),
		// FFNModel hands out scratch predictors: the pooled path
		"ffn": FFNTrainer(FFNConfig{Hidden: 8, Epochs: 20, Seed: 3}),
	}
	for cname, keys := range buildCases() {
		for tname, tr := range trainers {
			m := tr(keys)
			wantLo, wantHi := naiveBounds(m, keys)
			// a reduced training set, as the pool methods hand over
			var sample []float64
			for i := 0; i < len(keys); i += 10 {
				sample = append(sample, keys[i])
			}
			for _, workers := range []int{1, 2, 7} {
				name := fmt.Sprintf("%s/%s/workers=%d", cname, tname, workers)

				lo, hi, err := ErrorBounds(ctx, m, keys, workers)
				if err != nil || lo != wantLo || hi != wantHi {
					t.Fatalf("%s: ErrorBounds = (%d, %d, %v), want (%d, %d)", name, lo, hi, err, wantLo, wantHi)
				}

				b, err := NewBounded(ctx, tr, sample, keys, workers)
				if err != nil {
					t.Fatalf("%s: NewBounded: %v", name, err)
				}
				bLo, bHi := naiveBounds(b.Model, keys)
				if b.N != len(keys) || b.ErrLo != bLo || b.ErrHi != bHi {
					t.Fatalf("%s: NewBounded = {N %d, %d, %d}, want {N %d, %d, %d}", name, b.N, b.ErrLo, b.ErrHi, len(keys), bLo, bHi)
				}

				s, err := NewStaged(ctx, keys, 4, tr, leafTrainer(ctx, tr), workers)
				if err != nil {
					t.Fatalf("%s: NewStaged: %v", name, err)
				}
				if rLo, rHi := naiveBounds(s.root.Model, keys); s.root.ErrLo != rLo || s.root.ErrHi != rHi {
					t.Fatalf("%s: root bounds (%d, %d), want (%d, %d)", name, s.root.ErrLo, s.root.ErrHi, rLo, rHi)
				}
				for i, leaf := range s.leaves {
					part := keys[s.splits[i]:s.splits[i+1]]
					if lLo, lHi := naiveBounds(leaf.Model, part); leaf.N != len(part) || leaf.ErrLo != lLo || leaf.ErrHi != lHi {
						t.Fatalf("%s: leaf %d = {N %d, %d, %d}, want {N %d, %d, %d}", name, i, leaf.N, leaf.ErrLo, leaf.ErrHi, len(part), lLo, lHi)
					}
				}
				for i, k := range keys {
					if rlo, rhi := s.SearchRangeWide(k); i < rlo || i >= rhi {
						t.Fatalf("%s: key %d outside staged range [%d,%d)", name, i, rlo, rhi)
					}
				}
			}
		}
	}
}

// TestBuildPipelineFailures checks the failure contract of the same
// kernels: a cancelled context comes back as ctx.Err() with no model,
// and an armed "bounds/scan" fault fails the build.
func TestBuildPipelineFailures(t *testing.T) {
	tr := LinearTrainer()
	for cname, keys := range buildCases() {
		for _, workers := range []int{1, 2, 7} {
			name := fmt.Sprintf("%s/workers=%d", cname, workers)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, _, err := ErrorBounds(ctx, tr(keys), keys, workers); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled ErrorBounds = %v, want context.Canceled", name, err)
			}
			if b, err := NewBounded(ctx, tr, keys, keys, workers); b != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled NewBounded = (%v, %v), want (nil, context.Canceled)", name, b, err)
			}
			if s, err := NewStaged(ctx, keys, 4, tr, leafTrainer(ctx, tr), workers); s != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled NewStaged = (%v, %v), want (nil, context.Canceled)", name, s, err)
			}

			bg := context.Background()
			var injected *faults.InjectedError
			faults.Enable("bounds/scan", faults.Fault{Mode: faults.ModeError})
			_, _, errBounds := ErrorBounds(bg, tr(keys), keys, workers)
			b, errBounded := NewBounded(bg, tr, keys, keys, workers)
			s, errStaged := NewStaged(bg, keys, 4, tr, leafTrainer(bg, tr), workers)
			faults.Reset()
			if !errors.As(errBounds, &injected) {
				t.Fatalf("%s: ErrorBounds under fault = %v, want *faults.InjectedError", name, errBounds)
			}
			if b != nil || !errors.As(errBounded, &injected) {
				t.Fatalf("%s: NewBounded under fault = (%v, %v), want (nil, *faults.InjectedError)", name, b, errBounded)
			}
			if s != nil || !errors.As(errStaged, &injected) {
				t.Fatalf("%s: NewStaged under fault = (%v, %v), want (nil, *faults.InjectedError)", name, s, errStaged)
			}
		}
	}
}
