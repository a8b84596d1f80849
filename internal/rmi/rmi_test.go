package rmi

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func sortedKeys(rng *rand.Rand, n int, skew float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Pow(rng.Float64(), skew)
	}
	sort.Float64s(v)
	return v
}

func testTrainers() map[string]Trainer {
	return map[string]Trainer{
		"linear":    LinearTrainer(),
		"piecewise": PiecewiseTrainer(1.0 / 128),
		"ffn":       FFNTrainer(FFNConfig{Hidden: 12, Epochs: 80, Seed: 1}),
	}
}

func TestTrainersPredictUniformCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := sortedKeys(rng, 2000, 1)
	for name, tr := range testTrainers() {
		m := tr(keys)
		// for uniform keys, CDF(k) ~ k
		for _, k := range []float64{0.1, 0.5, 0.9} {
			got := m.PredictCDF(k)
			if math.Abs(got-k) > 0.1 {
				t.Errorf("%s: PredictCDF(%v) = %v, want ~%v", name, k, got, k)
			}
		}
	}
}

func TestTrainersDegenerate(t *testing.T) {
	for name, tr := range testTrainers() {
		m := tr(nil)
		if v := m.PredictCDF(0.5); v < 0 || v > 1 {
			t.Errorf("%s: empty-set prediction %v out of range", name, v)
		}
		m = tr([]float64{3, 3, 3})
		if v := m.PredictCDF(3); v < 0 || v > 1 {
			t.Errorf("%s: constant-set prediction %v out of range", name, v)
		}
	}
}

func TestPredictCDFClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := sortedKeys(rng, 500, 2)
	for name, tr := range testTrainers() {
		m := tr(keys)
		for _, k := range []float64{-100, 0, 0.5, 1, 100} {
			v := m.PredictCDF(k)
			if v < 0 || v > 1 {
				t.Errorf("%s: PredictCDF(%v) = %v outside [0,1]", name, k, v)
			}
		}
	}
}

func TestErrorBoundsGuaranteeContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := sortedKeys(rng, 3000, 3)
	for name, tr := range testTrainers() {
		b := bounded(t, tr, keys, keys)
		for i, k := range keys {
			lo, hi := b.SearchRange(k)
			if i < lo || i >= hi {
				t.Fatalf("%s: key %d (%v) outside search range [%d,%d)", name, i, k, lo, hi)
			}
		}
	}
}

func TestErrorBoundsOnReducedTrainingSet(t *testing.T) {
	// ELSI's core invariant: train on a small subset, compute error
	// bounds on the full set, and predict-and-scan must still find
	// every point.
	rng := rand.New(rand.NewSource(4))
	full := sortedKeys(rng, 5000, 4)
	small := make([]float64, 0, 100)
	for i := 0; i < len(full); i += 50 {
		small = append(small, full[i])
	}
	b := bounded(t, LinearTrainer(), small, full)
	for i, k := range full {
		lo, hi := b.SearchRange(k)
		if i < lo || i >= hi {
			t.Fatalf("key %d outside range [%d,%d)", i, lo, hi)
		}
	}
}

func TestPiecewiseRespectsEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := sortedKeys(rng, 2000, 2)
	eps := 1.0 / 64
	m := PiecewiseTrainer(eps)(keys).(*PiecewiseModel)
	n := len(keys)
	for i, k := range keys {
		want := float64(i) / float64(n)
		got := m.PredictCDF(k)
		if math.Abs(got-want) > eps+1e-9 {
			t.Fatalf("piecewise error %v at key %d exceeds eps %v", got-want, i, eps)
		}
	}
	if m.Segments() == 0 {
		t.Error("no segments built")
	}
	if m.Segments() >= n {
		t.Errorf("degenerate segmentation: %d segments for %d keys", m.Segments(), n)
	}
}

func TestPiecewiseDuplicateKeys(t *testing.T) {
	keys := []float64{1, 1, 1, 1, 2, 2, 3}
	m := PiecewiseTrainer(0.05)(keys)
	if v := m.PredictCDF(1); v < 0 || v > 1 {
		t.Errorf("PredictCDF(1) = %v", v)
	}
	lo, hi, err := ErrorBounds(context.Background(), m, keys, 0)
	if err != nil || lo < 0 || hi < 0 {
		t.Errorf("bounds %d/%d, err %v", lo, hi, err)
	}
	b := &Bounded{Model: m, N: len(keys), ErrLo: lo, ErrHi: hi}
	for i, k := range keys {
		rlo, rhi := b.SearchRange(k)
		if i < rlo || i >= rhi {
			t.Fatalf("dup key %d outside [%d,%d)", i, rlo, rhi)
		}
	}
}

func TestBoundedPredictRankEdges(t *testing.T) {
	b := &Bounded{Model: ConstModel(1.0), N: 10}
	if got := b.PredictRank(99); got != 9 {
		t.Errorf("PredictRank clamps to N-1: got %d", got)
	}
	b2 := &Bounded{Model: ConstModel(0), N: 0}
	if got := b2.PredictRank(1); got != 0 {
		t.Errorf("empty PredictRank = %d", got)
	}
	lo, hi := b2.SearchRange(1)
	if lo != 0 || hi != 0 {
		t.Errorf("empty SearchRange = [%d,%d)", lo, hi)
	}
}

func TestErrBoundsWidth(t *testing.T) {
	b := &Bounded{ErrLo: 3, ErrHi: 4}
	if b.ErrBoundsWidth() != 7 {
		t.Errorf("ErrBoundsWidth = %d", b.ErrBoundsWidth())
	}
}

func TestStagedFindsAllKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := sortedKeys(rng, 4000, 4)
	s := staged(t, keys, 8, LinearTrainer(), PiecewiseTrainer(1.0/128))
	for i, k := range keys {
		lo, hi := s.SearchRangeWide(k)
		if i < lo || i >= hi {
			t.Fatalf("key %d (%v) outside staged range [%d,%d)", i, k, lo, hi)
		}
	}
	if s.n != len(keys) {
		t.Errorf("N = %d", s.n)
	}
	if len(s.leaves) != 8 {
		t.Errorf("leaves = %d", len(s.leaves))
	}
}

func TestStagedWithLeafBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := sortedKeys(rng, 1000, 2)
	builds := 0
	s, err := NewStaged(context.Background(), keys, 4, LinearTrainer(), func(start int, part []float64) (*Bounded, error) {
		builds++
		if start < 0 || start+len(part) > len(keys) {
			t.Fatalf("bad start %d for part of %d", start, len(part))
		}
		return bounded(t, LinearTrainer(), part, part), nil
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 4 {
		t.Errorf("leaf builder called %d times, want 4", builds)
	}
	for i, k := range keys {
		lo, hi := s.SearchRangeWide(k)
		if i < lo || i >= hi {
			t.Fatalf("key %d outside range", i)
		}
	}
}

func TestStagedDegenerate(t *testing.T) {
	s := staged(t, nil, 4, LinearTrainer(), LinearTrainer())
	lo, hi := s.SearchRange(1)
	if lo != 0 || hi != 0 {
		t.Errorf("empty staged SearchRange = [%d,%d)", lo, hi)
	}
	lo, hi = s.SearchRangeWide(1)
	if lo != 0 || hi != 0 {
		t.Errorf("empty staged SearchRangeWide = [%d,%d)", lo, hi)
	}
	// fanout below 1 is clamped
	s2 := staged(t, []float64{1, 2, 3}, 0, LinearTrainer(), LinearTrainer())
	if len(s2.leaves) != 1 {
		t.Errorf("clamped fanout leaves = %d", len(s2.leaves))
	}
}

func TestQuickSearchRangeAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	keys := sortedKeys(rng, 1000, 3)
	b := bounded(t, PiecewiseTrainer(1.0/64), keys, keys)
	f := func(raw float64) bool {
		k := math.Mod(math.Abs(raw), 2) // may lie outside key domain
		lo, hi := b.SearchRange(k)
		return lo >= 0 && hi <= b.N && lo <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFFNBeatsTrivialOnSkew(t *testing.T) {
	// On heavily skewed keys the trained FFN must have much tighter
	// bounds than a constant-prediction model, demonstrating it really
	// learned the CDF.
	rng := rand.New(rand.NewSource(9))
	keys := sortedKeys(rng, 3000, 5)
	ffn := bounded(t, FFNTrainer(FFNConfig{Hidden: 16, Epochs: 150, Seed: 1}), keys, keys)
	trivial := bounded(t, func([]float64) Model { return ConstModel(0.5) }, keys, keys)
	if ffn.ErrBoundsWidth() >= trivial.ErrBoundsWidth()/2 {
		t.Errorf("FFN width %d not better than trivial %d", ffn.ErrBoundsWidth(), trivial.ErrBoundsWidth())
	}
}

func BenchmarkFFNPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := sortedKeys(rng, 1000, 2)
	m := FFNTrainer(FFNConfig{Hidden: 16, Epochs: 30, Seed: 1})(keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictCDF(0.37)
	}
}

func BenchmarkPiecewisePredict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := sortedKeys(rng, 100000, 2)
	m := PiecewiseTrainer(1.0 / 256)(keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictCDF(0.37)
	}
}

// BenchmarkModelFamily* are the ablation benches for the model-family
// design choice (FFN as in the paper vs piecewise-linear).
func BenchmarkModelFamilyFFNTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := sortedKeys(rng, 10000, 3)
	tr := FFNTrainer(FFNConfig{Hidden: 16, Epochs: 60, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr(keys)
	}
}

func BenchmarkModelFamilyPiecewiseTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := sortedKeys(rng, 10000, 3)
	tr := PiecewiseTrainer(1.0 / 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr(keys)
	}
}

func TestTheoreticalBoundsHold(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	keys := sortedKeys(rng, 5000, 4)
	for _, eps := range []float64{1.0 / 32, 1.0 / 128, 1.0 / 512} {
		b := NewBoundedTheoretical(keys, eps)
		// the theoretical bound must contain every key with no scan
		for i, k := range keys {
			lo, hi := b.SearchRange(k)
			if i < lo || i >= hi {
				t.Fatalf("eps=%v: key %d outside [%d,%d)", eps, i, lo, hi)
			}
		}
		// and it must not be wider than the guarantee promises
		want := int(eps*float64(len(keys)))*2 + 2
		if b.ErrBoundsWidth() > want {
			t.Errorf("eps=%v: width %d > %d", eps, b.ErrBoundsWidth(), want)
		}
	}
}

func TestTheoreticalVsEmpiricalWidth(t *testing.T) {
	// the empirical bound is data-dependent and usually tighter than
	// the worst-case theoretical one for the same model
	rng := rand.New(rand.NewSource(11))
	keys := sortedKeys(rng, 5000, 3)
	eps := 1.0 / 64
	theo := NewBoundedTheoretical(keys, eps)
	emp := bounded(t, PiecewiseTrainer(eps), keys, keys)
	if emp.ErrBoundsWidth() > theo.ErrBoundsWidth()+2 {
		t.Errorf("empirical width %d exceeds theoretical %d", emp.ErrBoundsWidth(), theo.ErrBoundsWidth())
	}
}

func TestRadixSplineBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, skew := range []float64{1, 4} {
		keys := sortedKeys(rng, 4000, skew)
		for _, bits := range []int{0, 8, 12} {
			m := RadixSplineTrainer(1.0/128, bits)(keys).(*RadixSplineModel)
			if len(m.knotX) < 2 {
				t.Fatalf("skew=%v bits=%d: %d knots", skew, bits, len(m.knotX))
			}
			// predictions clamped and roughly correct
			n := len(keys)
			worst := 0.0
			for i, k := range keys {
				got := m.PredictCDF(k)
				if got < 0 || got > 1 {
					t.Fatalf("PredictCDF out of range: %v", got)
				}
				if d := math.Abs(got - float64(i)/float64(n)); d > worst {
					worst = d
				}
			}
			if worst > 3.0/128 {
				t.Errorf("skew=%v bits=%d: worst CDF error %v", skew, bits, worst)
			}
		}
	}
}

func TestRadixSplineMatchesNoTable(t *testing.T) {
	// the radix table is a pure accelerator: predictions must be
	// identical with and without it
	rng := rand.New(rand.NewSource(13))
	keys := sortedKeys(rng, 3000, 3)
	with := RadixSplineTrainer(1.0/256, 10)(keys)
	without := RadixSplineTrainer(1.0/256, 0)(keys)
	for trial := 0; trial < 2000; trial++ {
		k := rng.Float64() * 1.2
		a, b := with.PredictCDF(k), without.PredictCDF(k)
		if a != b {
			t.Fatalf("radix table changes prediction at %v: %v vs %v", k, a, b)
		}
	}
}

func TestRadixSplineContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	keys := sortedKeys(rng, 5000, 4)
	b := bounded(t, RadixSplineTrainer(1.0/128, 10), keys, keys)
	for i, k := range keys {
		lo, hi := b.SearchRange(k)
		if i < lo || i >= hi {
			t.Fatalf("key %d outside [%d,%d)", i, lo, hi)
		}
	}
}

func TestRadixSplineDegenerate(t *testing.T) {
	tr := RadixSplineTrainer(1.0/64, 8)
	m := tr(nil)
	if v := m.PredictCDF(1); v != 0 {
		t.Errorf("empty model PredictCDF = %v", v)
	}
	m = tr([]float64{5, 5, 5, 5})
	if v := m.PredictCDF(5); v < 0 || v > 1 {
		t.Errorf("constant keys PredictCDF = %v", v)
	}
	m = tr([]float64{1, 2})
	if v := m.PredictCDF(1.5); v < 0 || v > 1 {
		t.Errorf("two keys PredictCDF = %v", v)
	}
}

func BenchmarkModelFamilyRadixSplineTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := sortedKeys(rng, 10000, 3)
	tr := RadixSplineTrainer(1.0/256, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr(keys)
	}
}

func BenchmarkRadixSplinePredict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := sortedKeys(rng, 100000, 2)
	m := RadixSplineTrainer(1.0/256, 12)(keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictCDF(0.37)
	}
}

// TestStagedTinyInputsRouting pins the n < fanout regression: with
// integer split boundaries the rank-to-leaf mapping must follow the
// actual splits, not the equi-count arithmetic (which lands single-key
// builds on an empty leaf and returns an empty search range).
func TestStagedTinyInputsRouting(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for fanout := 1; fanout <= 8; fanout++ {
			keys := make([]float64, n)
			for i := range keys {
				keys[i] = float64(i+1) / float64(n+1)
			}
			s := staged(t, keys, fanout, LinearTrainer(), LinearTrainer())
			for i, k := range keys {
				lo, hi := s.SearchRangeWide(k)
				if i < lo || i >= hi {
					t.Fatalf("n=%d fanout=%d: key %d outside range [%d,%d)", n, fanout, i, lo, hi)
				}
			}
		}
	}
}
