package scorer

import (
	"math/rand"
	"testing"

	"elsi/internal/methods"
	"elsi/internal/rmi"
)

// syntheticSamples fabricates a ground truth with a crisp pattern: MR
// is always the build-fastest (speedup 100), OG always the
// query-fastest, RS the best compromise on skewed data.
func syntheticSamples(rng *rand.Rand) []Sample {
	var out []Sample
	for _, n := range []int{1000, 10000, 100000} {
		for d := 0.0; d < 1.0; d += 0.1 {
			for _, m := range methods.PoolNames() {
				s := Sample{Method: m, N: n, Dist: d}
				switch m {
				case methods.NameMR:
					s.BuildSpeedup, s.QuerySpeedup = 100, 0.7
				case methods.NameSP:
					s.BuildSpeedup, s.QuerySpeedup = 30, 0.8
				case methods.NameRS:
					s.BuildSpeedup, s.QuerySpeedup = 10, 1.1
				case methods.NameRL:
					s.BuildSpeedup, s.QuerySpeedup = 8, 1.0
				case methods.NameCL:
					s.BuildSpeedup, s.QuerySpeedup = 2, 1.0
				default: // OG
					s.BuildSpeedup, s.QuerySpeedup = 1, 1.2
				}
				// mild noise so the nets see variation
				s.BuildSpeedup *= 1 + 0.05*rng.Float64()
				s.QuerySpeedup *= 1 + 0.05*rng.Float64()
				out = append(out, s)
			}
		}
	}
	return out
}

func TestTrainAndSelectExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := syntheticSamples(rng)
	sc, err := Train(samples, Config{Hidden: 16, Epochs: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// lambda = 1: pure build-time preference -> MR
	sel := &Selector{Scorer: sc, Lambda: 1, WQ: 1}
	if got := sel.Select(10000, 0.5); got != methods.NameMR {
		t.Errorf("lambda=1 Select = %s, want MR", got)
	}
	// lambda = 0: pure query preference -> OG
	sel.Lambda = 0
	if got := sel.Select(10000, 0.5); got != methods.NameOG {
		t.Errorf("lambda=0 Select = %s, want OG", got)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, Config{}); err == nil {
		t.Error("expected error for empty samples")
	}
}

func TestSelectorPoolRestriction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sc, err := Train(syntheticSamples(rng), Config{Hidden: 16, Epochs: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// LISA pool: exclude CL and RL; the selector must never pick them.
	sel := &Selector{Scorer: sc, Lambda: 0.8, WQ: 1, Pool: []string{"SP", "MR", "RS", "OG"}}
	for d := 0.0; d < 1.0; d += 0.1 {
		got := sel.Select(50000, d)
		if got == methods.NameCL || got == methods.NameRL {
			t.Fatalf("restricted pool selected %s", got)
		}
	}
}

func TestTrueBest(t *testing.T) {
	group := []Sample{
		{Method: "MR", BuildSpeedup: 100, QuerySpeedup: 0.5},
		{Method: "OG", BuildSpeedup: 1, QuerySpeedup: 1.5},
	}
	if got := TrueBest(group, 1, 1); got != "MR" {
		t.Errorf("lambda=1 TrueBest = %s", got)
	}
	if got := TrueBest(group, 0, 1); got != "OG" {
		t.Errorf("lambda=0 TrueBest = %s", got)
	}
}

func TestAccuracyHighOnCleanGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := syntheticSamples(rng)
	sc, err := Train(samples, Config{Hidden: 16, Epochs: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []float64{0.9, 1.0} {
		sel := &Selector{Scorer: sc, Lambda: lambda, WQ: 1}
		acc := Accuracy(sel, samples, lambda, 1)
		if acc < 0.8 {
			t.Errorf("lambda=%.1f accuracy %.2f < 0.8", lambda, acc)
		}
	}
}

func TestComparatorsTrainAndSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	samples := syntheticSamples(rng)
	for _, fam := range []Family{FamilyDTR, FamilyDTC, FamilyRFR, FamilyRFC} {
		sel := TrainComparator(fam, samples, 1.0, 1, 5)
		if got := sel.Select(10000, 0.5); got != methods.NameMR {
			t.Errorf("%s lambda=1 Select = %s, want MR", fam, got)
		}
		acc := Accuracy(sel, samples, 1.0, 1)
		if acc < 0.8 {
			t.Errorf("%s accuracy %.2f", fam, acc)
		}
	}
}

func TestGenerateSamplesSmall(t *testing.T) {
	cfg := GenConfig{
		Cardinalities: []int{500, 2000},
		Dists:         []float64{0, 0.5},
		Trainer:       rmi.PiecewiseTrainer(1.0 / 128),
		Queries:       20,
		Seed:          1,
		Pool:          []string{"SP", "RS", "OG"},
	}
	samples := GenerateSamples(cfg)
	want := 2 * 2 * 3
	if len(samples) != want {
		t.Fatalf("got %d samples, want %d", len(samples), want)
	}
	for _, s := range samples {
		if s.BuildSpeedup <= 0 || s.QuerySpeedup <= 0 {
			t.Errorf("non-positive speedup in %+v", s)
		}
		if s.Method == methods.NameOG && (s.BuildSpeedup != 1 || s.QuerySpeedup != 1) {
			t.Errorf("OG speedups should be exactly 1: %+v", s)
		}
	}
	groups := GroupSamples(samples)
	if len(groups) != 4 {
		t.Errorf("got %d groups, want 4", len(groups))
	}
}

func TestFeatures(t *testing.T) {
	x := features(methods.NameCL, 1000000, 0.3)
	if len(x) != featureDim {
		t.Fatalf("feature dim %d", len(x))
	}
	ones := 0
	for i := 0; i < 6; i++ {
		if x[i] == 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Errorf("one-hot has %d ones", ones)
	}
	if x[7] != 0.3 {
		t.Errorf("dist feature = %v", x[7])
	}
}

func TestScorerSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc, err := Train(syntheticSamples(rng), Config{Hidden: 8, Epochs: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/scorer.gob"
	if err := sc.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range methods.PoolNames() {
		b1, q1 := sc.PredictSpeedups(m, 10000, 0.5)
		b2, q2 := loaded.PredictSpeedups(m, 10000, 0.5)
		if b1 != b2 || q1 != q2 {
			t.Fatalf("%s: predictions differ after reload", m)
		}
	}
	if _, err := Load(t.TempDir() + "/missing.gob"); err == nil {
		t.Error("loading a missing file succeeded")
	}
}

func TestSplitSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	samples := syntheticSamples(rng)
	train, test := SplitSamples(samples, 0.3, 1)
	if len(train)+len(test) != len(samples) {
		t.Fatalf("split lost samples: %d + %d != %d", len(train), len(test), len(samples))
	}
	if len(test) == 0 || len(train) == 0 {
		t.Fatal("degenerate split")
	}
	// no group straddles the split
	trainGroups := GroupSamples(train)
	for k := range GroupSamples(test) {
		if _, ok := trainGroups[k]; ok {
			t.Fatalf("group %+v leaked across the split", k)
		}
	}
	// deterministic
	tr2, te2 := SplitSamples(samples, 0.3, 1)
	if len(tr2) != len(train) || len(te2) != len(test) {
		t.Error("split not deterministic")
	}
}

func TestWindowScorer(t *testing.T) {
	cfg := GenConfig{
		Cardinalities: []int{500, 2000},
		Dists:         []float64{0, 0.5},
		Trainer:       rmi.PiecewiseTrainer(1.0 / 128),
		Queries:       20,
		Seed:          1,
	}
	samples := GenerateWindowSamples(cfg, 0.0001)
	if len(samples) != 2*2*6 {
		t.Fatalf("got %d window samples", len(samples))
	}
	for _, s := range samples {
		if s.WindowSpeedup <= 0 {
			t.Fatalf("non-positive window speedup: %+v", s)
		}
	}
	ws, err := TrainWithWindow(samples, Config{Hidden: 12, Epochs: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// the mixed score at windowFrac=0 must equal the plain Eq. 2 score
	for _, m := range methods.PoolNames() {
		plain := ws.Score(m, 2000, 0.5, 0.5, 1)
		mixed := ws.ScoreMixed(m, 2000, 0.5, 0.5, 1, 0)
		if plain != mixed {
			t.Fatalf("%s: windowFrac=0 mixed score %v != plain %v", m, mixed, plain)
		}
	}
	// selection over the full mix range never leaves the pool
	for _, f := range []float64{-1, 0, 0.5, 1, 2} {
		got := ws.SelectMixed(nil, 2000, 0.5, 0.8, 1, f)
		found := false
		for _, m := range methods.PoolNames() {
			if m == got {
				found = true
			}
		}
		if !found {
			t.Fatalf("SelectMixed returned %q", got)
		}
	}
}
