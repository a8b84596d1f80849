package methods

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"elsi/internal/base"
	"elsi/internal/curve"
	"elsi/internal/dataset"
	"elsi/internal/geo"
	"elsi/internal/kstest"
	"elsi/internal/rmi"
)

// prepare builds a SortedData over a named data set using Z-order
// mapping, the setting of the Table I experiments.
func prepare(t testing.TB, name string, n int, seed int64) *base.SortedData {
	t.Helper()
	pts := dataset.MustGenerate(name, n, seed)
	mapKey := func(p geo.Point) float64 { return float64(curve.ZEncode(p, geo.UnitRect)) }
	return base.Prepare(pts, geo.UnitRect, mapKey)
}

func fastTrainer() rmi.Trainer { return rmi.PiecewiseTrainer(1.0 / 128) }

// allBuilders returns one instance of every pool method plus RSP,
// configured for small test data.
func allBuilders() []base.ModelBuilder {
	tr := fastTrainer()
	return []base.ModelBuilder{
		&SP{Rho: 0.01, Trainer: tr},
		&RSP{Rho: 0.01, Trainer: tr, Seed: 1},
		&CL{C: 32, Iterations: 5, Trainer: tr, Seed: 1},
		&MR{Epsilon: 0.5, SynthSize: 500, Trainer: tr, Seed: 1},
		&RS{Beta: 200, Trainer: tr},
		&RLM{Eta: 4, Steps: 200, Trainer: tr, Seed: 1},
		&base.Direct{Trainer: tr},
	}
}

// build runs b with a background context, failing the test on error.
func build(t testing.TB, b base.ModelBuilder, d *base.SortedData) (*rmi.Bounded, base.BuildStats) {
	t.Helper()
	m, stats, err := b.BuildModel(context.Background(), d)
	if err != nil {
		t.Fatalf("%s: %v", b.Name(), err)
	}
	return m, stats
}

// mustKMeans is KMeans with a background context and seed 1.
func mustKMeans(t testing.TB, pts []geo.Point, k, iterations int) []geo.Point {
	t.Helper()
	centers, err := KMeans(context.Background(), pts, k, iterations, 1)
	if err != nil {
		t.Fatal(err)
	}
	return centers
}

func TestEveryBuilderProducesUsableModel(t *testing.T) {
	d := prepare(t, dataset.OSM1, 5000, 1)
	for _, b := range allBuilders() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			m, stats := build(t, b, d)
			if m == nil {
				t.Fatal("nil model")
			}
			if m.N != d.Len() {
				t.Fatalf("N = %d, want %d", m.N, d.Len())
			}
			if stats.Method != b.Name() {
				t.Errorf("stats.Method = %q, want %q", stats.Method, b.Name())
			}
			if stats.TrainSetSize < minTrainSet {
				t.Errorf("train set size %d below minimum", stats.TrainSetSize)
			}
			if stats.ErrWidth != m.ErrLo+m.ErrHi {
				t.Errorf("stats.ErrWidth %d != bounds %d", stats.ErrWidth, m.ErrLo+m.ErrHi)
			}
			// predict-and-scan correctness: every stored key must fall
			// inside its search range.
			for i, k := range d.Keys {
				lo, hi := m.SearchRange(k)
				if i < lo || i >= hi {
					t.Fatalf("key %d outside [%d,%d)", i, lo, hi)
				}
			}
		})
	}
}

func TestReducedSetsAreSmall(t *testing.T) {
	d := prepare(t, dataset.OSM1, 20000, 2)
	tr := fastTrainer()
	builders := []base.ModelBuilder{
		&SP{Rho: 0.001, Trainer: tr},
		&CL{C: 50, Iterations: 3, Trainer: tr, Seed: 1},
		&RS{Beta: 1000, Trainer: tr},
		&RLM{Eta: 4, Steps: 100, Trainer: tr, Seed: 1},
	}
	for _, b := range builders {
		_, stats := build(t, b, d)
		if stats.TrainSetSize >= d.Len()/10 {
			t.Errorf("%s: |Ds| = %d not << n = %d", b.Name(), stats.TrainSetSize, d.Len())
		}
	}
}

func TestSystematicSample(t *testing.T) {
	keys := make([]float64, 1000)
	for i := range keys {
		keys[i] = float64(i)
	}
	got := SystematicSampleMin(keys, 0.01, 0)
	if len(got) < 10 || len(got) > 12 {
		t.Errorf("sample size = %d, want ~10", len(got))
	}
	// stride is floor(1/rho): neighbouring sampled ranks differ by 100
	if got[1]-got[0] != 100 {
		t.Errorf("stride = %v, want 100", got[1]-got[0])
	}
	// rank-gap bound of Section V-A1: every key is within stride of a
	// sampled key's rank
	if got[len(got)-1] != 999 {
		t.Errorf("last key %v, want 999 (range coverage)", got[len(got)-1])
	}
}

func TestSystematicSampleEdges(t *testing.T) {
	if got := SystematicSampleMin([]float64{1, 2}, 0.0001, 0); len(got) != 2 {
		t.Errorf("tiny input: %v", got)
	}
	if got := SystematicSampleMin(nil, 0.5, 0); len(got) != 0 {
		t.Errorf("nil input: %v", got)
	}
	got := SystematicSampleMin([]float64{1, 2, 3, 4}, 0, 0) // rho <= 0
	if len(got) < minTrainSet {
		t.Errorf("rho=0 sample too small: %v", got)
	}
	got = SystematicSampleMin([]float64{1, 2, 3, 4}, 2, 0) // rho > 1
	if len(got) != 4 {
		t.Errorf("rho>1 should keep all: %v", got)
	}
}

func TestSPBetterCDFThanRSP(t *testing.T) {
	// Figure 7 observation: RSP has larger CDF distance between Ds and
	// D than SP at the same rate.
	d := prepare(t, dataset.Skewed, 20000, 3)
	sp := SystematicSampleMin(d.Keys, 0.005, 0)
	rsp := &RSP{Rho: 0.005, Trainer: fastTrainer(), Seed: 7}
	// extract RSP's sampled keys by rebuilding its sampling logic via
	// BuildModel stats is indirect; instead sample directly here.
	rng := rand.New(rand.NewSource(7))
	var rspKeys []float64
	for i := 0; i < 100; i++ {
		rspKeys = append(rspKeys, d.Keys[rng.Intn(d.Len())])
	}
	sort.Float64s(rspKeys)
	dSP := kstest.Distance(sp, d.Keys)
	dRSP := kstest.Distance(rspKeys, d.Keys)
	if dSP > dRSP {
		t.Errorf("SP dist %v worse than RSP %v", dSP, dRSP)
	}
	_ = rsp
}

func TestKMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// two tight blobs; k=2 must find centers near them
	var pts []geo.Point
	for i := 0; i < 200; i++ {
		pts = append(pts, geo.Point{X: 0.2 + rng.NormFloat64()*0.01, Y: 0.2 + rng.NormFloat64()*0.01})
		pts = append(pts, geo.Point{X: 0.8 + rng.NormFloat64()*0.01, Y: 0.8 + rng.NormFloat64()*0.01})
	}
	centers := mustKMeans(t, pts, 2, 20)
	if len(centers) != 2 {
		t.Fatalf("got %d centers", len(centers))
	}
	sort.Slice(centers, func(i, j int) bool { return centers[i].X < centers[j].X })
	if centers[0].Dist(geo.Point{X: 0.2, Y: 0.2}) > 0.05 {
		t.Errorf("center 0 = %v", centers[0])
	}
	if centers[1].Dist(geo.Point{X: 0.8, Y: 0.8}) > 0.05 {
		t.Errorf("center 1 = %v", centers[1])
	}
}

func TestKMeansEdges(t *testing.T) {
	if got := mustKMeans(t, nil, 5, 3); got != nil {
		t.Errorf("empty input: %v", got)
	}
	pts := []geo.Point{{X: 0.5, Y: 0.5}}
	got := mustKMeans(t, pts, 10, 3)
	if len(got) != 1 {
		t.Errorf("k clamped to n: %d centers", len(got))
	}
}

func TestMRPoolCoverageGrowsWithSmallerEpsilon(t *testing.T) {
	tr := fastTrainer()
	big := &MR{Epsilon: 0.5, SynthSize: 200, Trainer: tr, Seed: 1}
	small := &MR{Epsilon: 0.1, SynthSize: 200, Trainer: tr, Seed: 1}
	small.Prepare()
	big.Prepare()
	if len(small.pool) <= len(big.pool) {
		t.Errorf("pool sizes: eps=0.1 -> %d, eps=0.5 -> %d", len(small.pool), len(big.pool))
	}
	if big.prepTime <= 0 {
		t.Error("prepare time not recorded")
	}
}

func TestMRPicksSimilarCDF(t *testing.T) {
	// On heavily skewed data, the reused model must beat the model a
	// uniform synthetic set would give: check the reduce step selects
	// something closer than uniform.
	d := prepare(t, dataset.Skewed, 10000, 5)
	mr := &MR{Epsilon: 0.2, SynthSize: 1000, Trainer: fastTrainer(), Seed: 1}
	m, stats := build(t, mr, d)
	if stats.TrainTime != 0 {
		t.Errorf("MR should not train online, TrainTime = %v", stats.TrainTime)
	}
	// A uniform-CDF model on these keys has huge bounds; the reused
	// model must do clearly better than predicting uniformly.
	uniform := rmi.LinearTrainer()(nil) // const 0 model is useless; build explicit uniform
	_ = uniform
	lo, hi, err := rmi.ErrorBounds(context.Background(), uniformModel{min: d.Keys[0], max: d.Keys[d.Len()-1]}, d.Keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.ErrLo+m.ErrHi >= lo+hi {
		t.Errorf("MR bounds %d not better than uniform-CDF bounds %d", m.ErrLo+m.ErrHi, lo+hi)
	}
}

type uniformModel struct{ min, max float64 }

func (u uniformModel) PredictCDF(k float64) float64 {
	if u.max <= u.min {
		return 0
	}
	v := (k - u.min) / (u.max - u.min)
	return math.Max(0, math.Min(1, v))
}

func TestRSRepresentativeKeys(t *testing.T) {
	d := prepare(t, dataset.OSM1, 10000, 6)
	keys := RepresentativeKeys(d, 500)
	if !sort.Float64sAreSorted(keys) {
		t.Fatal("keys not sorted")
	}
	if len(keys) < 10000/500 {
		t.Errorf("too few representatives: %d", len(keys))
	}
	// representatives preserve the CDF well (much better than random
	// chance): KS distance below 0.2
	if dist := kstest.Distance(keys, d.Keys); dist > 0.2 {
		t.Errorf("RS CDF distance = %v", dist)
	}
}

func TestRSDegenerate(t *testing.T) {
	d := prepare(t, dataset.Uniform, 3, 7)
	keys := RepresentativeKeys(d, 100)
	if len(keys) < minTrainSet {
		t.Errorf("degenerate RS keys: %v", keys)
	}
}

func TestRLMImprovesOverFullGrid(t *testing.T) {
	// The DQN search must end with a Ds whose CDF distance to D is no
	// worse than the all-cells-on starting state.
	d := prepare(t, dataset.Skewed, 8000, 8)
	m := &RLM{Eta: 4, Steps: 400, Trainer: fastTrainer(), Seed: 2}
	keys, err := m.searchKeys(context.Background(), d)
	if err != nil {
		t.Fatalf("searchKeys: %v", err)
	}
	if len(keys) < minTrainSet {
		t.Fatalf("RL produced %d keys", len(keys))
	}
	// initial state: all 16 cells on
	full := m.fullGridKeys(d, 4)
	distFull := kstest.Distance(full, d.Keys)
	distBest := kstest.Distance(keys, d.Keys)
	if distBest > distFull+1e-9 {
		t.Errorf("RL dist %v worse than initial %v", distBest, distFull)
	}
}

// fullGridKeys reproduces the initial all-on state's key set.
func (m *RLM) fullGridKeys(d *base.SortedData, eta int) []float64 {
	var keys []float64
	w := d.Space.Width() / float64(eta)
	h := d.Space.Height() / float64(eta)
	for cy := 0; cy < eta; cy++ {
		for cx := 0; cx < eta; cx++ {
			keys = append(keys, d.Map(geo.Point{
				X: d.Space.MinX + (float64(cx)+0.5)*w,
				Y: d.Space.MinY + (float64(cy)+0.5)*h,
			}))
		}
	}
	sort.Float64s(keys)
	return keys
}

func TestSynthesizesPoints(t *testing.T) {
	cases := map[string]bool{
		NameSP: false, NameRSP: false, NameRS: false, NameOG: false,
		NameCL: true, NameMR: true, NameRL: true,
	}
	for name, want := range cases {
		if got := SynthesizesPoints(name); got != want {
			t.Errorf("SynthesizesPoints(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestPoolNames(t *testing.T) {
	names := PoolNames()
	if len(names) != 6 {
		t.Fatalf("pool has %d methods, want 6", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{NameSP, NameCL, NameMR, NameRS, NameRL, NameOG} {
		if !seen[want] {
			t.Errorf("pool missing %s", want)
		}
	}
}

// TestBuildTimeOrdering verifies the central claim of Table I at test
// scale: reduced-set methods build much faster than OG when the
// trainer cost scales with the training-set size.
func TestBuildTimeOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	d := prepare(t, dataset.OSM1, 30000, 9)
	ffn := rmi.FFNTrainer(rmi.FFNConfig{Hidden: 8, Epochs: 25, Seed: 1})
	sp := &SP{Rho: 0.001, Trainer: ffn}
	og := &base.Direct{Trainer: ffn}
	_, sStats := build(t, sp, d)
	_, oStats := build(t, og, d)
	if sStats.TrainTime*2 >= oStats.TrainTime {
		t.Errorf("SP train %v not clearly faster than OG %v", sStats.TrainTime, oStats.TrainTime)
	}
}
