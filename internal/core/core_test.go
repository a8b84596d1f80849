package core

import (
	"context"
	"testing"

	"elsi/internal/base"
	"elsi/internal/curve"
	"elsi/internal/dataset"
	"elsi/internal/geo"
	"elsi/internal/indextest"
	"elsi/internal/lisa"
	"elsi/internal/methods"
	"elsi/internal/mlindex"
	"elsi/internal/rmi"
	"elsi/internal/rsmi"
	"elsi/internal/scorer"
	"elsi/internal/zm"
)

func testTrainer() rmi.Trainer { return rmi.PiecewiseTrainer(1.0 / 256) }

// trainTinyScorer trains a quick scorer over a small ground truth so
// SelectorLearned tests stay fast.
func trainTinyScorer(t testing.TB) *scorer.Scorer {
	t.Helper()
	gen := scorer.GenConfig{
		Cardinalities: []int{500, 5000},
		Dists:         []float64{0, 0.4, 0.8},
		Trainer:       testTrainer(),
		Queries:       20,
		Seed:          1,
	}
	sc, samples, err := TrainScorer(gen, scorer.Config{Hidden: 12, Epochs: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	return sc
}

func prepared(name string, n int, seed int64) *base.SortedData {
	pts := dataset.MustGenerate(name, n, seed)
	return base.Prepare(pts, geo.UnitRect, func(p geo.Point) float64 {
		return float64(curve.ZEncode(p, geo.UnitRect))
	})
}

// build runs s with a background context, failing the test on error.
func build(t testing.TB, s *System, d *base.SortedData) (*rmi.Bounded, base.BuildStats) {
	t.Helper()
	m, stats, err := s.BuildModel(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	return m, stats
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Error("missing trainer accepted")
	}
	if _, err := NewSystem(Config{Trainer: testTrainer(), Selector: SelectorLearned}); err == nil {
		t.Error("learned selector without scorer accepted")
	}
	if _, err := NewSystem(Config{Trainer: testTrainer(), Selector: SelectorFixed, Fixed: "nope"}); err == nil {
		t.Error("fixed method outside pool accepted")
	}
	if _, err := NewSystem(Config{Trainer: testTrainer(), Lambda: 1.5, LambdaSet: true}); err == nil {
		t.Error("lambda outside [0, 1] accepted")
	}
	if _, err := NewSystem(Config{Trainer: testTrainer(), Lambda: -0.1, LambdaSet: true}); err == nil {
		t.Error("negative lambda accepted")
	}
}

// Regression: an explicit λ = 0 (pure query-cost optimization, the
// left end of the Fig. 9 sweep) used to be silently replaced by the
// 0.8 default; LambdaSet must make it stick, and the default must
// apply to every selector kind, not just SelectorLearned.
func TestLambdaZeroHonored(t *testing.T) {
	s, err := NewSystem(Config{Trainer: testTrainer(), Lambda: 0, LambdaSet: true, Selector: SelectorRandom, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.cfg.Lambda; got != 0 {
		t.Errorf("explicit Lambda 0 became %v", got)
	}
	for _, cfg := range []Config{
		{Trainer: testTrainer(), Selector: SelectorRandom, Seed: 1},
		{Trainer: testTrainer(), Selector: SelectorFixed, Fixed: methods.NameSP, Seed: 1},
	} {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.cfg.Lambda; got != 0.8 {
			t.Errorf("unset Lambda default = %v for selector %v, want 0.8", got, cfg.Selector)
		}
	}
}

func TestFixedSelectorDelegates(t *testing.T) {
	s := MustNewSystem(Config{Trainer: testTrainer(), Selector: SelectorFixed, Fixed: methods.NameSP})
	d := prepared(dataset.OSM1, 5000, 1)
	m, stats := build(t, s, d)
	if stats.Method != methods.NameSP {
		t.Errorf("method = %s", stats.Method)
	}
	for i, k := range d.Keys {
		lo, hi := m.SearchRange(k)
		if i < lo || i >= hi {
			t.Fatalf("key %d outside range", i)
		}
	}
	if got := s.Selections()[methods.NameSP]; got != 1 {
		t.Errorf("selections = %v", s.Selections())
	}
}

func TestRandomSelectorCoversPool(t *testing.T) {
	s := MustNewSystem(Config{Trainer: testTrainer(), Selector: SelectorRandom, Seed: 3,
		Pool: []string{methods.NameSP, methods.NameRS, methods.NameMR}})
	d := prepared(dataset.Uniform, 1000, 2)
	for i := 0; i < 30; i++ {
		s.BuildModel(context.Background(), d)
	}
	sel := s.Selections()
	if len(sel) < 2 {
		t.Errorf("random selector barely varies: %v", sel)
	}
	for m := range sel {
		if m != methods.NameSP && m != methods.NameRS && m != methods.NameMR {
			t.Errorf("selected method %s outside pool", m)
		}
	}
	s.ResetSelections()
	if len(s.Selections()) != 0 {
		t.Error("ResetSelections failed")
	}
}

func TestLearnedSelectorEndToEnd(t *testing.T) {
	sc := trainTinyScorer(t)
	s := MustNewSystem(Config{
		Trainer: testTrainer(), Selector: SelectorLearned, Scorer: sc,
		Lambda: 0.8, Seed: 1,
	})
	d := prepared(dataset.OSM1, 8000, 3)
	m, stats := build(t, s, d)
	if stats.Method == "" {
		t.Fatal("no method recorded")
	}
	for i, k := range d.Keys {
		lo, hi := m.SearchRange(k)
		if i < lo || i >= hi {
			t.Fatalf("key %d outside range with method %s", i, stats.Method)
		}
	}
}

// TestELSIIntoAllFourIndices is the headline integration test:
// contribution (3) of the paper — ELSI plugged into ZM, ML, RSMI, and
// LISA, with exact point queries everywhere and the paper's recall
// floors for the approximate indices.
func TestELSIIntoAllFourIndices(t *testing.T) {
	sc := trainTinyScorer(t)
	pts := dataset.MustGenerate(dataset.OSM1, 4000, 4)
	mk := func(pool []string) *System {
		return MustNewSystem(Config{
			Trainer: testTrainer(), Selector: SelectorLearned, Scorer: sc,
			Lambda: 0.8, Seed: 1, Pool: pool,
		})
	}
	t.Run("ZM-F", func(t *testing.T) {
		ix := zm.New(zm.Config{Space: geo.UnitRect, Builder: mk(nil), Fanout: 4})
		indextest.Conformance(t, ix, pts, 50, 1.0, 1.0)
	})
	t.Run("ML-F", func(t *testing.T) {
		ix := mlindex.New(mlindex.Config{Space: geo.UnitRect, Builder: mk(nil), Refs: 8, Seed: 1})
		indextest.Conformance(t, ix, pts, 51, 1.0, 1.0)
	})
	t.Run("RSMI-F", func(t *testing.T) {
		ix := rsmi.New(rsmi.Config{Space: geo.UnitRect, Builder: mk(nil), Fanout: 4, LeafCap: 600})
		indextest.Conformance(t, ix, pts, 52, 0.9, 0.85)
	})
	t.Run("LISA-F", func(t *testing.T) {
		ix := lisa.New(lisa.Config{Space: geo.UnitRect, Builder: mk(PoolForIndex("LISA"))})
		indextest.Conformance(t, ix, pts, 53, 0.9, 0.85)
	})
}

func TestPoolForIndex(t *testing.T) {
	full := PoolForIndex("ZM")
	if len(full) != 6 {
		t.Errorf("ZM pool = %v", full)
	}
	lp := PoolForIndex("LISA")
	for _, m := range lp {
		if m == methods.NameCL || m == methods.NameRL {
			t.Errorf("LISA pool contains %s", m)
		}
	}
	hasMR := false
	for _, m := range lp {
		if m == methods.NameMR {
			hasMR = true
		}
	}
	if !hasMR {
		t.Error("LISA pool should keep MR")
	}
}

func TestBuildersOverride(t *testing.T) {
	custom := &methods.SP{Rho: 0.5, Trainer: testTrainer()}
	s := MustNewSystem(Config{
		Trainer: testTrainer(), Selector: SelectorFixed, Fixed: methods.NameSP,
		Builders: map[string]base.ModelBuilder{methods.NameSP: custom},
	})
	d := prepared(dataset.Uniform, 1000, 5)
	_, stats := build(t, s, d)
	// rho 0.5 keeps ~half the keys, unlike the default 0.0001
	if stats.TrainSetSize < 400 {
		t.Errorf("override ignored: train set %d", stats.TrainSetSize)
	}
}

func TestRandomSelectorConcurrencySafe(t *testing.T) {
	s := MustNewSystem(Config{Trainer: testTrainer(), Selector: SelectorRandom, Seed: 1})
	d := prepared(dataset.Uniform, 500, 6)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 10; i++ {
				s.BuildModel(context.Background(), d)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	total := 0
	for _, c := range s.Selections() {
		total += c
	}
	if total != 40 {
		t.Errorf("selection count = %d, want 40", total)
	}
}
