package elsi

// The benchmarks below regenerate the paper's evaluation artifacts,
// one testing.B benchmark per table and figure (Benchmark{Fig,Table}*)
// plus the ablation benches DESIGN.md calls out. Each driver benchmark
// executes the full experiment once per iteration at a reduced scale —
// run with
//
//	go test -bench=. -benchmem
//
// and use cmd/elsibench for the full-scale, human-readable rows.

import (
	"context"
	"io"
	"os"
	"sync"
	"testing"

	"elsi/internal/base"
	"elsi/internal/bench"
	"elsi/internal/core"
	"elsi/internal/dataset"
	"elsi/internal/geo"
	"elsi/internal/methods"
	"elsi/internal/rmi"
	"elsi/internal/zm"
)

var (
	envOnce  sync.Once
	benchEnv *bench.Env
)

// sharedEnv prepares one small environment for all driver benchmarks.
func sharedEnv(b *testing.B) *bench.Env {
	b.Helper()
	envOnce.Do(func() {
		e, err := bench.NewEnv(bench.Options{
			N:           4000,
			Queries:     60,
			Seed:        1,
			FFNEpochs:   12,
			ScorerCards: []int{400, 2000},
			ScorerDists: []float64{0, 0.4, 0.8},
		})
		if err != nil {
			panic(err)
		}
		benchEnv = e
	})
	return benchEnv
}

// runExperiment benchmarks one full experiment driver.
func runExperiment(b *testing.B, id string) {
	e := sharedEnv(b)
	out := io.Discard
	if testing.Verbose() {
		out = os.Stdout
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(id, out, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6a(b *testing.B)  { runExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B)  { runExperiment(b, "fig6b") }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { runExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { runExperiment(b, "fig16") }

// --- focused micro-benchmarks: the headline build-time contrast ------

func buildBench(b *testing.B, builder base.ModelBuilder) {
	pts := dataset.MustGenerate(dataset.OSM1, 20000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := zm.New(zm.Config{Space: geo.UnitRect, Builder: builder, Fanout: 2})
		if err := ix.Build(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildZMOG is the original full-data training path.
func BenchmarkBuildZMOG(b *testing.B) {
	buildBench(b, &base.Direct{Trainer: rmi.FFNTrainer(rmi.FFNConfig{Hidden: 16, Epochs: 30, Seed: 1})})
}

// BenchmarkBuildZMELSI is the same index built through ELSI (fixed RS,
// the query-optimized proposed method).
func BenchmarkBuildZMELSI(b *testing.B) {
	tr := rmi.FFNTrainer(rmi.FFNConfig{Hidden: 16, Epochs: 30, Seed: 1})
	buildBench(b, &methods.RS{Beta: 10000, TargetLeaves: 500, Trainer: tr})
}

// --- ablation benches (DESIGN.md section 5) ---------------------------

// BenchmarkAblationSelectorLearnedVsRandom contrasts the learned
// selector against the Table II "Rand" ablation on build cost.
func BenchmarkAblationSelectorLearnedVsRandom(b *testing.B) {
	e := sharedEnv(b)
	pts := dataset.MustGenerate(dataset.OSM1, 8000, 1)
	for _, kind := range []struct {
		name string
		k    core.SelectorKind
	}{{"learned", core.SelectorLearned}, {"random", core.SelectorRandom}} {
		kind := kind
		b.Run(kind.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix := zm.New(zm.Config{Space: geo.UnitRect, Builder: e.System("ZM", 0.8, kind.k, ""), Fanout: 2})
				if err := ix.Build(pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSPvsRSP contrasts systematic vs random sampling
// (Figure 7's RSP comparison) at equal rate.
func BenchmarkAblationSPvsRSP(b *testing.B) {
	pts := dataset.MustGenerate(dataset.Skewed, 50000, 1)
	tr := rmi.PiecewiseTrainer(1.0 / 256)
	d := prepareZ(pts)
	b.Run("SP", func(b *testing.B) {
		m := &methods.SP{Rho: 0.01, Trainer: tr}
		for i := 0; i < b.N; i++ {
			m.BuildModel(context.Background(), d)
		}
	})
	b.Run("RSP", func(b *testing.B) {
		m := &methods.RSP{Rho: 0.01, Trainer: tr, Seed: 1}
		for i := 0; i < b.N; i++ {
			m.BuildModel(context.Background(), d)
		}
	})
}

func prepareZ(pts []geo.Point) *base.SortedData {
	ix := zm.New(zm.Config{Space: geo.UnitRect, Builder: &base.Direct{Trainer: rmi.LinearTrainer()}})
	return base.Prepare(pts, geo.UnitRect, ix.MapKey)
}
