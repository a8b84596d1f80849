// Package bench is the experiment harness: one driver per table and
// figure of Section VII. Every driver prints the same rows or series
// the paper reports, over the scaled surrogate data sets of
// internal/dataset, so EXPERIMENTS.md can record paper-vs-measured
// shape for each artifact.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"elsi/internal/base"
	"elsi/internal/core"
	"elsi/internal/geo"
	"elsi/internal/rebuild"
	"elsi/internal/rmi"
	"elsi/internal/scorer"
)

// Env bundles everything the experiment drivers share: the data scale,
// the model family, and the offline-trained ELSI components.
type Env struct {
	// N is the data set cardinality (the paper uses 100M+; the default
	// CLI scale is 200k, tests use less — see DESIGN.md substitutions).
	N int
	// Queries is the number of queries per measurement.
	Queries int
	// Seed drives all data generation.
	Seed int64
	// Trainer is the model family of the base indices (FFN, as in the
	// paper).
	Trainer rmi.Trainer
	// Scorer is the trained method scorer; nil until TrainScorer.
	Scorer *scorer.Scorer
	// ScorerSamples is the ground truth the scorer was trained on.
	ScorerSamples []scorer.Sample
	// Predictor is the trained rebuild predictor.
	Predictor *rebuild.Predictor
	// ScorerPrepTime records the offline preparation cost.
	ScorerPrepTime time.Duration
}

// Options tunes the environment construction.
type Options struct {
	N         int
	Queries   int
	Seed      int64
	FFNEpochs int
	// ScorerCards / ScorerDists define the preparation grid; empty
	// means the defaults scaled to N.
	ScorerCards []int
	ScorerDists []float64
	// CachePath, when set, persists and reuses the scorer and its
	// ground-truth samples across runs (files <CachePath>.scorer and
	// <CachePath>.samples) — the preparation is a one-off offline task.
	CachePath string
}

// NewEnv constructs an environment and trains the ELSI components
// (the offline one-off preparation of Section VII-B2).
func NewEnv(opts Options) (*Env, error) {
	if opts.N <= 0 {
		opts.N = 200000
	}
	if opts.Queries <= 0 {
		opts.Queries = 1000
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.FFNEpochs <= 0 {
		opts.FFNEpochs = 60
	}
	e := &Env{
		N:       opts.N,
		Queries: opts.Queries,
		Seed:    opts.Seed,
		Trainer: rmi.FFNTrainer(rmi.FFNConfig{Hidden: 16, Epochs: opts.FFNEpochs, Seed: opts.Seed}),
	}
	cards := opts.ScorerCards
	if len(cards) == 0 {
		cards = scaledCards(opts.N)
	}
	dists := opts.ScorerDists
	if len(dists) == 0 {
		dists = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	}
	t0 := time.Now()
	if opts.CachePath != "" {
		if sc, err := scorer.Load(opts.CachePath + ".scorer"); err == nil {
			if samples, err := scorer.LoadSamples(opts.CachePath + ".samples"); err == nil {
				e.Scorer = sc
				e.ScorerSamples = samples
			}
		}
	}
	if e.Scorer == nil {
		gen := scorer.GenConfig{
			Cardinalities: cards,
			Dists:         dists,
			Trainer:       e.Trainer,
			Queries:       200,
			Seed:          opts.Seed,
		}
		sc, samples, err := core.TrainScorer(gen, scorer.Config{Hidden: 24, Epochs: 300, Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		e.Scorer = sc
		e.ScorerSamples = samples
		if opts.CachePath != "" {
			if err := sc.Save(opts.CachePath + ".scorer"); err != nil {
				return nil, err
			}
			if err := scorer.SaveSamples(opts.CachePath+".samples", samples); err != nil {
				return nil, err
			}
		}
	}
	e.ScorerPrepTime = time.Since(t0)
	rng := rand.New(rand.NewSource(opts.Seed))
	pred, err := rebuild.TrainPredictor(rebuild.HeuristicSamples(rng, 1000), rebuild.PredictorConfig{Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	e.Predictor = pred
	return e, nil
}

// scaledCards maps the paper's 10^4..10^8 preparation grid onto the
// working scale: five cardinalities log-spaced up to N/2.
func scaledCards(n int) []int {
	top := n / 2
	if top < 1000 {
		top = 1000
	}
	cards := make([]int, 0, 5)
	c := top
	for i := 0; i < 5; i++ {
		cards = append(cards, c)
		c = c * 10 / 32 // ~half a decade per step
		if c < 100 {
			c = 100
		}
	}
	// ascending
	for i, j := 0, len(cards)-1; i < j; i, j = i+1, j-1 {
		cards[i], cards[j] = cards[j], cards[i]
	}
	return cards
}

// System builds an ELSI build processor for a base index (by name,
// for pool restrictions) at the given lambda.
func (e *Env) System(indexName string, lambda float64, kind core.SelectorKind, fixed string) *core.System {
	return core.MustNewSystem(core.Config{
		Trainer: e.Trainer,
		// the sweeps pass λ = 0 deliberately (Fig. 9/11/13): mark it
		// explicit so NewSystem does not substitute the 0.8 default
		Lambda:    lambda,
		LambdaSet: true,
		WQ:        1,
		Pool:      core.PoolForIndex(indexName),
		Selector:  kind,
		Fixed:     fixed,
		Scorer:    e.Scorer,
		Seed:      e.Seed,
	})
}

// table starts a tab-aligned output table.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// row writes one tab-separated row.
func row(w io.Writer, cells ...interface{}) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
}

// secs formats a duration as seconds with 3 decimals.
func secs(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }

// micros formats a per-query duration in microseconds.
func micros(d time.Duration) string { return fmt.Sprintf("%.2fus", float64(d.Nanoseconds())/1e3) }

// TrainPerIndexScorer measures ground truth by building the named base
// index itself (Section VII-B2: "When integrated with a base index, we
// use every applicable method in the method pool to build an index for
// each generated data set") and trains a scorer dedicated to it. The
// generic environment scorer measures on a single-model ZM surrogate;
// per-index scorers are more faithful and noticeably better for LISA,
// whose mapping differs most from the surrogate's.
func (e *Env) TrainPerIndexScorer(indexName string, cards []int, dists []float64) (*scorer.Scorer, []scorer.Sample, error) {
	if len(cards) == 0 {
		cards = scaledCards(e.N)[:3]
	}
	if len(dists) == 0 {
		dists = []float64{0, 0.3, 0.6, 0.9}
	}
	gen := scorer.GenConfig{
		Cardinalities: cards,
		Dists:         dists,
		Trainer:       e.Trainer,
		Queries:       200,
		Seed:          e.Seed,
	}
	measure := func(b base.ModelBuilder, pts []geo.Point, queries []geo.Point) (float64, float64, error) {
		ix, err := NewLearned(indexName, b, len(pts))
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		if err := ix.Build(pts); err != nil {
			return 0, 0, err
		}
		buildSec := time.Since(t0).Seconds()
		t0 = time.Now()
		for _, q := range queries {
			ix.PointQuery(q)
		}
		querySec := time.Since(t0).Seconds() / float64(max(len(queries), 1))
		return buildSec, querySec, nil
	}
	samples, err := scorer.GenerateSamplesMeasured(gen, core.PoolForIndex(indexName), measure)
	if err != nil {
		return nil, nil, err
	}
	sc, err := scorer.Train(samples, scorer.Config{Hidden: 24, Epochs: 300, Seed: e.Seed})
	if err != nil {
		return nil, nil, err
	}
	return sc, samples, nil
}
