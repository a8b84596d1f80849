// Package core is ELSI itself: the build processor of Section IV. The
// System implements base.ModelBuilder, so any map-and-sort learned
// index plugs it in where its original training step ran. For every
// index model requested, the System summarizes the partition
// (cardinality and KS distance to uniform), asks the method selector
// for the best index building method under the preference factor
// lambda (Equation 2), runs that method to obtain the reduced training
// set Ds, trains on Ds, and computes the empirical error bounds over
// the full partition — Algorithm 1, lines 3-7.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"elsi/internal/base"
	"elsi/internal/floats"
	"elsi/internal/kstest"
	"elsi/internal/methods"
	"elsi/internal/parallel"
	"elsi/internal/rmi"
	"elsi/internal/scorer"
)

// SelectorKind chooses how the System picks a build method.
type SelectorKind int

const (
	// SelectorLearned uses the trained FFN method scorer (the ELSI
	// default).
	SelectorLearned SelectorKind = iota
	// SelectorRandom picks a pool method uniformly at random — the
	// "Rand" ablation of Table II.
	SelectorRandom
	// SelectorFixed always uses Config.Fixed.
	SelectorFixed
)

// Config assembles an ELSI system.
type Config struct {
	// Trainer is the base index's model family (train() of Alg. 1).
	Trainer rmi.Trainer
	// Lambda is the build/query preference of Equation 2. The zero
	// value means "unset" and selects the experiments' default 0.8
	// unless LambdaSet is true.
	Lambda float64
	// LambdaSet marks Lambda as explicitly chosen, so that λ = 0 — a
	// legitimate preference meaning pure query-cost optimization (the
	// left end of the Fig. 9 sweep) — is honored instead of being
	// replaced by the default.
	LambdaSet bool
	// WQ is the query-frequency weight (paper: 1.0).
	WQ float64
	// Pool lists the applicable methods for the base index; empty
	// means all six. LISA-style indices exclude the point-synthesizing
	// methods (CL, RL).
	Pool []string
	// Selector picks the selection policy.
	Selector SelectorKind
	// Fixed names the method used with SelectorFixed.
	Fixed string
	// Scorer is the trained method scorer (required for
	// SelectorLearned).
	Scorer *scorer.Scorer
	// Seed drives the random selector and the stochastic methods.
	Seed int64
	// Workers bounds the parallel build stages (key mapping, sorting,
	// error-bound scans, pool pre-training) of the default method
	// builders: 0 means GOMAXPROCS, 1 forces serial builds. Builds are
	// bit-identical across worker counts.
	Workers int
	// Builders overrides the default method builders (keyed by method
	// name); nil entries fall back to PoolBuilders defaults.
	Builders map[string]base.ModelBuilder
	// BuildTimeout, when positive, is the budget granted to each
	// attempt of the degradation ladder: a method that has not produced
	// a model within it is cancelled and the next rung tries with a
	// fresh budget. Zero means no per-attempt budget. The terminal
	// piecewise rung ignores it — it is the guarantee that BuildModel
	// returns an index whenever its own context is live.
	BuildTimeout time.Duration
	// Workload, when Derived, seeds the live preference: method ranking
	// uses its λ/wQ instead of the Lambda/WQ constants until a newer
	// profile is adopted via ApplyWorkload. The zero value keeps the
	// static configuration.
	Workload WorkloadProfile
	// LambdaHysteresis is the minimum λ move an offered profile needs
	// to displace the active preference (ApplyWorkload); 0 means
	// DefaultLambdaHysteresis.
	LambdaHysteresis float64
	// WorkloadMinSamples is the minimum operation count a profile must
	// be derived from to be trusted; 0 means
	// DefaultWorkloadMinSamples.
	WorkloadMinSamples int64
}

// System is the ELSI build processor.
type System struct {
	cfg      Config
	builders map[string]base.ModelBuilder
	rng      *rand.Rand

	mu         sync.Mutex
	selections map[string]int
	fallbacks  map[string]int
	workload   WorkloadProfile
	wlApplied  int
	wlSkipped  int
}

// NewSystem validates cfg and returns a System.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Trainer == nil {
		return nil, fmt.Errorf("core: Trainer is required")
	}
	// the default applies to every selector kind: Lambda() reports it
	// and ablation selectors must be comparable at the same preference
	if floats.Eq(cfg.Lambda, 0) && !cfg.LambdaSet {
		cfg.Lambda = 0.8
	}
	if math.IsNaN(cfg.Lambda) || cfg.Lambda < 0 || cfg.Lambda > 1 {
		return nil, fmt.Errorf("core: Lambda %v outside [0, 1]", cfg.Lambda)
	}
	if cfg.WQ <= 0 {
		cfg.WQ = 1
	}
	if len(cfg.Pool) == 0 {
		cfg.Pool = methods.PoolNames()
	}
	if cfg.Selector == SelectorLearned && cfg.Scorer == nil {
		return nil, fmt.Errorf("core: SelectorLearned requires a trained Scorer")
	}
	if cfg.Selector == SelectorFixed {
		found := false
		for _, m := range cfg.Pool {
			if m == cfg.Fixed {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("core: fixed method %q not in pool %v", cfg.Fixed, cfg.Pool)
		}
	}
	if cfg.BuildTimeout < 0 {
		return nil, fmt.Errorf("core: negative BuildTimeout %v", cfg.BuildTimeout)
	}
	if err := validateWorkload(&cfg); err != nil {
		return nil, err
	}
	builders := scorer.PoolBuildersWorkers(cfg.Trainer, cfg.Seed, cfg.Workers)
	// RSP is not a pool member (it is SP's comparison baseline), but it
	// is the ladder's standing fallback before OG.
	builders[methods.NameRSP] = &methods.RSP{Rho: 0.0001, MinKeys: 500, Trainer: cfg.Trainer, Seed: cfg.Seed, Workers: cfg.Workers}
	for name, b := range cfg.Builders {
		builders[name] = b
	}
	// MR's synthetic pool is pre-trained offline (Section VII-B2);
	// warming it here keeps that cost out of the measured builds.
	for _, b := range builders {
		if p, ok := b.(interface{ Prepare() }); ok {
			p.Prepare()
		}
	}
	return &System{
		cfg:        cfg,
		builders:   builders,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		selections: map[string]int{},
		fallbacks:  map[string]int{},
		workload:   cfg.Workload,
	}, nil
}

// MustNewSystem is NewSystem panicking on error (for tests and
// examples).
func MustNewSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements base.ModelBuilder.
func (s *System) Name() string { return "ELSI" }

// BuildModel implements base.ModelBuilder: summarize, select, reduce,
// train, bound, with cooperative cancellation and an explicit
// degradation ladder. The selected method runs first; on error, panic,
// or a blown per-attempt budget (Config.BuildTimeout) the build falls
// to the next-ranked pool method, then RSP, then OG, and finally to a
// piecewise-linear build with theoretical bounds that cannot fail.
// Each rung gets a fresh budget. A non-nil error is
// returned only when ctx itself is cancelled; otherwise the index is
// never nil. Fallbacks are recorded in the returned BuildStats
// (Selected, Fallbacks) and the per-method counters (Fallbacks()).
func (s *System) BuildModel(ctx context.Context, d *base.SortedData) (*rmi.Bounded, base.BuildStats, error) {
	ladder := s.ladder(d)
	selected := ladder[0]
	s.mu.Lock()
	s.selections[selected]++
	s.mu.Unlock()

	for rung, method := range ladder {
		if err := ctx.Err(); err != nil {
			return nil, base.BuildStats{}, err
		}
		b, ok := s.builders[method]
		if !ok {
			b = &base.Direct{Trainer: s.cfg.Trainer, Workers: s.cfg.Workers}
		}
		m, stats, err := s.attempt(ctx, b, d)
		if err == nil {
			stats.Selected = selected
			stats.Fallbacks = rung
			return m, stats, nil
		}
		// The parent being cancelled is not a method failure — stop
		// instead of burning the remaining rungs on a dead build.
		if ctx.Err() != nil {
			return nil, base.BuildStats{}, ctx.Err()
		}
		s.mu.Lock()
		s.fallbacks[method]++
		s.mu.Unlock()
	}

	// Terminal rung: a piecewise-linear model with theoretical bounds —
	// no training loop, no scan, no budget, nothing to inject into.
	m, stats := s.piecewiseRung(d)
	stats.Selected = selected
	stats.Fallbacks = len(ladder)
	return m, stats, nil
}

// attempt runs one ladder rung under its own budget.
func (s *System) attempt(ctx context.Context, b base.ModelBuilder, d *base.SortedData) (*rmi.Bounded, base.BuildStats, error) {
	if s.cfg.BuildTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.BuildTimeout)
		defer cancel()
	}
	m, stats, err := base.BuildModelCtx(ctx, b, d)
	if err == nil && m == nil {
		// A builder must not return (nil, nil); treat it as a failure
		// so the ladder keeps its never-nil guarantee.
		err = fmt.Errorf("core: builder %s returned no model", b.Name())
	}
	return m, stats, err
}

// piecewiseRung is the ladder's terminal, cannot-fail build: a
// shrinking-cone piecewise-linear fit over the full key set with
// eps-derived bounds (rmi.NewBoundedTheoretical). Even a panic in it —
// which would take deliberately hostile inputs — is contained.
func (s *System) piecewiseRung(d *base.SortedData) (m *rmi.Bounded, stats base.BuildStats) {
	defer func() {
		if pe := parallel.Recovered(recover()); pe != nil {
			// Last resort below the last resort: a constant model over
			// the whole partition. Bounds spanning all of D keep every
			// query correct (scans degrade to full scans).
			n := d.Len()
			m = &rmi.Bounded{Model: rmi.ConstModel(0.5), N: n, ErrLo: n, ErrHi: n}
			stats = base.BuildStats{Method: methodPW, TrainSetSize: n, ErrWidth: 2 * n}
		}
	}()
	t0 := time.Now()
	m = rmi.NewBoundedTheoretical(d.Keys, 0)
	stats = base.BuildStats{
		Method:       methodPW,
		TrainSetSize: d.Len(),
		TrainTime:    time.Since(t0),
		ErrWidth:     m.ErrBoundsWidth(),
	}
	return m, stats
}

// methodPW names the terminal ladder rung in stats and counters. It is
// not a pool method — it only appears after every real method failed.
const methodPW = "PW"

// ladder returns the build order for d: the selection policy's pick
// first, then the remaining pool methods by descending score (learned
// selection) or pool order, then RSP, then OG.
func (s *System) ladder(d *base.SortedData) []string {
	var ranked []string
	switch s.cfg.Selector {
	case SelectorFixed:
		ranked = append(ranked, s.cfg.Fixed)
		ranked = append(ranked, s.cfg.Pool...)
	case SelectorRandom:
		s.mu.Lock()
		ranked = append(ranked, s.cfg.Pool[s.rng.Intn(len(s.cfg.Pool))])
		s.mu.Unlock()
		ranked = append(ranked, s.cfg.Pool...)
	default:
		dist := 0.0
		if d.Len() > 0 {
			dist = kstest.DistanceToUniform(d.Keys, d.Keys[0], d.Keys[d.Len()-1])
		}
		// Rank under the live preference: the adopted workload profile
		// (ApplyWorkload) displaces the config-time constants.
		s.mu.Lock()
		lam, wq := s.prefLocked()
		s.mu.Unlock()
		sel := &scorer.Selector{Scorer: s.cfg.Scorer, Lambda: lam, WQ: wq, Pool: s.cfg.Pool}
		ranked = sel.Rank(d.Len(), dist)
	}
	ranked = append(ranked, methods.NameRSP, methods.NameOG)
	// Dedupe preserving first occurrence, so each method runs at most
	// once per build.
	seen := make(map[string]bool, len(ranked))
	out := ranked[:0]
	for _, m := range ranked {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// Selections returns how often each method has been chosen since
// construction (for the experiment reports).
func (s *System) Selections() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.selections))
	for k, v := range s.selections {
		out[k] = v
	}
	return out
}

// Fallbacks returns, per method, how many of its build attempts
// failed (errored, panicked, or blew their budget) and fell to the
// next ladder rung since construction.
func (s *System) Fallbacks() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.fallbacks))
	for k, v := range s.fallbacks {
		out[k] = v
	}
	return out
}

// ResetSelections clears the selection and fallback counters.
func (s *System) ResetSelections() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.selections = map[string]int{}
	s.fallbacks = map[string]int{}
}

// PoolForIndex returns the applicable method pool for a base index by
// name: LISA excludes the methods that synthesize points outside the
// data set (Section VII-A).
func PoolForIndex(indexName string) []string {
	if indexName == "LISA" {
		var pool []string
		for _, m := range methods.PoolNames() {
			if !methods.SynthesizesPoints(m) || m == methods.NameMR {
				// MR reuses models rather than feeding synthetic points
				// into the index's grid construction, so it remains
				// applicable (the paper only excludes CL and RL).
				pool = append(pool, m)
			}
		}
		return pool
	}
	return methods.PoolNames()
}

// TrainScorer generates ground truth and trains the method scorer in
// one step — the offline "system preparation" of Section VII-B2.
func TrainScorer(gen scorer.GenConfig, cfg scorer.Config) (*scorer.Scorer, []scorer.Sample, error) {
	samples := scorer.GenerateSamples(gen)
	sc, err := scorer.Train(samples, cfg)
	return sc, samples, err
}
