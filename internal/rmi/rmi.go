// Package rmi provides the learned rank models at the heart of every
// map-and-sort index: functions that approximate the CDF of a sorted
// key set, so that rank(key) ~ n * model(key). It offers the FFN model
// family the paper uses for all prediction models, plus linear and
// piecewise-linear alternatives used as ablation baselines, staged
// (RMI-style) composition, and the empirical error-bound computation of
// Algorithm 1 line 6.
package rmi

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"

	"elsi/internal/faults"
	"elsi/internal/floats"
	"elsi/internal/nn"
	"elsi/internal/parallel"
)

// Model approximates the empirical CDF of a key set: PredictCDF returns
// the estimated fraction of keys that are <= key, in [0, 1].
type Model interface {
	PredictCDF(key float64) float64
}

// Trainer builds a Model from a sorted, ascending key slice. The slice
// is the training set — under ELSI that is the reduced set Ds, while
// the error bounds are later computed against the full set D.
type Trainer func(sortedKeys []float64) Model

// Bounded pairs a model with the empirical error bounds required by the
// predict-and-scan query paradigm. N is the cardinality of the data set
// the model indexes (the full D, not the training set).
type Bounded struct {
	Model
	N     int
	ErrLo int // max units the prediction exceeds the true rank
	ErrHi int // max units the prediction falls short of the true rank
}

// PredictRank returns the estimated storage position of key in [0, N-1].
//
//elsi:noalloc
func (b *Bounded) PredictRank(key float64) int {
	if b.N == 0 {
		return 0
	}
	r := int(b.PredictCDF(key) * float64(b.N))
	if r < 0 {
		r = 0
	}
	if r >= b.N {
		r = b.N - 1
	}
	return r
}

// SearchRange returns the inclusive-exclusive position range
// [lo, hi) guaranteed to contain key if it is stored.
//
//elsi:noalloc
func (b *Bounded) SearchRange(key float64) (lo, hi int) {
	r := b.PredictRank(key)
	lo = r - b.ErrLo
	hi = r + b.ErrHi + 1
	if lo < 0 {
		lo = 0
	}
	if hi > b.N {
		hi = b.N
	}
	return lo, hi
}

// ErrBoundsWidth returns the total scan window size err_l + err_u,
// the |Error| column of Table I.
func (b *Bounded) ErrBoundsWidth() int { return b.ErrLo + b.ErrHi }

// ScratchModel is implemented by models that can hand out
// allocation-free single-goroutine CDF predictors (FFNModel does: its
// predictor owns reusable network scratch buffers). The parallel
// error-bound scan gives each worker its own predictor; callers
// without one fall back to PredictCDF, which must then be safe for
// concurrent read-only use.
type ScratchModel interface {
	Predictor() func(key float64) float64
}

// PredictorOf returns a single-goroutine CDF predictor for m:
// m.Predictor() when available, else m.PredictCDF itself.
func PredictorOf(m Model) func(key float64) float64 {
	if sm, ok := m.(ScratchModel); ok {
		return sm.Predictor()
	}
	return m.PredictCDF
}

// SafeTrain runs trainer on trainKeys with panic isolation: a panic
// inside the trainer (NaN-poisoned weights, a degenerate slice bound)
// comes back as a *parallel.PanicError instead of crashing the
// process, which is what lets the degradation ladder move on to the
// next method.
func SafeTrain(trainer Trainer, trainKeys []float64) (m Model, err error) {
	defer func() {
		if pe := parallel.Recovered(recover()); pe != nil {
			m, err = nil, pe
		}
	}()
	CountTraining()
	return trainer(trainKeys), nil
}

// ErrorBounds evaluates m on every key of the sorted full set and
// returns the maximum over- and under-prediction in rank units
// (Algorithm 1, line 6: get_error_bound). The scan — the M(n) term
// that dominates ELSI builds once training is reduced to |Ds| — runs
// chunked over workers (0 = GOMAXPROCS, 1 = serial); max is
// order-independent, so the bounds are identical for any worker count.
// The scan checks ctx at block boundaries and aborts early when the
// build budget is spent, and a panicking predictor comes back as a
// *parallel.PanicError. Injection point: "bounds/scan".
func ErrorBounds(ctx context.Context, m Model, sortedKeys []float64, workers int) (errLo, errHi int, err error) {
	if err := faults.HitCtx(ctx, "bounds/scan"); err != nil {
		return 0, 0, err
	}
	n := len(sortedKeys)
	// One predictor per worker goroutine, pooled so the block-granular
	// callback does not allocate scratch per block.
	pool := sync.Pool{New: func() any {
		p := PredictorOf(m)
		return &p
	}}
	return parallel.MaxReduceCtx(ctx, n, workers, func(lo, hi int) (int, int) {
		pp := pool.Get().(*func(key float64) float64)
		defer pool.Put(pp)
		predict := *pp
		cLo, cHi := 0, 0
		for i := lo; i < hi; i++ {
			pred := int(predict(sortedKeys[i]) * float64(n))
			if pred < 0 {
				pred = 0
			}
			if pred >= n {
				pred = n - 1
			}
			if d := pred - i; d > cLo {
				cLo = d
			}
			if d := i - pred; d > cHi {
				cHi = d
			}
		}
		return cLo, cHi
	})
}

// NewBounded trains a model on trainKeys with the given trainer and
// computes error bounds against fullKeys (both sorted ascending) with
// workers goroutines. Training runs under SafeTrain and the scan under
// ErrorBounds, so cancellation and panics in either stage come back as
// an error; on error the returned Bounded is nil.
func NewBounded(ctx context.Context, trainer Trainer, trainKeys, fullKeys []float64, workers int) (*Bounded, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m, err := SafeTrain(trainer, trainKeys)
	if err != nil {
		return nil, err
	}
	lo, hi, err := ErrorBounds(ctx, m, fullKeys, workers)
	if err != nil {
		return nil, err
	}
	return &Bounded{Model: m, N: len(fullKeys), ErrLo: lo, ErrHi: hi}, nil
}

// --- FFN model ------------------------------------------------------

// FFNModel is the paper's model family: a feed-forward network with one
// ReLU hidden layer mapping a min-max normalized key to a CDF estimate.
// It is always handled by pointer (the embedded scratch pool must not
// be copied).
type FFNModel struct {
	net      *nn.Network
	min, max float64
	// scratch pools per-goroutine forward buffers so PredictCDF is both
	// concurrent-safe and allocation-free in steady state — the network
	// forward pass was the last per-query allocation on the predict-
	// and-scan hot path.
	scratch sync.Pool
}

// ffnScratch is one pooled forward workspace: the 1-element input
// vector plus the network's activation scratch.
type ffnScratch struct {
	x []float64
	s *nn.Scratch
}

// PredictCDF implements Model. It is safe for concurrent use and does
// not allocate once the scratch pool is warm.
func (m *FFNModel) PredictCDF(key float64) float64 {
	sc, _ := m.scratch.Get().(*ffnScratch)
	if sc == nil {
		sc = &ffnScratch{x: make([]float64, 1), s: m.net.NewScratch()}
	}
	x := 0.0
	if m.max > m.min {
		x = (key - m.min) / (m.max - m.min)
	}
	sc.x[0] = x
	v := m.net.ForwardScratch(sc.s, sc.x)[0]
	m.scratch.Put(sc)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Predictor implements ScratchModel: the returned closure owns its
// input buffer and network scratch, making repeated predictions (the
// error-bound scan, batched query replays) allocation-free. Not safe
// for concurrent use — one Predictor per goroutine.
func (m *FFNModel) Predictor() func(key float64) float64 {
	forward := m.net.Predictor()
	x := make([]float64, 1)
	return func(key float64) float64 {
		x[0] = 0
		if m.max > m.min {
			x[0] = (key - m.min) / (m.max - m.min)
		}
		v := forward(x)[0]
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
}

// FFNConfig controls FFN model training.
type FFNConfig struct {
	Hidden int   // hidden layer width
	Epochs int   // training epochs
	Seed   int64 // RNG seed

	// Cancel, when non-nil, is polled at epoch boundaries during
	// training (see nn.Config.Cancel); a true return stops the run
	// early and the trainer returns the partially trained model. Bind
	// it to a build context's Err to make FFN training observe build
	// budgets: func() bool { return ctx.Err() != nil }.
	Cancel func() bool
}

// DefaultFFNConfig returns the configuration used throughout the
// experiments: one hidden layer of 16 units. Epochs are reduced from
// the paper's 500 (GPU) to a CPU-friendly count; see DESIGN.md.
func DefaultFFNConfig() FFNConfig {
	return FFNConfig{Hidden: 16, Epochs: 120, Seed: 1}
}

// FFNTrainer returns a Trainer producing FFN models with cfg.
func FFNTrainer(cfg FFNConfig) Trainer {
	if cfg.Hidden <= 0 {
		cfg.Hidden = 16
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 120
	}
	return func(keys []float64) Model {
		if len(keys) == 0 {
			return constModel(0)
		}
		min, max := keys[0], keys[len(keys)-1]
		if floats.Eq(min, max) {
			return constModel(0.5)
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		net := nn.New(rng, 1, cfg.Hidden, 1)
		n := len(keys)
		// Cap the number of training rows: the CDF of a huge sorted set
		// is fully described by a dense sample of it, and the cap keeps
		// OG training cost proportional to the paper's T(n) regime
		// without pathological epochs*n blowup on CPU.
		stride := 1
		const maxRows = 50000
		if n > maxRows {
			stride = n / maxRows
		}
		// Training rows share two flat backing arrays instead of one
		// 1-element allocation per row per column.
		xflat := make([]float64, 0, n/stride+1)
		yflat := make([]float64, 0, n/stride+1)
		for i := 0; i < n; i += stride {
			xflat = append(xflat, (keys[i]-min)/(max-min))
			yflat = append(yflat, float64(i)/float64(n))
		}
		xs := make([][]float64, len(xflat))
		ys := make([][]float64, len(yflat))
		for i := range xflat {
			xs[i] = xflat[i : i+1 : i+1]
			ys[i] = yflat[i : i+1 : i+1]
		}
		net.Train(xs, ys, nn.Config{LearningRate: 0.01, Epochs: cfg.Epochs, BatchSize: 256, Seed: cfg.Seed, Cancel: cfg.Cancel})
		return &FFNModel{net: net, min: min, max: max}
	}
}

// --- Linear model ----------------------------------------------------

// LinearModel is a least-squares straight-line CDF fit; the cheapest
// possible rank model, used as an ablation baseline.
type LinearModel struct {
	Slope, Intercept float64
}

// PredictCDF implements Model.
//
//elsi:noalloc
func (m *LinearModel) PredictCDF(key float64) float64 {
	v := m.Slope*key + m.Intercept
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// LinearTrainer returns a Trainer fitting a LinearModel by least
// squares over (key, rank/n).
func LinearTrainer() Trainer {
	return func(keys []float64) Model {
		n := len(keys)
		if n == 0 {
			return constModel(0)
		}
		if floats.Eq(keys[0], keys[n-1]) {
			return constModel(0.5)
		}
		var sx, sy, sxx, sxy float64
		for i, k := range keys {
			y := float64(i) / float64(n)
			sx += k
			sy += y
			sxx += k * k
			sxy += k * y
		}
		fn := float64(n)
		den := fn*sxx - sx*sx
		if floats.Eq(den, 0) {
			return constModel(0.5)
		}
		slope := (fn*sxy - sx*sy) / den
		return &LinearModel{Slope: slope, Intercept: (sy - slope*sx) / fn}
	}
}

// --- Piecewise-linear model -----------------------------------------

// segment is one piece of a piecewise-linear CDF approximation.
type segment struct {
	startKey  float64
	slope     float64
	intercept float64
}

// PiecewiseModel approximates the CDF with greedy shrinking-cone
// segments guaranteeing |model(k) - cdf(k)| <= eps on the training
// keys, in the spirit of the PGM index the paper cites for theoretical
// bounds.
type PiecewiseModel struct {
	segs []segment
}

// PredictCDF implements Model.
//
//elsi:noalloc
func (m *PiecewiseModel) PredictCDF(key float64) float64 {
	if len(m.segs) == 0 {
		return 0
	}
	// find the last segment with startKey <= key; inlined binary search
	// (first index with startKey > key) keeps the query path free of
	// sort.Search's indirect predicate calls
	segs := m.segs
	lo, hi := 0, len(segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if segs[mid].startKey > key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i := lo
	if i == 0 {
		i = 1
	}
	s := m.segs[i-1]
	v := s.slope*key + s.intercept
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Segments returns the number of linear pieces in the model.
func (m *PiecewiseModel) Segments() int { return len(m.segs) }

// PiecewiseTrainer returns a Trainer building PiecewiseModels with the
// given CDF-space error tolerance eps (e.g. 1/256).
func PiecewiseTrainer(eps float64) Trainer {
	if eps <= 0 {
		eps = 1.0 / 256
	}
	return func(keys []float64) Model {
		n := len(keys)
		m := &PiecewiseModel{}
		if n == 0 {
			return m
		}
		i := 0
		for i < n {
			x0 := keys[i]
			y0 := float64(i) / float64(n)
			loSlope := math.Inf(-1)
			hiSlope := math.Inf(1)
			j := i + 1
			for ; j < n; j++ {
				dx := keys[j] - x0
				y := float64(j) / float64(n)
				if floats.Eq(dx, 0) {
					// Duplicate keys: the prediction at x0 is pinned to
					// y0, so the whole tied block must fit within eps.
					if y-y0 > eps {
						break
					}
					continue
				}
				lo := (y - eps - y0) / dx
				hi := (y + eps - y0) / dx
				newLo, newHi := loSlope, hiSlope
				if lo > newLo {
					newLo = lo
				}
				if hi < newHi {
					newHi = hi
				}
				if newLo > newHi {
					// Point j does not fit; close the segment at j-1
					// without committing j's constraints.
					break
				}
				loSlope, hiSlope = newLo, newHi
			}
			slope := 0.0
			switch {
			case math.IsInf(loSlope, -1) && math.IsInf(hiSlope, 1):
				slope = 0
			case math.IsInf(loSlope, -1):
				slope = hiSlope
			case math.IsInf(hiSlope, 1):
				slope = loSlope
			default:
				slope = (loSlope + hiSlope) / 2
			}
			m.segs = append(m.segs, segment{startKey: x0, slope: slope, intercept: y0 - slope*x0})
			i = j
		}
		return m
	}
}

// --- Staged (RMI) composition ---------------------------------------

// Staged is a two-stage recursive model index: a root model dispatches
// a key to one of the leaf models, each trained on its share of the key
// space, exactly as ZM layers RMI over Z-values. Each leaf may itself
// be built through ELSI.
type Staged struct {
	root   *Bounded // dispatch model with empirical error bounds
	leaves []*Bounded
	splits []int // leaves[i] covers global ranks [splits[i], splits[i+1])
	n      int
}

// NewStaged builds a staged model over sortedKeys with fanout leaves.
// rootTrainer builds the dispatch model (trained on the full key set,
// typically with a cheap trainer); buildLeaf builds each leaf Bounded
// from the partition's global start rank and its keys — ELSI runs its
// full per-model pipeline (method selection, reduced set, error
// bounds) there.
//
// Leaves are built by up to workers goroutines (0 = GOMAXPROCS, 1 =
// serial), so buildLeaf must be safe for concurrent use. The index
// models of different partitions are independent, which is what makes
// learned-index bulk loading parallelizable; the partition boundaries
// and each leaf's training input depend only on the keys and the
// fanout, so the resulting index is identical for any worker count.
//
// buildLeaf may fail (a cancelled or failed per-leaf build), leaf
// builder panics are recovered into *parallel.PanicError, and no new
// leaves start once ctx is done. On any error the partial Staged is
// discarded and the first error (panics outranking cancellations) is
// returned.
func NewStaged(ctx context.Context, sortedKeys []float64, fanout int, rootTrainer Trainer, buildLeaf func(start int, part []float64) (*Bounded, error), workers int) (*Staged, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(sortedKeys)
	if fanout < 1 {
		fanout = 1
	}
	workers = parallel.Resolve(workers)
	root, err := NewBounded(ctx, rootTrainer, sortedKeys, sortedKeys, workers)
	if err != nil {
		return nil, err
	}
	s := &Staged{root: root, n: n}
	s.splits = make([]int, fanout+1)
	for i := 0; i <= fanout; i++ {
		s.splits[i] = i * n / fanout
	}
	s.leaves = make([]*Bounded, fanout)
	var sink parallel.ErrSink
	build := func(i int) (err error) {
		defer func() {
			if pe := parallel.Recovered(recover()); pe != nil {
				err = pe
			}
		}()
		part := sortedKeys[s.splits[i]:s.splits[i+1]]
		if len(part) == 0 {
			s.leaves[i] = &Bounded{Model: constModel(0), N: 0}
			return nil
		}
		b, err := buildLeaf(s.splits[i], part)
		if err != nil {
			return err
		}
		s.leaves[i] = b
		return nil
	}
	if workers == 1 {
		for i := 0; i < fanout; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := build(i); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < fanout; i++ {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			sink.Record(build(i))
		}(i)
	}
	wg.Wait()
	if err := sink.Get(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// leafIndex returns the leaf whose rank range contains global rank r:
// the largest i with splits[i] <= r. The arithmetic shortcut
// r*fanout/n disagrees with the floored split boundaries (and lands on
// empty leaves when n < fanout), so the index is found on the actual
// splits.
//
//elsi:noalloc
func (s *Staged) leafIndex(r int) int {
	li := sort.SearchInts(s.splits, r+1) - 1
	if li < 0 {
		li = 0
	}
	if li >= len(s.leaves) {
		li = len(s.leaves) - 1
	}
	return li
}

// leafFor returns the leaf index the root model predicts for key.
//
//elsi:noalloc
func (s *Staged) leafFor(key float64) int {
	if s.n == 0 {
		return 0
	}
	return s.leafIndex(s.root.PredictRank(key))
}

// leafSpan returns the inclusive range of leaf indices the root model's
// error bounds allow key to land in.
//
//elsi:noalloc
func (s *Staged) leafSpan(key float64) (liLo, liHi int) {
	rLo, rHi := s.root.SearchRange(key)
	if rHi > 0 {
		rHi--
	}
	return s.leafIndex(rLo), s.leafIndex(rHi)
}

// SearchRange returns the global position range [lo, hi) the root's
// best-guess leaf would scan for key. It is not guaranteed to contain
// the key when the root misdispatches; use SearchRangeWide for the
// guaranteed window.
//
//elsi:noalloc
func (s *Staged) SearchRange(key float64) (lo, hi int) {
	if s.n == 0 {
		return 0, 0
	}
	li := s.leafFor(key)
	leaf := s.leaves[li]
	base := s.splits[li]
	llo, lhi := leaf.SearchRange(key)
	return base + llo, base + lhi
}

// SearchRangeWide returns the global position range guaranteed to
// contain key if it is stored: it consults every leaf the root's
// empirical error bounds allow and unions their windows.
//
//elsi:noalloc
func (s *Staged) SearchRangeWide(key float64) (lo, hi int) {
	if s.n == 0 {
		return 0, 0
	}
	liLo, liHi := s.leafSpan(key)
	lo, hi = s.n, 0
	for j := liLo; j <= liHi; j++ {
		if s.leaves[j].N == 0 {
			continue
		}
		jlo, jhi := s.leaves[j].SearchRange(key)
		jlo += s.splits[j]
		jhi += s.splits[j]
		if jlo < lo {
			lo = jlo
		}
		if jhi > hi {
			hi = jhi
		}
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

// Leaves exposes the per-leaf bounded models (for cost accounting).
func (s *Staged) Leaves() []*Bounded { return s.leaves }

// N returns the number of keys indexed.
func (s *Staged) N() int { return s.n }

// --- helpers ----------------------------------------------------------

type constModel float64

func (c constModel) PredictCDF(float64) float64 { return float64(c) }

// ConstModel returns a model that always predicts v.
func ConstModel(v float64) Model { return constModel(v) }

// NewBoundedTheoretical trains a piecewise-linear model on the FULL
// sorted key set and derives its error bounds from the trainer's eps
// guarantee instead of the M(n) prediction pass of Algorithm 1 — the
// PGM-style theoretical bound the paper notes as future work for
// learned spatial indices ("Query error bounds", Section IV-A). The
// guarantee |model(k) - rank(k)/n| <= eps on every training key makes
// ceil(eps*n)+1 a valid rank bound, so the bounds pass is free.
//
// Unlike the empirical path, this construction requires training on
// the full set (the guarantee does not transfer from a reduced set),
// so it trades ELSI's training-set reduction for a cheaper bounds
// stage — an alternative point in the build-cost space that the
// ablation benches compare.
func NewBoundedTheoretical(sortedKeys []float64, eps float64) *Bounded {
	if eps <= 0 {
		eps = 1.0 / 256
	}
	CountTraining()
	m := PiecewiseTrainer(eps)(sortedKeys)
	n := len(sortedKeys)
	bound := int(eps*float64(n)) + 1
	return &Bounded{Model: m, N: n, ErrLo: bound, ErrHi: bound}
}
