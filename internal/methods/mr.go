package methods

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"elsi/internal/base"
	"elsi/internal/faults"
	"elsi/internal/floats"
	"elsi/internal/kstest"
	"elsi/internal/parallel"
	"elsi/internal/rmi"
)

// MR is the model-reuse method (Section V-A3, after Liu et al. 2021):
// synthetic key sets whose CDFs heuristically cover the CDF space
// within a threshold epsilon are generated and models pre-trained on
// them offline; at build time the pre-trained model of the most
// similar synthetic set (by KS distance) indexes the data. MR runs no
// online training — only the M(n) bounds pass — making it the
// cheapest pool method.
type MR struct {
	// Epsilon is the coverage threshold; smaller values produce a
	// denser pool (paper default 0.5, swept down to 0.1 in Figure 7).
	Epsilon float64
	// SynthSize is the cardinality of each synthetic key set.
	SynthSize int
	Trainer   rmi.Trainer
	Seed      int64
	// Workers bounds both the parallel pre-training of the pool and
	// the parallel error-bound scan (0 = GOMAXPROCS).
	Workers int

	prepOnce sync.Once
	pool     []pretrained
	prepTime time.Duration
}

type pretrained struct {
	keys  []float64 // sorted synthetic keys in [0, 1]
	model rmi.Model // trained on keys
}

// Name implements base.ModelBuilder.
func (m *MR) Name() string { return NameMR }

// Prepare generates the synthetic pool and pre-trains its models. It
// is an offline, one-off step (Section VII-B2: "system preparation");
// BuildModel triggers it lazily if needed, but its time is reported
// separately via PrepareTime, not in the per-build stats.
func (m *MR) Prepare() {
	m.prepOnce.Do(func() {
		t0 := time.Now()
		eps := m.Epsilon
		if eps <= 0 || eps > 1 {
			eps = 0.5
		}
		size := m.SynthSize
		if size <= 0 {
			size = 2000
		}
		rng := rand.New(rand.NewSource(m.Seed))
		// Key-set generation stays serial (it consumes the shared rng);
		// the candidate models are independent of each other, so they
		// pre-train in parallel. Each Trainer call seeds its own rng, so
		// the pool is identical for any worker count.
		sets := SyntheticCDFPool(rng, eps, size)
		m.pool = make([]pretrained, len(sets))
		parallel.For(len(sets), m.Workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				rmi.CountTraining()
				m.pool[i] = pretrained{keys: sets[i], model: m.Trainer(sets[i])}
			}
		})
		m.prepTime = time.Since(t0)
	})
}

// PrepareTime returns the offline pool preparation cost (zero before
// the first Prepare).
func (m *MR) PrepareTime() time.Duration {
	return m.prepTime
}

// PoolSize returns the number of pre-trained models.
func (m *MR) PoolSize() int {
	m.Prepare()
	return len(m.pool)
}

// BuildModel implements base.ModelBuilder: find the synthetic set most
// similar to d's (normalized) key CDF and reuse its model. Injection
// point: "build/MR". The pool similarity scan observes ctx between
// candidates.
func (m *MR) BuildModel(ctx context.Context, d *base.SortedData) (*rmi.Bounded, base.BuildStats, error) {
	if err := faults.HitCtx(ctx, "build/"+NameMR); err != nil {
		return nil, base.BuildStats{}, err
	}
	m.Prepare()
	t0 := time.Now()
	if d.Len() == 0 {
		return base.FromKeysCtx(ctx, NameMR, m.Trainer, d.Keys, d, time.Since(t0), m.Workers)
	}
	lo, hi := d.Keys[0], d.Keys[d.Len()-1]
	if floats.Eq(hi, lo) {
		return base.FromKeysCtx(ctx, NameMR, m.Trainer, d.Keys, d, time.Since(t0), m.Workers)
	}
	// Normalize the data keys once; similarity search then costs
	// O(n_mr * n_s * log n) using the binary-search KS distance.
	norm := make([]float64, d.Len())
	span := hi - lo
	for i, k := range d.Keys {
		norm[i] = (k - lo) / span
	}
	bestIdx, bestDist := 0, math.Inf(1)
	for i, pt := range m.pool {
		if err := ctx.Err(); err != nil {
			return nil, base.BuildStats{}, err
		}
		if dist := kstest.Distance(pt.keys, norm); dist < bestDist {
			bestIdx, bestDist = i, dist
		}
	}
	reduceTime := time.Since(t0)
	chosen := m.pool[bestIdx]
	model := &remapModel{inner: chosen.model, lo: lo, span: span}
	stats := base.BuildStats{
		Method:       NameMR,
		TrainSetSize: len(chosen.keys),
		ReduceTime:   reduceTime,
		TrainTime:    0, // reuse: no online training
	}
	t0 = time.Now()
	eLo, eHi, err := rmi.ErrorBounds(ctx, model, d.Keys, m.Workers)
	stats.BoundsTime = time.Since(t0)
	if err != nil {
		return nil, base.BuildStats{}, err
	}
	stats.ErrWidth = eLo + eHi
	return &rmi.Bounded{Model: model, N: d.Len(), ErrLo: eLo, ErrHi: eHi}, stats, nil
}

// remapModel adapts a model trained on [0,1]-normalized keys to the
// data's actual key range.
type remapModel struct {
	inner    rmi.Model
	lo, span float64
}

func (m *remapModel) PredictCDF(key float64) float64 {
	return m.inner.PredictCDF((key - m.lo) / m.span)
}

// Predictor implements rmi.ScratchModel, so the parallel bounds scan
// gets a per-worker allocation-free predictor when the inner model
// provides one (e.g. an FFN with reusable scratch).
func (m *remapModel) Predictor() func(key float64) float64 {
	inner := rmi.PredictorOf(m.inner)
	lo, span := m.lo, m.span
	return func(key float64) float64 {
		return inner((key - lo) / span)
	}
}

// SyntheticCDFPool generates sorted key sets in [0,1] whose CDFs
// heuristically cover the CDF space with granularity eps: power-law
// CDFs x^(1/a) in both skew directions with exponents spaced so
// neighbouring CDFs are about eps apart, plus mass-mixture CDFs with
// point masses of weight 0, eps, 2*eps, ... near zero.
func SyntheticCDFPool(rng *rand.Rand, eps float64, size int) [][]float64 {
	var pool [][]float64
	// Power family: keys = u^a gives CDF x^(1/a). The KS distance
	// between exponents a and a' grows with |log a - log a'|, so a
	// geometric ladder with ratio tied to eps covers the family.
	steps := int(math.Ceil(2 / eps))
	if steps < 1 {
		steps = 1
	}
	maxExp := 8.0
	for i := 0; i <= steps; i++ {
		a := math.Pow(maxExp, float64(i)/float64(steps)) // 1 .. maxExp
		pool = append(pool, powerKeys(size, a))
		if !floats.Eq(a, 1) {
			pool = append(pool, reversedKeys(powerKeys(size, a)))
		}
	}
	// Mass mixtures: a w-weighted point mass at 0 plus uniform rest;
	// KS distance to uniform is w.
	for w := eps; w < 0.95; w += eps {
		pool = append(pool, massKeys(rng, size, w))
	}
	return pool
}

// powerKeys returns size sorted keys u^a for a regular grid of u.
func powerKeys(size int, a float64) []float64 {
	keys := make([]float64, size)
	for i := range keys {
		u := (float64(i) + 0.5) / float64(size)
		keys[i] = math.Pow(u, a)
	}
	return keys
}

// reversedKeys mirrors keys around 0.5 (skew toward 1 instead of 0).
func reversedKeys(keys []float64) []float64 {
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[len(keys)-1-i] = 1 - k
	}
	return out
}

// massKeys returns a sorted mixture of a w point mass near zero and a
// uniform remainder.
func massKeys(rng *rand.Rand, size int, w float64) []float64 {
	keys := make([]float64, size)
	mass := int(w * float64(size))
	const delta = 1e-6
	for i := 0; i < mass; i++ {
		keys[i] = rng.Float64() * delta
	}
	for i := mass; i < size; i++ {
		keys[i] = delta + rng.Float64()*(1-delta)
	}
	sort.Float64s(keys)
	return keys
}
