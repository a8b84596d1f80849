// Package methods implements ELSI's index building methods (Section
// V): each method computes a small training set Ds that preserves the
// key distribution of the input partition D, trains the base index's
// model family on Ds, and derives empirical error bounds over D. The
// adapted methods are SP (systematic sampling), RSP (random sampling,
// the baseline the paper compares SP against), CL (k-means
// clustering), and MR (model reuse); the proposed methods are RS
// (representative set via quadtree partitioning) and RL
// (reinforcement-learning grid search).
package methods

import (
	"context"
	"math/rand"
	"time"

	"elsi/internal/base"
	"elsi/internal/faults"
	"elsi/internal/floats"
	"elsi/internal/rmi"
)

// Method names as used throughout the experiments.
const (
	NameSP  = "SP"
	NameRSP = "RSP"
	NameCL  = "CL"
	NameMR  = "MR"
	NameRS  = "RS"
	NameRL  = "RL"
	NameOG  = "OG"
)

// PoolNames lists the six pool methods of Figure 4 (RSP is a
// comparison baseline, not a pool member).
func PoolNames() []string {
	return []string{NameSP, NameCL, NameMR, NameRS, NameRL, NameOG}
}

// SynthesizesPoints reports whether a method produces training points
// that are not members of the data set. Such methods (CL, MR, RL) are
// inapplicable to base indices that require Ds ⊆ D, e.g. LISA
// (Section VII-A notes CL and RL do not apply to LISA).
func SynthesizesPoints(name string) bool {
	switch name {
	case NameCL, NameMR, NameRL:
		return true
	}
	return false
}

// minTrainSet is the smallest reduced set any method will emit;
// training a model on fewer points is meaningless.
const minTrainSet = 2

// --- SP: systematic sampling ------------------------------------------

// SP is the systematic sampling method: every floor(1/rho)-th point of
// the sorted data set is selected. The pigeonhole argument in Section
// V-A1 makes it the rank-gap-optimal sampler.
type SP struct {
	Rho float64 // sampling rate (paper default 0.0001)
	// MinKeys floors the sample size: the paper's absolute rate was
	// tuned for 10^8-point data sets, so scaled-down runs raise the
	// effective rate until at least MinKeys keys are sampled.
	MinKeys int
	Trainer rmi.Trainer
	// Workers bounds the parallel error-bound scan (0 = GOMAXPROCS).
	Workers int
}

// Name implements base.ModelBuilder.
func (m *SP) Name() string { return NameSP }

// BuildModel implements base.ModelBuilder. Injection point:
// "build/SP".
func (m *SP) BuildModel(ctx context.Context, d *base.SortedData) (*rmi.Bounded, base.BuildStats, error) {
	if err := faults.HitCtx(ctx, "build/"+NameSP); err != nil {
		return nil, base.BuildStats{}, err
	}
	t0 := time.Now()
	keys := SystematicSampleMin(d.Keys, m.Rho, m.MinKeys)
	return base.FromKeysCtx(ctx, NameSP, m.Trainer, keys, d, time.Since(t0), m.Workers)
}

// SystematicSampleMin returns every stride-th key of sorted keys for
// a sampling rate rho, always keeping at least max(minKeys,
// minTrainSet) keys (and the last key, so the sampled CDF spans the
// full key range).
func SystematicSampleMin(keys []float64, rho float64, minKeys int) []float64 {
	n := len(keys)
	if minKeys < minTrainSet {
		minKeys = minTrainSet
	}
	if n <= minKeys {
		return append([]float64(nil), keys...)
	}
	if rho <= 0 {
		rho = 1.0 / float64(n)
	}
	if rho > 1 {
		rho = 1
	}
	stride := int(1 / rho)
	if stride < 1 {
		stride = 1
	}
	if stride > n/minKeys {
		stride = n / minKeys
	}
	out := make([]float64, 0, n/stride+2)
	for i := 0; i < n; i += stride {
		out = append(out, keys[i])
	}
	if !floats.Eq(out[len(out)-1], keys[n-1]) {
		out = append(out, keys[n-1])
	}
	return out
}

// --- RSP: random sampling ---------------------------------------------

// RSP is the random-sampling baseline (Li et al. 2021) the paper
// compares SP against in Figure 7.
type RSP struct {
	Rho float64
	// MinKeys floors the sample size, as for SP.
	MinKeys int
	Trainer rmi.Trainer
	Seed    int64
	// Workers bounds the parallel error-bound scan (0 = GOMAXPROCS).
	Workers int
}

// Name implements base.ModelBuilder.
func (m *RSP) Name() string { return NameRSP }

// BuildModel implements base.ModelBuilder. Injection point:
// "build/RSP".
func (m *RSP) BuildModel(ctx context.Context, d *base.SortedData) (*rmi.Bounded, base.BuildStats, error) {
	if err := faults.HitCtx(ctx, "build/"+NameRSP); err != nil {
		return nil, base.BuildStats{}, err
	}
	t0 := time.Now()
	n := d.Len()
	count := int(m.Rho * float64(n))
	if count < m.MinKeys {
		count = m.MinKeys
	}
	if count < minTrainSet {
		count = minTrainSet
	}
	if count > n {
		count = n
	}
	rng := rand.New(rand.NewSource(m.Seed))
	// sample ranks without replacement via partial Fisher-Yates
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	keys := make([]float64, count)
	for i := 0; i < count; i++ {
		j := i + rng.Intn(n-i)
		ranks[i], ranks[j] = ranks[j], ranks[i]
		keys[i] = d.Keys[ranks[i]]
	}
	sortFloat64s(keys)
	return base.FromKeysCtx(ctx, NameRSP, m.Trainer, keys, d, time.Since(t0), m.Workers)
}
