package scorer

import (
	"context"
	"math/rand"
	"time"

	"elsi/internal/base"
	"elsi/internal/curve"
	"elsi/internal/dataset"
	"elsi/internal/geo"
	"elsi/internal/kstest"
	"elsi/internal/methods"
	"elsi/internal/rmi"
	"elsi/internal/store"
)

// GenConfig controls ground-truth generation (Section VII-B2, "method
// scorer training"): data sets are generated over a grid of
// cardinalities and uniform-distances, every pool method builds an
// index model for each, and the measured build and point-query
// speedups relative to OG become the training samples.
type GenConfig struct {
	// Cardinalities to sweep (the paper uses 10^4..10^u).
	Cardinalities []int
	// Dists are the dist(D_U, D) values to sweep (paper: 0.0..0.9).
	Dists []float64
	// Trainer is the base index's model family.
	Trainer rmi.Trainer
	// Queries is the number of point queries measured per build.
	Queries int
	// Seed drives data generation.
	Seed int64
	// Pool lists the methods to measure; empty means all six.
	Pool []string
}

// DefaultGenConfig returns a CPU-sized grid: five cardinalities and
// ten distances, as in the paper's 300-combination setup.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Cardinalities: []int{1000, 3000, 10000, 30000, 100000},
		Dists:         []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		Trainer:       rmi.FFNTrainer(rmi.FFNConfig{Hidden: 8, Epochs: 20, Seed: 1}),
		Queries:       200,
		Seed:          1,
	}
}

// PoolBuilders returns the pool methods configured with the paper's
// default parameters around the given trainer. Seed derivations keep
// runs reproducible.
func PoolBuilders(trainer rmi.Trainer, seed int64) map[string]base.ModelBuilder {
	return PoolBuildersWorkers(trainer, seed, 0)
}

// PoolBuildersWorkers is PoolBuilders with an explicit worker count for
// the parallel build stages of every pool method (0 = GOMAXPROCS, 1 =
// serial). Builds are bit-identical across worker counts.
func PoolBuildersWorkers(trainer rmi.Trainer, seed int64, workers int) map[string]base.ModelBuilder {
	return map[string]base.ModelBuilder{
		// Paper parameter defaults (rho = 0.0001, C = 100, eps = 0.5,
		// beta = 10,000, eta = 8) with scale-relative floors so the
		// reduced sets stay meaningful below the paper's 10^8 scale.
		methods.NameSP: &methods.SP{Rho: 0.0001, MinKeys: 500, Trainer: trainer, Workers: workers},
		methods.NameCL: &methods.CL{C: 100, Iterations: 10, Trainer: trainer, Seed: seed, Workers: workers},
		methods.NameMR: &methods.MR{Epsilon: 0.5, SynthSize: 2000, Trainer: trainer, Seed: seed, Workers: workers},
		methods.NameRS: &methods.RS{Beta: 10000, TargetLeaves: 500, Trainer: trainer, Workers: workers},
		methods.NameRL: &methods.RLM{Eta: 8, Steps: 600, Trainer: trainer, Seed: seed, Workers: workers},
		methods.NameOG: &base.Direct{Trainer: trainer, Workers: workers},
	}
}

// GenerateSamples measures every pool method on every generated data
// set and returns the speedup samples. The OG rows are included (with
// speedup 1 by definition) so the scorer learns the baseline too.
// GenerateSamplesCtx is the cancellable form.
func GenerateSamples(cfg GenConfig) []Sample {
	return GenerateSamplesCtx(context.Background(), cfg)
}

// GenerateSamplesCtx is GenerateSamples with build cancellation: ctx is
// threaded into every pool-method build, so an expired deadline voids
// the remaining measurements instead of running the grid to the end.
func GenerateSamplesCtx(ctx context.Context, cfg GenConfig) []Sample {
	if cfg.Queries <= 0 {
		cfg.Queries = 200
	}
	pool := cfg.Pool
	if len(pool) == 0 {
		pool = methods.PoolNames()
	}
	builders := PoolBuilders(cfg.Trainer, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var samples []Sample
	for _, n := range cfg.Cardinalities {
		for _, dist := range cfg.Dists {
			pts := dataset.PointsWithUniformDistance(rng, n, dist)
			d := prepareZOrder(pts)
			st := storeOf(d)
			// OG reference first; a failed reference build (injected
			// fault, hostile data) voids the whole grid cell.
			ogBuild, ogQuery, err := measure(ctx, builders[methods.NameOG], d, st, pts, cfg.Queries, rng)
			if err != nil {
				continue
			}
			for _, name := range pool {
				var b, q float64
				if name == methods.NameOG {
					b, q = ogBuild, ogQuery
				} else {
					b, q, err = measure(ctx, builders[name], d, st, pts, cfg.Queries, rng)
					if err != nil {
						// no measurement, no sample — the scorer trains
						// on whatever the faults left standing
						continue
					}
				}
				samples = append(samples, Sample{
					Method:       name,
					N:            n,
					Dist:         dist,
					BuildSpeedup: ogBuild / max(b, 1e-9),
					QuerySpeedup: ogQuery / max(q, 1e-12),
				})
			}
		}
	}
	return samples
}

// prepareZOrder maps and sorts points by their Z-order keys — the ZM
// mapping the ground-truth harness measures against.
func prepareZOrder(pts []geo.Point) *base.SortedData {
	return base.Prepare(pts, geo.UnitRect, func(p geo.Point) float64 {
		return float64(curve.ZEncode(p, geo.UnitRect))
	})
}

func storeOf(d *base.SortedData) *store.Sorted {
	// The prepared columns are already sorted; adopt them directly
	// instead of materializing an entry copy.
	return store.NewSortedColumns(d.Keys, d.Pts)
}

// measure builds one model with b and times the build and the average
// point query over the resulting predict-and-scan index. The build
// runs through base.BuildModelCtx so a panicking or failing builder
// (fault injection, hostile data) voids the measurement instead of
// crashing ground-truth generation.
func measure(ctx context.Context, b base.ModelBuilder, d *base.SortedData, st *store.Sorted, pts []geo.Point, queries int, rng *rand.Rand) (buildSec, querySec float64, err error) {
	t0 := time.Now()
	m, _, err := base.BuildModelCtx(ctx, b, d)
	buildSec = time.Since(t0).Seconds()
	if err != nil {
		return 0, 0, err
	}
	if len(pts) == 0 {
		return buildSec, 0, nil
	}
	qs := make([]geo.Point, queries)
	for i := range qs {
		qs[i] = pts[rng.Intn(len(pts))]
	}
	t0 = time.Now()
	for _, q := range qs {
		key := d.Map(q)
		lo, hi := m.SearchRange(key)
		st.FindPoint(lo, hi, q)
	}
	querySec = time.Since(t0).Seconds() / float64(queries)
	return buildSec, querySec, nil
}

// MeasureDist computes dist(D_U, D) for a prepared data set — the
// distribution summary the selector consumes at build time.
func MeasureDist(d *base.SortedData) float64 {
	if d.Len() == 0 {
		return 0
	}
	return kstest.DistanceToUniform(d.Keys, d.Keys[0], d.Keys[d.Len()-1])
}

// IndexMeasurer builds a full base index with the given model builder
// and reports its build time and average point-query time. The bench
// harness supplies one per base index so ground truth can be measured
// "when integrated with a base index" (Section VII-B2), rather than on
// the generic single-model surrogate.
type IndexMeasurer func(b base.ModelBuilder, pts []geo.Point, queries []geo.Point) (buildSec, querySec float64, err error)

// GenerateSamplesMeasured is GenerateSamples with a caller-supplied
// measurer: every applicable pool method builds the actual base index
// on every generated data set. pool lists the applicable methods
// (LISA excludes CL and RL).
func GenerateSamplesMeasured(cfg GenConfig, pool []string, measure IndexMeasurer) ([]Sample, error) {
	if cfg.Queries <= 0 {
		cfg.Queries = 200
	}
	if len(pool) == 0 {
		pool = methods.PoolNames()
	}
	builders := PoolBuilders(cfg.Trainer, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var samples []Sample
	for _, n := range cfg.Cardinalities {
		for _, dist := range cfg.Dists {
			pts := dataset.PointsWithUniformDistance(rng, n, dist)
			queries := dataset.QueriesFromData(rng, pts, cfg.Queries)
			ogBuild, ogQuery, err := measure(builders[methods.NameOG], pts, queries)
			if err != nil {
				return nil, err
			}
			for _, name := range pool {
				var b, q float64
				if name == methods.NameOG {
					b, q = ogBuild, ogQuery
				} else {
					b, q, err = measure(builders[name], pts, queries)
					if err != nil {
						return nil, err
					}
				}
				samples = append(samples, Sample{
					Method:       name,
					N:            n,
					Dist:         dist,
					BuildSpeedup: ogBuild / max(b, 1e-9),
					QuerySpeedup: ogQuery / max(q, 1e-12),
				})
			}
		}
	}
	return samples, nil
}
