package methods

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"elsi/internal/base"
	"elsi/internal/faults"
	"elsi/internal/floats"
	"elsi/internal/geo"
	"elsi/internal/rmi"
)

// CL is the clustering method (Section V-A2): k-means over the
// original space with C clusters; the cluster centroids form Ds. Its
// cost O(C*n*d*i) makes it the most expensive pool method, which is
// exactly the trade-off the Pareto study exposes.
type CL struct {
	C          int // number of clusters (paper default 100)
	Iterations int // Lloyd iterations (i in the cost analysis)
	Trainer    rmi.Trainer
	Seed       int64
	// Workers bounds the parallel error-bound scan (0 = GOMAXPROCS).
	Workers int
}

// Name implements base.ModelBuilder.
func (m *CL) Name() string { return NameCL }

// BuildModel implements base.ModelBuilder. Injection point:
// "build/CL". The Lloyd iterations — the pool's most expensive reduce
// step, O(C*n*i) — observe ctx at iteration boundaries.
func (m *CL) BuildModel(ctx context.Context, d *base.SortedData) (*rmi.Bounded, base.BuildStats, error) {
	if err := faults.HitCtx(ctx, "build/"+NameCL); err != nil {
		return nil, base.BuildStats{}, err
	}
	t0 := time.Now()
	iters := m.Iterations
	if iters <= 0 {
		iters = 10
	}
	centroids, err := KMeans(ctx, d.Pts, m.C, iters, m.Seed)
	if err != nil {
		return nil, base.BuildStats{}, err
	}
	keys := make([]float64, len(centroids))
	for i, c := range centroids {
		keys[i] = d.Map(c)
	}
	sort.Float64s(keys)
	return base.FromKeysCtx(ctx, NameCL, m.Trainer, keys, d, time.Since(t0), m.Workers)
}

// KMeans runs Lloyd's algorithm with k-means++-style seeding and
// returns the cluster centroids, checking ctx at Lloyd iteration
// boundaries. Empty clusters keep their previous centers. k is clamped
// to [minTrainSet, len(pts)].
func KMeans(ctx context.Context, pts []geo.Point, k, iterations int, seed int64) ([]geo.Point, error) {
	n := len(pts)
	if n == 0 {
		return nil, nil
	}
	if k < minTrainSet {
		k = minTrainSet
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	centers := seedPlusPlus(pts, k, rng)
	assign := make([]int, n)
	for iter := 0; iter < iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		changed := false
		for i, p := range pts {
			best, bestD := 0, p.Dist2(centers[0])
			for c := 1; c < k; c++ {
				if d := p.Dist2(centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		sumX := make([]float64, k)
		sumY := make([]float64, k)
		count := make([]int, k)
		for i, p := range pts {
			c := assign[i]
			sumX[c] += p.X
			sumY[c] += p.Y
			count[c]++
		}
		for c := 0; c < k; c++ {
			if count[c] > 0 {
				centers[c] = geo.Point{X: sumX[c] / float64(count[c]), Y: sumY[c] / float64(count[c])}
			}
		}
		if !changed && iter > 0 {
			break
		}
	}
	return centers, nil
}

// seedPlusPlus picks k initial centers with D^2 weighting (k-means++).
func seedPlusPlus(pts []geo.Point, k int, rng *rand.Rand) []geo.Point {
	n := len(pts)
	centers := make([]geo.Point, 0, k)
	centers = append(centers, pts[rng.Intn(n)])
	d2 := make([]float64, n)
	for i, p := range pts {
		d2[i] = p.Dist2(centers[0])
	}
	for len(centers) < k {
		total := 0.0
		for _, d := range d2 {
			total += d
		}
		var next geo.Point
		if floats.Eq(total, 0) {
			next = pts[rng.Intn(n)]
		} else {
			r := rng.Float64() * total
			idx := n - 1
			acc := 0.0
			for i, d := range d2 {
				acc += d
				if acc >= r {
					idx = i
					break
				}
			}
			next = pts[idx]
		}
		centers = append(centers, next)
		for i, p := range pts {
			if d := p.Dist2(next); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centers
}

func sortFloat64s(v []float64) { sort.Float64s(v) }
