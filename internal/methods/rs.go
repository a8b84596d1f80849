package methods

import (
	"context"
	"sort"
	"time"

	"elsi/internal/base"
	"elsi/internal/faults"
	"elsi/internal/geo"
	"elsi/internal/quadtree"
	"elsi/internal/rmi"
)

// RS is the representative-set method proposed in Section V-B1
// (Algorithm 2): the original space is recursively partitioned into
// 2^d cells until every cell holds at most Beta points; the median
// point (in the mapped space) of each non-empty cell joins Ds. RS
// approximates the distribution in both the original and the mapped
// space, which is what gives it the strong query times of Figure 7.
type RS struct {
	Beta int // leaf capacity (paper default 10,000, swept to 100)
	// TargetLeaves, when positive, derives beta from the partition
	// size as n/TargetLeaves — the scale-relative form of the paper's
	// absolute default, which was tuned for 10^8-point data sets.
	TargetLeaves int
	Trainer      rmi.Trainer
	// Workers bounds the parallel error-bound scan (0 = GOMAXPROCS).
	Workers int
}

// Name implements base.ModelBuilder.
func (m *RS) Name() string { return NameRS }

// BuildModel implements base.ModelBuilder. Injection point:
// "build/RS".
func (m *RS) BuildModel(ctx context.Context, d *base.SortedData) (*rmi.Bounded, base.BuildStats, error) {
	if err := faults.HitCtx(ctx, "build/"+NameRS); err != nil {
		return nil, base.BuildStats{}, err
	}
	t0 := time.Now()
	beta := m.Beta
	if m.TargetLeaves > 0 {
		beta = d.Len() / m.TargetLeaves
		if beta < 1 {
			beta = 1
		}
		if m.Beta > 0 && beta > m.Beta {
			beta = m.Beta
		}
	}
	keys := RepresentativeKeys(d, beta)
	return base.FromKeysCtx(ctx, NameRS, m.Trainer, keys, d, time.Since(t0), m.Workers)
}

// RepresentativeKeys runs the get_RS partitioning and returns the
// sorted mapped keys of the representatives.
func RepresentativeKeys(d *base.SortedData, beta int) []float64 {
	if beta < 1 {
		beta = 1
	}
	if d.Len() <= minTrainSet {
		return append([]float64(nil), d.Keys...)
	}
	qt := quadtree.New(d.Pts, d.Space, beta)
	var keys []float64
	qt.Leaves(func(_ geo.Rect, pts []geo.Point) {
		if len(pts) == 0 {
			return
		}
		keys = append(keys, medianKey(pts, d.Map))
	})
	sort.Float64s(keys)
	if len(keys) < minTrainSet {
		// degenerate partitioning (e.g. beta >= n): fall back to the
		// extreme keys so the model sees the full range
		keys = []float64{d.Keys[0], d.Keys[d.Len()-1]}
	}
	return keys
}

// medianKey returns the median mapped key of pts.
func medianKey(pts []geo.Point, mapKey func(geo.Point) float64) float64 {
	keys := make([]float64, len(pts))
	for i, p := range pts {
		keys[i] = mapKey(p)
	}
	sort.Float64s(keys)
	return keys[len(keys)/2]
}
