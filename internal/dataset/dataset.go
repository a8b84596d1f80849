// Package dataset generates the synthetic data sets used across the
// experiments. The paper evaluates on four real sets (OSM1, OSM2,
// TPC-H, NYC) and two synthetic ones (Uniform, Skewed). The real sets
// are not redistributable and weigh gigabytes, so this package provides
// distribution-matched surrogates (see DESIGN.md, "Substitutions"):
// the learned-index behaviour ELSI exercises depends only on the shape
// of the mapped key CDF, which the surrogates reproduce — heavy
// clustered skew for OSM, extreme street-grid skew for NYC, and a
// discrete lattice for TPC-H.
//
// All generators take an explicit seed so every experiment is
// reproducible.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"elsi/internal/geo"
)

// Names of the built-in data sets, mirroring Section VII-A.
const (
	Uniform = "uniform"
	Skewed  = "skewed"
	OSM1    = "osm1"
	OSM2    = "osm2"
	NYC     = "nyc"
	TPCH    = "tpch"
)

// All lists the built-in data set names in the order the paper's
// figures present them.
func All() []string {
	return []string{Uniform, Skewed, OSM1, OSM2, TPCH, NYC}
}

// Generate returns n points of the named data set inside the unit
// square, generated deterministically from seed.
func Generate(name string, n int, seed int64) ([]geo.Point, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case Uniform:
		return UniformPoints(rng, n), nil
	case Skewed:
		return SkewedPoints(rng, n, 4), nil
	case OSM1:
		// North America surrogate: many clusters of very different
		// density plus sparse background (rural roads).
		return ClusterMix(rng, n, 256, 0.004, 0.06, 0.10), nil
	case OSM2:
		// South America surrogate: fewer, denser population centers.
		return ClusterMix(rng, n, 64, 0.003, 0.04, 0.05), nil
	case NYC:
		return NYCPoints(rng, n), nil
	case TPCH:
		return TPCHPoints(rng, n), nil
	default:
		return nil, fmt.Errorf("dataset: unknown data set %q", name)
	}
}

// MustGenerate is Generate for the built-in names, panicking on error.
func MustGenerate(name string, n int, seed int64) []geo.Point {
	pts, err := Generate(name, n, seed)
	if err != nil {
		panic(err)
	}
	return pts
}

// UniformPoints returns n points uniformly distributed in the unit
// square.
func UniformPoints(rng *rand.Rand, n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

// SkewedPoints returns n points where x is uniform and y is y_u^s for
// uniform y_u — the construction used by the paper's Skewed set
// (s = 4, following HRR).
func SkewedPoints(rng *rand.Rand, n int, s float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64(), Y: math.Pow(rng.Float64(), s)}
	}
	return pts
}

// ClusterMix returns n points drawn from a Gaussian-mixture with
// Zipf-weighted cluster sizes plus a uniform background fraction.
// sigmaMin/sigmaMax bound the per-cluster standard deviation.
func ClusterMix(rng *rand.Rand, n, clusters int, sigmaMin, sigmaMax, uniformFrac float64) []geo.Point {
	if clusters < 1 {
		clusters = 1
	}
	type cl struct {
		c     geo.Point
		sigma float64
	}
	cs := make([]cl, clusters)
	weights := make([]float64, clusters)
	total := 0.0
	for i := range cs {
		cs[i] = cl{
			c:     geo.Point{X: rng.Float64(), Y: rng.Float64()},
			sigma: sigmaMin + rng.Float64()*(sigmaMax-sigmaMin),
		}
		// Zipf-like weights give a few huge metros and a long tail.
		weights[i] = 1.0 / float64(i+1)
		total += weights[i]
	}
	// cumulative weights for sampling
	cum := make([]float64, clusters)
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	pts := make([]geo.Point, n)
	for i := range pts {
		if rng.Float64() < uniformFrac {
			pts[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
			continue
		}
		u := rng.Float64()
		k := 0
		for k < clusters-1 && cum[k] < u {
			k++
		}
		c := cs[k]
		pts[i] = geo.UnitRect.Clamp(geo.Point{
			X: c.c.X + rng.NormFloat64()*c.sigma,
			Y: c.c.Y + rng.NormFloat64()*c.sigma,
		})
	}
	return pts
}

// NYCPoints returns the NYC-taxi surrogate: extremely tight clusters on
// a street-like lattice within a small sub-region of the space, the
// skew regime in which the paper observes Grid degrading (frequent
// block splits in dense cells).
func NYCPoints(rng *rand.Rand, n int) []geo.Point {
	// Manhattan-like core occupying ~8% of the space.
	core := geo.Rect{MinX: 0.42, MinY: 0.30, MaxX: 0.58, MaxY: 0.80}
	const streets = 160 // lattice resolution inside the core
	pts := make([]geo.Point, n)
	for i := range pts {
		if rng.Float64() < 0.05 {
			// airport trips and outliers
			pts[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
			continue
		}
		// pick a lattice intersection, denser toward the center
		u := math.Pow(rng.Float64(), 1.5)
		v := math.Pow(rng.Float64(), 1.2)
		sx := math.Floor(u*streets) / streets
		sy := math.Floor(v*streets) / streets
		jitter := 0.0008
		pts[i] = geo.UnitRect.Clamp(geo.Point{
			X: core.MinX + sx*core.Width() + rng.NormFloat64()*jitter,
			Y: core.MinY + sy*core.Height() + rng.NormFloat64()*jitter,
		})
	}
	return pts
}

// TPCHPoints returns the TPC-H surrogate: the (quantity, shipdate)
// columns of lineitem form a discrete lattice — quantity in 1..50,
// shipdate over ~2,500 distinct days — normalized to the unit square.
func TPCHPoints(rng *rand.Rand, n int) []geo.Point {
	const quantities = 50
	const days = 2466 // TPC-H shipdate range in days
	pts := make([]geo.Point, n)
	for i := range pts {
		q := 1 + rng.Intn(quantities)
		d := rng.Intn(days)
		pts[i] = geo.Point{
			X: float64(q) / float64(quantities),
			Y: float64(d) / float64(days),
		}
	}
	return pts
}

// PointsWithUniformDistance returns n 2-D points whose Z-key
// distribution deviates from uniform by roughly d: a d fraction of the
// points collapses into a tiny cluster at the origin cell while the
// rest stay uniform.
func PointsWithUniformDistance(rng *rand.Rand, n int, d float64) []geo.Point {
	if d < 0 {
		d = 0
	}
	if d > 0.95 {
		d = 0.95
	}
	mass := int(d * float64(n))
	pts := make([]geo.Point, n)
	const delta = 1e-4
	for i := 0; i < mass; i++ {
		pts[i] = geo.Point{X: rng.Float64() * delta, Y: rng.Float64() * delta}
	}
	for i := mass; i < n; i++ {
		pts[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	rng.Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// WindowsFromData returns count query windows following the data
// distribution (the paper's window workload): each window is centered
// on a random data point and covers areaFrac of the data space.
func WindowsFromData(rng *rand.Rand, pts []geo.Point, space geo.Rect, count int, areaFrac float64) []geo.Rect {
	if len(pts) == 0 || count <= 0 {
		return nil
	}
	side := math.Sqrt(areaFrac * space.Area())
	wins := make([]geo.Rect, count)
	for i := range wins {
		c := pts[rng.Intn(len(pts))]
		wins[i] = geo.Rect{
			MinX: c.X - side/2, MinY: c.Y - side/2,
			MaxX: c.X + side/2, MaxY: c.Y + side/2,
		}
	}
	return wins
}

// QueriesFromData returns count query points sampled from the data set
// (the paper's point and kNN workloads follow the data distribution).
func QueriesFromData(rng *rand.Rand, pts []geo.Point, count int) []geo.Point {
	if len(pts) == 0 || count <= 0 {
		return nil
	}
	qs := make([]geo.Point, count)
	for i := range qs {
		qs[i] = pts[rng.Intn(len(pts))]
	}
	return qs
}
