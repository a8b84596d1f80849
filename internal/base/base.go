// Package base defines the contract between ELSI and the learned
// spatial indices it accelerates. A base index following the
// map-and-sort paradigm prepares a SortedData (points sorted by their
// 1-D mapped keys) for every index model it needs, and asks a
// ModelBuilder to produce the model. The ModelBuilder is the plug-in
// point: the OG builder trains directly on the full data (the index's
// original behaviour), while the ELSI system selects an index building
// method that trains on a reduced set.
package base

import (
	"context"
	"time"

	"elsi/internal/faults"
	"elsi/internal/geo"
	"elsi/internal/parallel"
	"elsi/internal/rmi"
)

// SortedData is a data set (or partition) prepared for model building:
// points sorted ascending by their mapped keys.
type SortedData struct {
	// Pts are the data points, sorted by Keys.
	Pts []geo.Point
	// Keys are the mapped 1-D keys, sorted ascending, parallel to Pts.
	Keys []float64
	// Space is the data-space rectangle of the partition.
	Space geo.Rect
	// Map computes the mapped key of an arbitrary point. Building
	// methods that synthesize points not in the data set (CL, RL) use
	// it to place their synthetic training points in the key space.
	Map func(geo.Point) float64
}

// Len returns the partition cardinality.
func (d *SortedData) Len() int { return len(d.Keys) }

// BuildStats records the cost decomposition of one model build — the
// quantities of Table I.
type BuildStats struct {
	// Method is the index building method used ("SP", "CL", ..., "OG").
	Method string
	// TrainSetSize is |Ds|.
	TrainSetSize int
	// ReduceTime is the method-specific extra cost of computing Ds.
	ReduceTime time.Duration
	// TrainTime is T(|Ds|), the model training cost.
	TrainTime time.Duration
	// BoundsTime is M(n), the cost of predicting every point of D to
	// derive the empirical error bounds.
	BoundsTime time.Duration
	// ErrWidth is err_l + err_u.
	ErrWidth int
	// Selected is the method the selector originally picked for this
	// build. It equals Method unless the degradation ladder fell back;
	// empty when the build did not go through a selector.
	Selected string
	// Fallbacks counts the ladder rungs tried and abandoned before
	// Method succeeded (0 = the selected method built cleanly).
	Fallbacks int
}

// ModelBuilder builds a bounded rank model for a prepared partition.
type ModelBuilder interface {
	// Name identifies the builder ("OG", "ELSI", or a method name).
	Name() string
	// BuildModel trains a model for d and computes its empirical error
	// bounds over all of d.Keys. It returns an error (instead of an
	// index) when the build is cancelled, blows its budget, or fails;
	// it must not return (nil, _, nil).
	BuildModel(ctx context.Context, d *SortedData) (*rmi.Bounded, BuildStats, error)
}

// BuildModelCtx runs b.BuildModel under panic isolation: a builder may
// still panic (injected faults, hostile inputs) and must fail the
// attempt, not the caller.
func BuildModelCtx(ctx context.Context, b ModelBuilder, d *SortedData) (m *rmi.Bounded, stats BuildStats, err error) {
	defer func() {
		if pe := parallel.Recovered(recover()); pe != nil {
			m, stats, err = nil, BuildStats{}, pe
		}
	}()
	return b.BuildModel(ctx, d)
}

// Direct is the OG builder: it trains on the full key set, which is
// what the base indices do without ELSI.
type Direct struct {
	Trainer rmi.Trainer
	// Workers bounds the parallel error-bound scan (0 = GOMAXPROCS).
	Workers int
}

// Name implements ModelBuilder.
func (b *Direct) Name() string { return "OG" }

// BuildModel implements ModelBuilder. Injection point: "build/OG".
func (b *Direct) BuildModel(ctx context.Context, d *SortedData) (*rmi.Bounded, BuildStats, error) {
	if err := faults.HitCtx(ctx, "build/OG"); err != nil {
		return nil, BuildStats{}, err
	}
	return FromKeysCtx(ctx, "OG", b.Trainer, d.Keys, d, 0, b.Workers)
}

// FromKeysCtx finishes a model build given the reduced training keys:
// train on trainKeys under rmi.SafeTrain, then bound against the full
// d.Keys with workers goroutines (0 = GOMAXPROCS), checking ctx at
// block boundaries. Every builder shares this tail of the pipeline;
// the scan is its M(n) term, so this is where the pool methods spend
// most of their build time once |Ds| << n.
func FromKeysCtx(ctx context.Context, method string, trainer rmi.Trainer, trainKeys []float64, d *SortedData, reduceTime time.Duration, workers int) (*rmi.Bounded, BuildStats, error) {
	stats := BuildStats{Method: method, TrainSetSize: len(trainKeys), ReduceTime: reduceTime}
	t0 := time.Now()
	m, err := rmi.SafeTrain(trainer, trainKeys)
	stats.TrainTime = time.Since(t0)
	if err != nil {
		return nil, BuildStats{}, err
	}
	t0 = time.Now()
	lo, hi, err := rmi.ErrorBounds(ctx, m, d.Keys, workers)
	stats.BoundsTime = time.Since(t0)
	if err != nil {
		return nil, BuildStats{}, err
	}
	stats.ErrWidth = lo + hi
	return &rmi.Bounded{Model: m, N: d.Len(), ErrLo: lo, ErrHi: hi}, stats, nil
}

// Prepare maps and sorts pts into a SortedData using mapKey — the
// shared data-preparation step (lines 1-2 of Algorithm 1) — using the
// default worker count.
func Prepare(pts []geo.Point, space geo.Rect, mapKey func(geo.Point) float64) *SortedData {
	return PrepareWorkers(pts, space, mapKey, 0)
}

// PrepareWorkers is Prepare with an explicit worker count (0 =
// GOMAXPROCS, 1 = serial). Key mapping is chunked across workers and
// the key/point pairs are sorted with a deterministic stable parallel
// merge sort, so the resulting storage order — including the order of
// equal keys — is identical for any worker count. mapKey must be safe
// for concurrent calls (every mapping in the repo is a pure function
// of the point and read-only index state).
func PrepareWorkers(pts []geo.Point, space geo.Rect, mapKey func(geo.Point) float64, workers int) *SortedData {
	d := &SortedData{
		Pts:   make([]geo.Point, len(pts)),
		Keys:  make([]float64, len(pts)),
		Space: space,
		Map:   mapKey,
	}
	copy(d.Pts, pts)
	parallel.For(len(pts), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d.Keys[i] = mapKey(d.Pts[i])
		}
	})
	parallel.SortPairs(d.Keys, d.Pts, workers)
	return d
}
