package scorer

import (
	"context"
	"math/rand"
	"time"

	"elsi/internal/base"
	"elsi/internal/curve"
	"elsi/internal/dataset"
	"elsi/internal/geo"
	"elsi/internal/methods"
	"elsi/internal/nn"
	"elsi/internal/store"
)

// This file implements the scorer generalization the paper sketches in
// Section IV-B1: "We consider point query costs since point queries
// are building blocks for more complex queries. Costs of other query
// types, e.g., window queries, can also be considered." A third FFN
// head learns window-query speedups, and a mixed score blends the
// point and window terms by the workload's window share.

// WindowSample extends Sample with a measured window-query speedup.
type WindowSample struct {
	Sample
	WindowSpeedup float64
}

// WindowScorer is a Scorer with an additional window-cost head.
type WindowScorer struct {
	Scorer
	windowNet *nn.Network
}

// TrainWithWindow fits the three cost FFNs on window-annotated ground
// truth.
func TrainWithWindow(samples []WindowSample, cfg Config) (*WindowScorer, error) {
	basic := make([]Sample, len(samples))
	for i, s := range samples {
		basic[i] = s.Sample
	}
	sc, err := Train(basic, cfg)
	if err != nil {
		return nil, err
	}
	ws := &WindowScorer{Scorer: *sc}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	ws.windowNet = nn.New(rng, featureDim, cfg.Hidden, 1)
	xs := make([][]float64, len(samples))
	ys := make([][]float64, len(samples))
	for i, s := range samples {
		xs[i] = features(s.Method, s.N, s.Dist)
		ys[i] = []float64{logSpeedup(s.WindowSpeedup)}
	}
	nnCfg := nn.Config{LearningRate: 0.01, Epochs: cfg.Epochs, BatchSize: 32, Seed: cfg.Seed}
	if _, err := ws.windowNet.Train(xs, ys, nnCfg); err != nil {
		return nil, err
	}
	return ws, nil
}

// PredictWindowSpeedup returns the predicted log10 window-query
// speedup of method.
func (s *WindowScorer) PredictWindowSpeedup(method string, n int, dist float64) float64 {
	return s.windowNet.Forward1(features(method, n, dist))
}

// ScoreMixed generalizes Equation 2 to a workload whose query mix is
// windowFrac window queries and (1-windowFrac) point queries:
//
//	C = lambda*C_B + (1-lambda)*wQ*((1-f)*C_Qpoint + f*C_Qwindow)
func (s *WindowScorer) ScoreMixed(method string, n int, dist, lambda, wQ, windowFrac float64) float64 {
	if windowFrac < 0 {
		windowFrac = 0
	}
	if windowFrac > 1 {
		windowFrac = 1
	}
	b, q := s.PredictSpeedups(method, n, dist)
	w := s.PredictWindowSpeedup(method, n, dist)
	return lambda*b + (1-lambda)*wQ*((1-windowFrac)*q+windowFrac*w)
}

// SelectMixed returns the best method for a mixed workload.
func (s *WindowScorer) SelectMixed(pool []string, n int, dist, lambda, wQ, windowFrac float64) string {
	if len(pool) == 0 {
		pool = methods.PoolNames()
	}
	best, bestScore := pool[0], -1e308
	for _, m := range pool {
		if sc := s.ScoreMixed(m, n, dist, lambda, wQ, windowFrac); sc > bestScore {
			best, bestScore = m, sc
		}
	}
	return best
}

// GenerateWindowSamples is GenerateSamples with an additional window-
// query measurement per build: windows following the data distribution
// covering areaFrac of the space are answered with Z-range
// decomposition over the single-model predict-and-scan store.
// GenerateWindowSamplesCtx is the cancellable form.
func GenerateWindowSamples(cfg GenConfig, areaFrac float64) []WindowSample {
	return GenerateWindowSamplesCtx(context.Background(), cfg, areaFrac)
}

// GenerateWindowSamplesCtx is GenerateWindowSamples with build
// cancellation: ctx is threaded into every pool-method build.
func GenerateWindowSamplesCtx(ctx context.Context, cfg GenConfig, areaFrac float64) []WindowSample {
	if cfg.Queries <= 0 {
		cfg.Queries = 200
	}
	pool := cfg.Pool
	if len(pool) == 0 {
		pool = methods.PoolNames()
	}
	builders := PoolBuilders(cfg.Trainer, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []WindowSample
	for _, n := range cfg.Cardinalities {
		for _, dist := range cfg.Dists {
			pts := dataset.PointsWithUniformDistance(rng, n, dist)
			d := prepareZOrder(pts)
			st := storeOf(d)
			wins := dataset.WindowsFromData(rng, pts, geo.UnitRect, cfg.Queries/4+1, areaFrac)
			// a failed OG reference build voids the whole grid cell
			ogBuild, ogQuery, err := measure(ctx, builders[methods.NameOG], d, st, pts, cfg.Queries, rng)
			if err != nil {
				continue
			}
			ogModel, _, err := base.BuildModelCtx(ctx, builders[methods.NameOG], d)
			if err != nil {
				continue
			}
			ogWindow := measureWindows(ogModel, st, wins)
			for _, name := range pool {
				s := WindowSample{}
				s.Method, s.N, s.Dist = name, n, dist
				if name == methods.NameOG {
					s.BuildSpeedup, s.QuerySpeedup, s.WindowSpeedup = 1, 1, 1
				} else {
					b, q, err := measure(ctx, builders[name], d, st, pts, cfg.Queries, rng)
					if err != nil {
						continue
					}
					m, _, err := base.BuildModelCtx(ctx, builders[name], d)
					if err != nil {
						continue
					}
					w := measureWindows(m, st, wins)
					s.BuildSpeedup = ogBuild / max(b, 1e-9)
					s.QuerySpeedup = ogQuery / max(q, 1e-12)
					s.WindowSpeedup = ogWindow / max(w, 1e-12)
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// measureWindows times window queries over a single bounded model: the
// window is cut into Z-ranges, each range's positions predicted and
// scanned with the model's error bounds.
func measureWindows(m boundedModel, st *store.Sorted, wins []geo.Rect) float64 {
	if len(wins) == 0 {
		return 0
	}
	t0 := time.Now()
	for _, win := range wins {
		for _, r := range curve.ZRanges(win, geo.UnitRect, 8) {
			lo, _ := m.SearchRange(float64(r.Lo))
			_, hi := m.SearchRange(float64(r.Hi))
			if hi < lo {
				lo, hi = hi, lo
			}
			st.CollectWindow(lo, hi, win, nil)
		}
	}
	return time.Since(t0).Seconds() / float64(len(wins))
}

// boundedModel is the slice of rmi.Bounded measureWindows needs.
type boundedModel interface {
	SearchRange(key float64) (int, int)
}
