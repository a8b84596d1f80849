package scorer

import "elsi/internal/methods"

// HeuristicSamples fabricates a training set for the method scorer
// from closed-form speedup curves instead of measured sweeps. The
// curves encode the qualitative Table II regularities — the
// set-reduction methods (MR, SP) buy build time that grows with
// cardinality at a small query cost, the point-synthesizing methods
// (CL, RL) buy query time on skewed data at a build cost, RS sits in
// between, OG is the 1.0/1.0 baseline — so a scorer trained on them
// ranks the pool sensibly across (n, dist, λ) without the minutes-long
// measurement phase of GenerateSamples. Serving binaries (elsid) use
// it to stand up an adaptive selector at startup; experiments that
// need faithful constants still run the measured sweep.
//
// The grid is the paper's 300-combination setup (5 cardinalities × 10
// distances × the 6 pool methods = 300 samples).
func HeuristicSamples() []Sample {
	cards := []int{1000, 3000, 10000, 30000, 100000}
	dists := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	var out []Sample
	for _, n := range cards {
		// log10(n) - 3 ∈ [0, 2] over the grid: the "scale" driver of
		// the build-side wins.
		scale := 0.0
		for v := n; v >= 10000; v /= 10 {
			scale++
		}
		switch { // smooth the steps of the integer log a little
		case n == 3000:
			scale = 0.5
		case n == 30000:
			scale = 1.5
		}
		for _, dist := range dists {
			out = append(out,
				// MR reuses pre-trained models: the biggest build win,
				// growing with n; reused models fit skewed data worse.
				Sample{Method: methods.NameMR, N: n, Dist: dist,
					BuildSpeedup: 2.0 + 1.2*scale, QuerySpeedup: 0.95 - 0.20*dist},
				// SP samples the sorted keys: build win grows with n,
				// query nearly neutral.
				Sample{Method: methods.NameSP, N: n, Dist: dist,
					BuildSpeedup: 1.4 + 0.8*scale, QuerySpeedup: 1.0 - 0.05*dist},
				// RS shards the range: moderate build win, mild query
				// win from smaller per-shard models.
				Sample{Method: methods.NameRS, N: n, Dist: dist,
					BuildSpeedup: 1.2 + 0.4*scale, QuerySpeedup: 1.0 + 0.05*dist},
				// CL trains on centroids: some build win, query win
				// that grows with skew (clusters follow density).
				Sample{Method: methods.NameCL, N: n, Dist: dist,
					BuildSpeedup: 1.1 + 0.2*scale, QuerySpeedup: 1.05 + 0.25*dist},
				// RL searches for a good reduced set: build cost, best
				// query accuracy on skewed data.
				Sample{Method: methods.NameRL, N: n, Dist: dist,
					BuildSpeedup: 0.6 + 0.05*scale, QuerySpeedup: 1.10 + 0.35*dist},
				// OG is the baseline by definition.
				Sample{Method: methods.NameOG, N: n, Dist: dist,
					BuildSpeedup: 1, QuerySpeedup: 1},
			)
		}
	}
	return out
}
