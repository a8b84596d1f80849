// Package scorer implements ELSI's index building method scorer and
// selector (Section IV-B1, Figure 4): two FFNs estimate, for a method
// P and a data set described by its cardinality and its distance to
// the uniform distribution, the build-cost and query-cost speedups P
// yields over the base index's original build. Equation 2 combines the
// two estimates with the preference factor lambda and query-frequency
// weight wQ; the method with the maximum combined score is selected.
//
// The package also provides the comparator selectors of Figure 6(b):
// regression and classification variants backed by decision trees and
// random forests (DTR, DTC, RFR, RFC).
package scorer

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"elsi/internal/methods"
	"elsi/internal/mltree"
	"elsi/internal/nn"
	"elsi/internal/parallel"
)

// Sample is one ground-truth measurement: building a data set of
// cardinality N and uniform-distance Dist with Method yielded the
// given speedups over OG (speedup = OG cost / method cost, > 1 means
// the method is faster).
type Sample struct {
	Method       string
	N            int
	Dist         float64
	BuildSpeedup float64
	QuerySpeedup float64
}

// featureDim is one-hot method id (6) + log-cardinality + distance.
const featureDim = 8

// features encodes a (method, cardinality, dist) triple for the FFNs
// (Component 1 of Figure 4).
func features(method string, n int, dist float64) []float64 {
	x := make([]float64, featureDim)
	for i, name := range methods.PoolNames() {
		if name == method {
			x[i] = 1
			break
		}
	}
	x[6] = math.Log10(float64(max(n, 1))) / 9 // normalized by the paper's 10^9 scale
	x[7] = dist
	return x
}

// Scorer is the FFN-based method scorer.
type Scorer struct {
	buildNet *nn.Network
	queryNet *nn.Network
}

// Config controls scorer training.
type Config struct {
	Hidden int
	Epochs int
	Seed   int64
}

// DefaultConfig returns the training configuration used by the
// experiments.
func DefaultConfig() Config {
	return Config{Hidden: 24, Epochs: 400, Seed: 1}
}

// Train fits the two cost FFNs on ground-truth samples. Speedups are
// learned in log10 space, which linearizes the orders-of-magnitude
// spread of Table II.
func Train(samples []Sample, cfg Config) (*Scorer, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("scorer: no training samples")
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 24
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 400
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Scorer{
		buildNet: nn.New(rng, featureDim, cfg.Hidden, 1),
		queryNet: nn.New(rng, featureDim, cfg.Hidden, 1),
	}
	xs := make([][]float64, len(samples))
	yb := make([][]float64, len(samples))
	yq := make([][]float64, len(samples))
	for i, sm := range samples {
		xs[i] = features(sm.Method, sm.N, sm.Dist)
		yb[i] = []float64{logSpeedup(sm.BuildSpeedup)}
		yq[i] = []float64{logSpeedup(sm.QuerySpeedup)}
	}
	nnCfg := nn.Config{LearningRate: 0.01, Epochs: cfg.Epochs, BatchSize: 32, Seed: cfg.Seed}
	// The two cost nets are independent (separate weights, own seeded
	// shuffles), so they train concurrently.
	var errB, errQ error
	parallel.Do(
		func() { _, errB = s.buildNet.Train(xs, yb, nnCfg) },
		func() { _, errQ = s.queryNet.Train(xs, yq, nnCfg) },
	)
	if errB != nil {
		return nil, errB
	}
	if errQ != nil {
		return nil, errQ
	}
	return s, nil
}

// logSpeedup clamps and logs a speedup factor.
func logSpeedup(v float64) float64 {
	if v < 1e-3 {
		v = 1e-3
	}
	return math.Log10(v)
}

// PredictSpeedups returns the predicted (log10) build and query
// speedups of method on a data set with the given cardinality and
// uniform distance (Component 3 of Figure 4).
func (s *Scorer) PredictSpeedups(method string, n int, dist float64) (build, query float64) {
	x := features(method, n, dist)
	return s.buildNet.Forward1(x), s.queryNet.Forward1(x)
}

// Score combines the predictions per Equation 2, in "higher is
// better" speedup form: lambda weighs build speedup, (1-lambda)*wQ
// weighs query speedup.
func (s *Scorer) Score(method string, n int, dist float64, lambda, wQ float64) float64 {
	b, q := s.PredictSpeedups(method, n, dist)
	return lambda*b + (1-lambda)*wQ*q
}

// Selector chooses a method from a pool with a trained scorer.
type Selector struct {
	Scorer *Scorer
	// Lambda is the preference factor of Equation 2 (default 0.8, the
	// experiments' build-time-optimizing setting).
	Lambda float64
	// WQ is the query frequency weight (the paper sets 1.0).
	WQ float64
	// Pool restricts the candidate methods (defaults to all six).
	Pool []string
}

// Select returns the highest-scoring applicable method for a data set
// summary.
func (sel *Selector) Select(n int, dist float64) string {
	pool := sel.Pool
	if len(pool) == 0 {
		pool = methods.PoolNames()
	}
	wq := sel.WQ
	if wq <= 0 {
		wq = 1
	}
	best, bestScore := pool[0], math.Inf(-1)
	for _, m := range pool {
		if score := sel.Scorer.Score(m, n, dist, sel.Lambda, wq); score > bestScore {
			best, bestScore = m, score
		}
	}
	return best
}

// Rank returns the pool ordered by descending score for a data set
// summary — the degradation ladder's fallback order. Ties keep the
// pool's own order (the sort is stable), so ranking is deterministic;
// Rank(n, dist)[0] always equals Select(n, dist).
func (sel *Selector) Rank(n int, dist float64) []string {
	pool := sel.Pool
	if len(pool) == 0 {
		pool = methods.PoolNames()
	}
	wq := sel.WQ
	if wq <= 0 {
		wq = 1
	}
	ranked := append([]string(nil), pool...)
	scores := make(map[string]float64, len(ranked))
	for _, m := range ranked {
		scores[m] = sel.Scorer.Score(m, n, dist, sel.Lambda, wq)
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		return scores[ranked[i]] > scores[ranked[j]]
	})
	return ranked
}

// --- ground truth & evaluation ----------------------------------------

// TrueBest returns the method with the best measured combined score
// among the samples of a single (N, Dist) group.
func TrueBest(group []Sample, lambda, wQ float64) string {
	best, bestScore := "", math.Inf(-1)
	for _, sm := range group {
		score := lambda*logSpeedup(sm.BuildSpeedup) + (1-lambda)*wQ*logSpeedup(sm.QuerySpeedup)
		if score > bestScore {
			best, bestScore = sm.Method, score
		}
	}
	return best
}

// GroupKey identifies a (N, Dist) measurement group.
type GroupKey struct {
	N    int
	Dist float64
}

// GroupSamples indexes samples by data set.
func GroupSamples(samples []Sample) map[GroupKey][]Sample {
	groups := map[GroupKey][]Sample{}
	for _, sm := range samples {
		k := GroupKey{sm.N, sm.Dist}
		groups[k] = append(groups[k], sm)
	}
	return groups
}

// MethodSelector abstracts the selector families compared in Figure
// 6(b).
type MethodSelector interface {
	Select(n int, dist float64) string
}

// Accuracy returns the fraction of sample groups where sel picks the
// measured-best method — the metric of Figure 6.
func Accuracy(sel MethodSelector, samples []Sample, lambda, wQ float64) float64 {
	groups := GroupSamples(samples)
	if len(groups) == 0 {
		return 0
	}
	correct := 0
	for key, group := range groups {
		if sel.Select(key.N, key.Dist) == TrueBest(group, lambda, wQ) {
			correct++
		}
	}
	return float64(correct) / float64(len(groups))
}

// --- comparator selectors (Figure 6(b)) --------------------------------

// Family identifies a comparator selector family.
type Family string

// The comparator families of Figure 6(b).
const (
	FamilyDTR Family = "DTR" // decision-tree regression
	FamilyDTC Family = "DTC" // decision-tree classification
	FamilyRFR Family = "RFR" // random-forest regression
	FamilyRFC Family = "RFC" // random-forest classification
)

// regressorSelector predicts build and query speedups with two
// regression models and combines them like the FFN scorer.
type regressorSelector struct {
	build, query interface{ Predict([]float64) float64 }
	lambda, wQ   float64
	pool         []string
}

func (r *regressorSelector) Select(n int, dist float64) string {
	best, bestScore := r.pool[0], math.Inf(-1)
	for _, m := range r.pool {
		x := features(m, n, dist)
		score := r.lambda*r.build.Predict(x) + (1-r.lambda)*r.wQ*r.query.Predict(x)
		if score > bestScore {
			best, bestScore = m, score
		}
	}
	return best
}

// classifierSelector predicts the best method id directly; the class
// labels bake in a fixed lambda.
type classifierSelector struct {
	model interface{ Predict([]float64) float64 }
	pool  []string
}

func (c *classifierSelector) Select(n int, dist float64) string {
	x := dataFeatures(n, dist)
	id := int(c.model.Predict(x))
	if id < 0 || id >= len(c.pool) {
		id = 0
	}
	return c.pool[id]
}

// dataFeatures encodes only the data set summary (for classifiers,
// which output the method rather than taking it as input).
func dataFeatures(n int, dist float64) []float64 {
	return []float64{math.Log10(float64(max(n, 1))) / 9, dist}
}

// TrainComparator builds a Figure 6(b) comparator selector of the
// given family from ground-truth samples at a fixed lambda and wQ.
func TrainComparator(family Family, samples []Sample, lambda, wQ float64, seed int64) MethodSelector {
	pool := methods.PoolNames()
	switch family {
	case FamilyDTR, FamilyRFR:
		var X [][]float64
		var yb, yq []float64
		for _, sm := range samples {
			X = append(X, features(sm.Method, sm.N, sm.Dist))
			yb = append(yb, logSpeedup(sm.BuildSpeedup))
			yq = append(yq, logSpeedup(sm.QuerySpeedup))
		}
		var build, query interface{ Predict([]float64) float64 }
		if family == FamilyDTR {
			build = mltree.TrainRegressor(X, yb, mltree.Config{MaxDepth: 10, Seed: seed})
			query = mltree.TrainRegressor(X, yq, mltree.Config{MaxDepth: 10, Seed: seed + 1})
		} else {
			build = mltree.TrainForestRegressor(X, yb, mltree.ForestConfig{Trees: 20, Tree: mltree.Config{MaxDepth: 10}, Seed: seed})
			query = mltree.TrainForestRegressor(X, yq, mltree.ForestConfig{Trees: 20, Tree: mltree.Config{MaxDepth: 10}, Seed: seed + 1})
		}
		return &regressorSelector{build: build, query: query, lambda: lambda, wQ: wQ, pool: pool}
	case FamilyDTC, FamilyRFC:
		var X [][]float64
		var y []float64
		for key, group := range GroupSamples(samples) {
			bestName := TrueBest(group, lambda, wQ)
			for id, name := range pool {
				if name == bestName {
					X = append(X, dataFeatures(key.N, key.Dist))
					y = append(y, float64(id))
					break
				}
			}
		}
		var model interface{ Predict([]float64) float64 }
		if family == FamilyDTC {
			model = mltree.TrainClassifier(X, y, mltree.Config{MaxDepth: 10, Seed: seed})
		} else {
			model = mltree.TrainForestClassifier(X, y, mltree.ForestConfig{Trees: 20, Tree: mltree.Config{MaxDepth: 10}, Seed: seed})
		}
		return &classifierSelector{model: model, pool: pool}
	}
	panic("scorer: unknown comparator family " + string(family))
}

// SplitSamples partitions the sample groups into train and test sets
// (by whole (N, Dist) groups, so no data set leaks across the split).
// The Figure 6(b) comparison evaluates selectors on held-out groups;
// without the split, tree learners memorize the grid perfectly and the
// comparison is vacuous.
func SplitSamples(samples []Sample, testFrac float64, seed int64) (train, test []Sample) {
	groups := GroupSamples(samples)
	keys := make([]GroupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sortGroupKeys(keys)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	nTest := int(testFrac * float64(len(keys)))
	if nTest < 1 && len(keys) > 1 {
		nTest = 1
	}
	for i, k := range keys {
		if i < nTest {
			test = append(test, groups[k]...)
		} else {
			train = append(train, groups[k]...)
		}
	}
	return train, test
}

// sortGroupKeys orders keys deterministically before shuffling (map
// iteration order is random).
func sortGroupKeys(keys []GroupKey) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0; j-- {
			a, b := keys[j-1], keys[j]
			if a.N < b.N || (a.N == b.N && a.Dist <= b.Dist) {
				break
			}
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
}
