// Package mltree implements CART decision trees and random forests,
// in regression and classification variants. They are the comparator
// models of Figure 6(b): the paper pits its FFN-based method selector
// against RFR, RFC, DTR, and DTC selectors built from exactly these
// model families.
package mltree

import (
	"math"
	"math/rand"
	"sort"

	"elsi/internal/floats"
)

// Config controls tree induction.
type Config struct {
	// MaxDepth limits tree height (<=0 means unlimited).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
	// FeatureSubset is the number of features considered per split;
	// <=0 means all (forests set sqrt(d) style subsets).
	FeatureSubset int
	// Seed drives feature subsampling.
	Seed int64
}

// Tree is a CART tree for regression (predicting a float) or
// classification (predicting a class id via majority vote).
type Tree struct {
	feature     int
	threshold   float64
	left, right *Tree
	value       float64 // leaf prediction (mean or majority class)
	leaf        bool
}

// TrainRegressor fits a variance-minimizing CART regressor.
func TrainRegressor(X [][]float64, y []float64, cfg Config) *Tree {
	return train(X, y, cfg, false)
}

// TrainClassifier fits a Gini-minimizing CART classifier; y holds
// integer class labels as float64 values.
func TrainClassifier(X [][]float64, y []float64, cfg Config) *Tree {
	return train(X, y, cfg, true)
}

// Predict returns the tree's prediction for x.
func (t *Tree) Predict(x []float64) float64 {
	for !t.leaf {
		if x[t.feature] < t.threshold {
			t = t.left
		} else {
			t = t.right
		}
	}
	return t.value
}

// Depth returns the height of the tree.
func (t *Tree) Depth() int {
	if t == nil || t.leaf {
		return 1
	}
	l, r := t.left.Depth(), t.right.Depth()
	if r > l {
		l = r
	}
	return l + 1
}

func train(X [][]float64, y []float64, cfg Config, classify bool) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return grow(X, y, idx, cfg, classify, 0, rng)
}

func grow(X [][]float64, y []float64, idx []int, cfg Config, classify bool, depth int, rng *rand.Rand) *Tree {
	if len(idx) == 0 {
		return &Tree{leaf: true}
	}
	if len(idx) <= cfg.MinLeaf || (cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) || pure(y, idx) {
		return &Tree{leaf: true, value: leafValue(y, idx, classify)}
	}
	feat, thr, ok := bestSplit(X, y, idx, cfg, classify, rng)
	if !ok {
		return &Tree{leaf: true, value: leafValue(y, idx, classify)}
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][feat] < thr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return &Tree{leaf: true, value: leafValue(y, idx, classify)}
	}
	return &Tree{
		feature:   feat,
		threshold: thr,
		left:      grow(X, y, li, cfg, classify, depth+1, rng),
		right:     grow(X, y, ri, cfg, classify, depth+1, rng),
	}
}

func pure(y []float64, idx []int) bool {
	for _, i := range idx[1:] {
		if !floats.Eq(y[i], y[idx[0]]) {
			return false
		}
	}
	return true
}

func leafValue(y []float64, idx []int, classify bool) float64 {
	if classify {
		counts := map[float64]int{}
		for _, i := range idx {
			counts[y[i]]++
		}
		best, bestC := 0.0, -1
		for v, c := range counts {
			if c > bestC || (c == bestC && v < best) {
				best, bestC = v, c
			}
		}
		return best
	}
	sum := 0.0
	for _, i := range idx {
		sum += y[i]
	}
	return sum / float64(len(idx))
}

// bestSplit searches the (sub)set of features for the impurity-
// minimizing threshold.
func bestSplit(X [][]float64, y []float64, idx []int, cfg Config, classify bool, rng *rand.Rand) (feat int, thr float64, ok bool) {
	d := len(X[idx[0]])
	feats := make([]int, d)
	for i := range feats {
		feats[i] = i
	}
	if cfg.FeatureSubset > 0 && cfg.FeatureSubset < d {
		rng.Shuffle(d, func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:cfg.FeatureSubset]
	}
	bestScore := math.Inf(1)
	for _, f := range feats {
		pairs := make([]splitPair, len(idx))
		for k, i := range idx {
			pairs[k] = splitPair{X[i][f], y[i]}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].x < pairs[b].x })
		// candidate thresholds between distinct consecutive values
		for k := 1; k < len(pairs); k++ {
			if floats.Eq(pairs[k].x, pairs[k-1].x) {
				continue
			}
			t := (pairs[k].x + pairs[k-1].x) / 2
			var score float64
			if classify {
				score = giniSplit(pairs, k)
			} else {
				score = varSplit(pairs, k)
			}
			if score < bestScore {
				bestScore, feat, thr, ok = score, f, t, true
			}
		}
	}
	return feat, thr, ok
}

// splitPair is one (feature value, target) sample during split search.
type splitPair struct{ x, y float64 }

func giniSplit(pairs []splitPair, k int) float64 {
	return gini(pairs[:k])*float64(k) + gini(pairs[k:])*float64(len(pairs)-k)
}

func gini(ps []splitPair) float64 {
	if len(ps) == 0 {
		return 0
	}
	counts := map[float64]int{}
	for _, p := range ps {
		counts[p.y]++
	}
	g := 1.0
	n := float64(len(ps))
	for _, c := range counts {
		f := float64(c) / n
		g -= f * f
	}
	return g
}

func varSplit(pairs []splitPair, k int) float64 {
	return sse(pairs[:k]) + sse(pairs[k:])
}

func sse(ps []splitPair) float64 {
	if len(ps) == 0 {
		return 0
	}
	mean := 0.0
	for _, p := range ps {
		mean += p.y
	}
	mean /= float64(len(ps))
	s := 0.0
	for _, p := range ps {
		d := p.y - mean
		s += d * d
	}
	return s
}

// Forest is a bagged ensemble of CART trees.
type Forest struct {
	trees    []*Tree
	classify bool
}

// ForestConfig controls forest induction.
type ForestConfig struct {
	Trees int
	Tree  Config
	Seed  int64
}

// TrainForestRegressor fits a random-forest regressor (mean of trees).
func TrainForestRegressor(X [][]float64, y []float64, cfg ForestConfig) *Forest {
	return trainForest(X, y, cfg, false)
}

// TrainForestClassifier fits a random-forest classifier (majority
// vote).
func TrainForestClassifier(X [][]float64, y []float64, cfg ForestConfig) *Forest {
	return trainForest(X, y, cfg, true)
}

func trainForest(X [][]float64, y []float64, cfg ForestConfig, classify bool) *Forest {
	if cfg.Trees <= 0 {
		cfg.Trees = 10
	}
	if cfg.Tree.FeatureSubset <= 0 && len(X) > 0 {
		// sqrt(d) features per split, the usual forest default
		cfg.Tree.FeatureSubset = int(math.Sqrt(float64(len(X[0])))) + 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{classify: classify}
	n := len(X)
	for t := 0; t < cfg.Trees; t++ {
		// bootstrap sample
		bx := make([][]float64, n)
		by := make([]float64, n)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx[i] = X[j]
			by[i] = y[j]
		}
		tc := cfg.Tree
		tc.Seed = rng.Int63()
		var tree *Tree
		if classify {
			tree = TrainClassifier(bx, by, tc)
		} else {
			tree = TrainRegressor(bx, by, tc)
		}
		f.trees = append(f.trees, tree)
	}
	return f
}

// Predict returns the ensemble prediction for x.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	if f.classify {
		votes := map[float64]int{}
		for _, t := range f.trees {
			votes[t.Predict(x)]++
		}
		best, bestC := 0.0, -1
		for v, c := range votes {
			if c > bestC || (c == bestC && v < best) {
				best, bestC = v, c
			}
		}
		return best
	}
	sum := 0.0
	for _, t := range f.trees {
		sum += t.Predict(x)
	}
	return sum / float64(len(f.trees))
}
