package mltree

import (
	"math"
	"math/rand"
	"testing"
)

func TestRegressorFitsStep(t *testing.T) {
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		x := float64(i) / 200
		X = append(X, []float64{x})
		if x < 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, 3)
		}
	}
	tr := TrainRegressor(X, y, Config{MaxDepth: 3})
	if got := tr.Predict([]float64{0.2}); math.Abs(got-1) > 0.01 {
		t.Errorf("Predict(0.2) = %v, want 1", got)
	}
	if got := tr.Predict([]float64{0.8}); math.Abs(got-3) > 0.01 {
		t.Errorf("Predict(0.8) = %v, want 3", got)
	}
}

func TestClassifierXOR(t *testing.T) {
	X := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := []float64{0, 1, 1, 0}
	// replicate so MinLeaf constraints don't matter
	var XX [][]float64
	var yy []float64
	for i := 0; i < 20; i++ {
		XX = append(XX, X...)
		yy = append(yy, y...)
	}
	tr := TrainClassifier(XX, yy, Config{MaxDepth: 4})
	for i, x := range X {
		if got := tr.Predict(x); got != y[i] {
			t.Errorf("Predict(%v) = %v, want %v", x, got, y[i])
		}
	}
}

func TestMaxDepthRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var X [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		x := rng.Float64()
		X = append(X, []float64{x})
		y = append(y, math.Sin(10*x))
	}
	tr := TrainRegressor(X, y, Config{MaxDepth: 3})
	if d := tr.Depth(); d > 4 {
		t.Errorf("Depth = %d with MaxDepth 3", d)
	}
}

func TestPureLeafStopsEarly(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	tr := TrainClassifier(X, y, Config{})
	if !tr.leaf {
		t.Error("constant targets should yield a single leaf")
	}
	if tr.Predict([]float64{2.5}) != 7 {
		t.Errorf("Predict = %v", tr.Predict([]float64{2.5}))
	}
}

func TestEmptyTraining(t *testing.T) {
	tr := TrainRegressor(nil, nil, Config{})
	if got := tr.Predict([]float64{1}); got != 0 {
		t.Errorf("empty-tree Predict = %v", got)
	}
}

func TestForestRegressorBeatsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var X [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		a, b := rng.Float64(), rng.Float64()
		X = append(X, []float64{a, b})
		y = append(y, 2*a+b)
	}
	f := TrainForestRegressor(X, y, ForestConfig{Trees: 15, Tree: Config{MaxDepth: 8}, Seed: 1})
	if len(f.trees) != 15 {
		t.Fatalf("forest has %d trees, want 15", len(f.trees))
	}
	mse := 0.0
	for i := 0; i < 100; i++ {
		a, b := rng.Float64(), rng.Float64()
		d := f.Predict([]float64{a, b}) - (2*a + b)
		mse += d * d
	}
	mse /= 100
	if mse > 0.05 {
		t.Errorf("forest MSE = %v", mse)
	}
}

func TestForestClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		a, b := rng.Float64(), rng.Float64()
		X = append(X, []float64{a, b})
		if a+b > 1 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	f := TrainForestClassifier(X, y, ForestConfig{Trees: 15, Tree: Config{MaxDepth: 8}, Seed: 2})
	correct := 0
	for i := 0; i < 200; i++ {
		a, b := rng.Float64(), rng.Float64()
		want := 0.0
		if a+b > 1 {
			want = 1
		}
		if f.Predict([]float64{a, b}) == want {
			correct++
		}
	}
	if correct < 180 {
		t.Errorf("forest accuracy %d/200", correct)
	}
}

func TestForestDeterministic(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}
	y := []float64{1, 1, 1, 2, 2, 2}
	a := TrainForestClassifier(X, y, ForestConfig{Trees: 5, Seed: 7})
	b := TrainForestClassifier(X, y, ForestConfig{Trees: 5, Seed: 7})
	for v := 0.5; v < 6.5; v += 0.5 {
		if a.Predict([]float64{v}) != b.Predict([]float64{v}) {
			t.Fatal("same-seed forests disagree")
		}
	}
}
