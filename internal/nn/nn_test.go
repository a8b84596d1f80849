package nn

import (
	"math"
	"math/rand"
	"testing"
)

// trainStep is one unmasked Adam update: TrainStepMasked with every
// output contributing.
func trainStep(n *Network, xs, ys [][]float64, lr float64) float64 {
	masks := make([][]bool, len(ys))
	for k := range ys {
		masks[k] = make([]bool, len(ys[k]))
		for o := range masks[k] {
			masks[k][o] = true
		}
	}
	return n.TrainStepMasked(xs, ys, masks, lr)
}

func TestForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := New(rng, 3, 8, 2)
	out := n.Forward([]float64{0.1, 0.2, 0.3})
	if len(out) != 2 {
		t.Fatalf("output size = %d, want 2", len(out))
	}
	sizes := n.sizes
	if len(sizes) != 3 || sizes[0] != 3 || sizes[1] != 8 || sizes[2] != 2 {
		t.Errorf("sizes = %v", sizes)
	}
	params := 0
	for l := range n.w {
		params += len(n.w[l]) + len(n.b[l])
	}
	if want := 3*8 + 8 + 8*2 + 2; params != want {
		t.Errorf("%d parameters, want %d", params, want)
	}
}

func TestForwardPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong input size")
		}
	}()
	n := New(rand.New(rand.NewSource(1)), 2, 1)
	n.Forward([]float64{1})
}

func TestTrainLinearFunction(t *testing.T) {
	// y = 2x + 1 is learnable by even a ReLU net on [0,1].
	rng := rand.New(rand.NewSource(3))
	n := New(rng, 1, 16, 1)
	var xs, ys [][]float64
	for i := 0; i < 200; i++ {
		x := float64(i) / 200
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{2*x + 1})
	}
	loss, err := n.Train(xs, ys, Config{LearningRate: 0.01, Epochs: 300, BatchSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 1e-3 {
		t.Errorf("final loss %v too high", loss)
	}
	if got := n.Forward1([]float64{0.5}); math.Abs(got-2) > 0.1 {
		t.Errorf("f(0.5) = %v, want ~2", got)
	}
}

func TestTrainNonlinearFunction(t *testing.T) {
	// y = x^2: requires the hidden ReLU layer.
	rng := rand.New(rand.NewSource(4))
	n := New(rng, 1, 32, 1)
	var xs, ys [][]float64
	for i := 0; i < 400; i++ {
		x := float64(i)/200 - 1 // [-1, 1]
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{x * x})
	}
	loss, err := n.Train(xs, ys, Config{LearningRate: 0.01, Epochs: 400, BatchSize: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 5e-3 {
		t.Errorf("final loss %v too high for x^2", loss)
	}
	if got := n.Forward1([]float64{0.8}); math.Abs(got-0.64) > 0.1 {
		t.Errorf("f(0.8) = %v, want ~0.64", got)
	}
}

func TestTrainErrors(t *testing.T) {
	n := New(rand.New(rand.NewSource(1)), 1, 1)
	if _, err := n.Train(nil, nil, Config{}); err == nil {
		t.Error("expected error on empty training set")
	}
	if _, err := n.Train([][]float64{{1}}, nil, Config{}); err == nil {
		t.Error("expected error on length mismatch")
	}
}

func TestTrainStepReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := New(rng, 2, 8, 1)
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := [][]float64{{0}, {1}, {1}, {0}} // XOR
	first := trainStep(n, xs, ys, 0.01)
	var last float64
	for i := 0; i < 3000; i++ {
		last = trainStep(n, xs, ys, 0.01)
	}
	if last >= first {
		t.Errorf("loss did not decrease: first=%v last=%v", first, last)
	}
	if last > 0.05 {
		t.Errorf("XOR loss = %v, want < 0.05", last)
	}
}

func TestTrainStepMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := New(rng, 1, 8, 2)
	// Only output 0 is supervised toward 1; output 1 has an absurd
	// target but is masked out, so it must stay near its initial value.
	before := n.Forward([]float64{0.5})[1]
	xs := [][]float64{{0.5}}
	ys := [][]float64{{1, 1e6}}
	masks := [][]bool{{true, false}}
	for i := 0; i < 500; i++ {
		n.TrainStepMasked(xs, ys, masks, 0.01)
	}
	out := n.Forward([]float64{0.5})
	if math.Abs(out[0]-1) > 0.05 {
		t.Errorf("masked-in output = %v, want ~1", out[0])
	}
	if math.Abs(out[1]-before) > 5 {
		t.Errorf("masked-out output drifted toward target: %v (started %v)", out[1], before)
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := New(rng, 1, 4, 1)
	c := n.Clone()
	x := []float64{0.3}
	if n.Forward1(x) != c.Forward1(x) {
		t.Fatal("clone differs immediately")
	}
	// training the original must not affect the clone
	trainStep(n, [][]float64{{0.3}}, [][]float64{{100}}, 0.1)
	if n.Forward1(x) == c.Forward1(x) {
		t.Error("clone tracks original after training")
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := New(rng, 2, 4, 1)
	b := New(rng, 2, 4, 1)
	x := []float64{0.1, 0.9}
	if a.Forward1(x) == b.Forward1(x) {
		t.Skip("networks coincidentally equal")
	}
	b.CopyWeightsFrom(a)
	if a.Forward1(x) != b.Forward1(x) {
		t.Error("CopyWeightsFrom did not copy weights")
	}
}

func TestDeterministicTraining(t *testing.T) {
	build := func() *Network {
		rng := rand.New(rand.NewSource(42))
		n := New(rng, 1, 8, 1)
		xs := [][]float64{{0}, {0.5}, {1}}
		ys := [][]float64{{0}, {1}, {0}}
		n.Train(xs, ys, Config{LearningRate: 0.01, Epochs: 50, BatchSize: 2, Seed: 9})
		return n
	}
	a, b := build(), build()
	if a.Forward1([]float64{0.3}) != b.Forward1([]float64{0.3}) {
		t.Error("training is not deterministic under fixed seeds")
	}
}

func BenchmarkForward(b *testing.B) {
	n := New(rand.New(rand.NewSource(1)), 1, 32, 1)
	x := []float64{0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward1(x)
	}
}

func BenchmarkTrainEpoch1k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := New(rng, 1, 32, 1)
	var xs, ys [][]float64
	for i := 0; i < 1000; i++ {
		x := rng.Float64()
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{x * x})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Train(xs, ys, Config{LearningRate: 0.01, Epochs: 1, BatchSize: 256, Seed: 1})
	}
}
