package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := New(rng, 2, 8, 3)
	// train a little so weights are non-trivial
	trainStep(n, [][]float64{{0.1, 0.2}}, [][]float64{{1, 2, 3}}, 0.01)
	data, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var m Network
	if err := m.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, 0.7}
	a, b := n.Forward(x), m.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// the loaded network must be trainable (fresh Adam state)
	if loss := trainStep(&m, [][]float64{{0, 0}}, [][]float64{{0, 0, 0}}, 0.01); math.IsNaN(loss) {
		t.Error("loaded network cannot train")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var n Network
	if err := n.UnmarshalBinary([]byte("not gob")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestUnmarshalRejectsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := New(rng, 2, 4, 1)
	data, _ := n.MarshalBinary()
	// corrupt: decode, break a layer, re-encode via a fresh marshal of
	// a mismatched network is easier — craft by truncating a weight row
	var m Network
	if err := m.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	m.w[0] = m.w[0][:3] // 2*4=8 expected
	bad, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var z Network
	if err := z.UnmarshalBinary(bad); err == nil {
		t.Error("shape mismatch accepted")
	}
}

// TestBackpropMatchesNumericalGradient is the core correctness check
// of the training substrate: analytic gradients from backprop must
// match central-difference numerical gradients.
func TestBackpropMatchesNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := New(rng, 2, 5, 2)
	x := []float64{0.4, -0.7}
	y := []float64{0.2, -0.1}

	loss := func() float64 {
		out := n.Forward(x)
		s := 0.0
		for i := range out {
			d := out[i] - y[i]
			s += d * d
		}
		return s
	}

	// analytic gradient
	gw := zerosLike(n.w)
	gb := zerosLike(n.b)
	acts := n.activations(x)
	out := acts[len(acts)-1]
	dOut := make([]float64, len(out))
	for i := range out {
		dOut[i] = 2 * (out[i] - y[i])
	}
	n.backprop(acts, dOut, gw, gb)

	const eps = 1e-6
	check := func(params []float64, grads []float64, label string) {
		for i := range params {
			old := params[i]
			params[i] = old + eps
			up := loss()
			params[i] = old - eps
			down := loss()
			params[i] = old
			num := (up - down) / (2 * eps)
			if math.Abs(num-grads[i]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %v vs numerical %v", label, i, grads[i], num)
			}
		}
	}
	for l := range n.w {
		check(n.w[l], gw[l], "w")
		check(n.b[l], gb[l], "b")
	}
}
