// Package nn is a small, dependency-free feed-forward neural network
// used everywhere the paper uses a PyTorch FFN: the per-partition index
// models, the method scorer, the rebuild predictor, and the DQN of the
// RL build method. It supports dense layers with ReLU hidden
// activations, an identity output layer, L2 loss, and the Adam
// optimizer — matching the training recipe in Section VII-B1 of the
// paper (ReLU hidden layers, L2 loss, Adam, learning rate 0.01).
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"elsi/internal/floats"
)

// Config controls training.
type Config struct {
	LearningRate float64 // Adam step size; the paper uses 0.01
	Epochs       int     // full passes over the training set
	BatchSize    int     // minibatch size; <=0 means full batch
	Seed         int64   // RNG seed for weight init and shuffling

	// Cancel, when non-nil, is polled at each epoch boundary; a true
	// return stops training early. Train then returns the loss of the
	// last completed epoch and ErrCancelled, leaving the network with
	// whatever weights it had — a usable (if under-trained) model.
	Cancel func() bool
}

// Network is a fully-connected feed-forward network. Hidden layers use
// ReLU; the output layer is linear so the same network serves both the
// regression heads (rank prediction, cost prediction) and, with a
// 0/1-target L2 loss, the binary rebuild predictor.
type Network struct {
	sizes []int       // layer widths, input first
	w     [][]float64 // w[l] is a (sizes[l+1] x sizes[l]) row-major matrix
	b     [][]float64 // b[l] has sizes[l+1] entries

	// Adam state, lazily allocated by Train.
	mw, vw [][]float64
	mb, vb [][]float64
	step   int
}

// New creates a network with the given layer sizes (at least two:
// input and output) and He-initialized weights.
func New(rng *rand.Rand, sizes ...int) *Network {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	n := &Network{sizes: append([]int(nil), sizes...)}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		scale := math.Sqrt(2.0 / float64(in))
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		n.w = append(n.w, w)
		n.b = append(n.b, make([]float64, out))
	}
	return n
}

// Forward computes the network output for a single input vector.
func (n *Network) Forward(x []float64) []float64 {
	if len(x) != n.sizes[0] {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), n.sizes[0]))
	}
	a := x
	last := len(n.w) - 1
	for l := range n.w {
		out := n.sizes[l+1]
		in := n.sizes[l]
		z := make([]float64, out)
		w := n.w[l]
		for o := 0; o < out; o++ {
			s := n.b[l][o]
			row := w[o*in : (o+1)*in]
			for i, v := range a {
				s += row[i] * v
			}
			if l != last && s < 0 { // ReLU on hidden layers
				s = 0
			}
			z[o] = s
		}
		a = z
	}
	return a
}

// Forward1 is a convenience for scalar-output networks.
func (n *Network) Forward1(x []float64) float64 {
	return n.Forward(x)[0]
}

// activations runs a forward pass retaining per-layer activations for
// backpropagation. The returned slice has one entry per layer including
// the input.
func (n *Network) activations(x []float64) [][]float64 {
	acts := make([][]float64, len(n.sizes))
	acts[0] = x
	last := len(n.w) - 1
	for l := range n.w {
		out, in := n.sizes[l+1], n.sizes[l]
		z := make([]float64, out)
		w := n.w[l]
		a := acts[l]
		for o := 0; o < out; o++ {
			s := n.b[l][o]
			row := w[o*in : (o+1)*in]
			for i, v := range a {
				s += row[i] * v
			}
			if l != last && s < 0 {
				s = 0
			}
			z[o] = s
		}
		acts[l+1] = z
	}
	return acts
}

// grads accumulates parameter gradients for one example into gw/gb
// given its activations and the loss gradient at the output
// (dL/dyhat). Returns nothing; gw/gb are updated in place.
func (n *Network) backprop(acts [][]float64, dOut []float64, gw, gb [][]float64) {
	delta := dOut
	for l := len(n.w) - 1; l >= 0; l-- {
		out, in := n.sizes[l+1], n.sizes[l]
		a := acts[l]
		w := n.w[l]
		for o := 0; o < out; o++ {
			d := delta[o]
			if floats.Eq(d, 0) {
				continue
			}
			gb[l][o] += d
			grow := gw[l][o*in : (o+1)*in]
			for i, v := range a {
				grow[i] += d * v
			}
		}
		if l == 0 {
			break
		}
		// propagate to previous layer through ReLU
		prev := make([]float64, in)
		for o := 0; o < out; o++ {
			d := delta[o]
			if floats.Eq(d, 0) {
				continue
			}
			row := w[o*in : (o+1)*in]
			for i := range prev {
				prev[i] += d * row[i]
			}
		}
		for i := range prev {
			if acts[l][i] <= 0 { // ReLU derivative
				prev[i] = 0
			}
		}
		delta = prev
	}
}

// ErrCancelled is returned by Train when Config.Cancel stops a run at
// an epoch boundary. The network keeps the weights of the epochs that
// did complete.
var ErrCancelled = errors.New("nn: training cancelled")

// Train fits the network to (xs, ys) with minibatch Adam minimizing the
// mean L2 loss. It returns the final epoch's mean loss.
func (n *Network) Train(xs, ys [][]float64, cfg Config) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("nn: empty training set")
	}
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("nn: %d inputs vs %d targets", len(xs), len(ys))
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.01
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	batch := cfg.BatchSize
	if batch <= 0 || batch > len(xs) {
		batch = len(xs)
	}
	n.ensureAdam()
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	gw := zerosLike(n.w)
	gb := zerosLike(n.b)
	scratch := n.NewScratch()

	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Cancel != nil && cfg.Cancel() {
			return lastLoss, ErrCancelled
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		epochLoss := 0.0
		for start := 0; start < len(idx); start += batch {
			end := start + batch
			if end > len(idx) {
				end = len(idx)
			}
			zero(gw)
			zero(gb)
			for _, k := range idx[start:end] {
				n.forwardScratch(scratch, xs[k])
				yhat := scratch.acts[len(scratch.acts)-1]
				y := ys[k]
				dOut := scratch.dOut
				for o := range yhat {
					diff := yhat[o] - y[o]
					epochLoss += diff * diff
					dOut[o] = 2 * diff
				}
				n.backpropScratch(scratch, dOut, gw, gb)
			}
			n.adamStep(gw, gb, end-start, cfg.LearningRate)
		}
		lastLoss = epochLoss / float64(len(xs))
	}
	return lastLoss, nil
}

// TrainStepMasked performs a single Adam update on the given minibatch
// with a per-output mask and returns its mean loss: only outputs with
// mask true contribute loss and gradient. The DQN uses it to
// update only the Q-value of the action actually taken.
func (n *Network) TrainStepMasked(xs, ys [][]float64, masks [][]bool, lr float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n.ensureAdam()
	gw := zerosLike(n.w)
	gb := zerosLike(n.b)
	scratch := n.NewScratch()
	loss := 0.0
	count := 0
	for k := range xs {
		n.forwardScratch(scratch, xs[k])
		yhat := scratch.acts[len(scratch.acts)-1]
		dOut := scratch.dOut
		for o := range dOut {
			dOut[o] = 0 // masked outputs contribute no gradient
		}
		for o := range yhat {
			if !masks[k][o] {
				continue
			}
			diff := yhat[o] - ys[k][o]
			loss += diff * diff
			dOut[o] = 2 * diff
			count++
		}
		n.backpropScratch(scratch, dOut, gw, gb)
	}
	n.adamStep(gw, gb, len(xs), lr)
	if count == 0 {
		return 0
	}
	return loss / float64(count)
}

// Clone returns a deep copy of the network weights (Adam state is not
// copied). The DQN uses clones as target networks; the MR build method
// clones pre-trained models before handing them out.
func (n *Network) Clone() *Network {
	c := &Network{sizes: append([]int(nil), n.sizes...)}
	for l := range n.w {
		c.w = append(c.w, append([]float64(nil), n.w[l]...))
		c.b = append(c.b, append([]float64(nil), n.b[l]...))
	}
	return c
}

// CopyWeightsFrom overwrites n's weights with src's. Layer sizes must
// match.
func (n *Network) CopyWeightsFrom(src *Network) {
	if len(n.sizes) != len(src.sizes) {
		panic("nn: CopyWeightsFrom size mismatch")
	}
	for l := range n.w {
		copy(n.w[l], src.w[l])
		copy(n.b[l], src.b[l])
	}
}

func (n *Network) ensureAdam() {
	if n.mw != nil {
		return
	}
	n.mw = zerosLike(n.w)
	n.vw = zerosLike(n.w)
	n.mb = zerosLike(n.b)
	n.vb = zerosLike(n.b)
}

const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

func (n *Network) adamStep(gw, gb [][]float64, batch int, lr float64) {
	n.step++
	bc1 := 1 - math.Pow(adamBeta1, float64(n.step))
	bc2 := 1 - math.Pow(adamBeta2, float64(n.step))
	inv := 1.0 / float64(batch)
	for l := range n.w {
		update(n.w[l], gw[l], n.mw[l], n.vw[l], inv, lr, bc1, bc2)
		update(n.b[l], gb[l], n.mb[l], n.vb[l], inv, lr, bc1, bc2)
	}
}

func update(w, g, m, v []float64, inv, lr, bc1, bc2 float64) {
	for i := range w {
		gi := g[i] * inv
		m[i] = adamBeta1*m[i] + (1-adamBeta1)*gi
		v[i] = adamBeta2*v[i] + (1-adamBeta2)*gi*gi
		mh := m[i] / bc1
		vh := v[i] / bc2
		w[i] -= lr * mh / (math.Sqrt(vh) + adamEps)
	}
}

func zerosLike(src [][]float64) [][]float64 {
	out := make([][]float64, len(src))
	for i := range src {
		out[i] = make([]float64, len(src[i]))
	}
	return out
}

func zero(m [][]float64) {
	for i := range m {
		for j := range m[i] {
			m[i][j] = 0
		}
	}
}
