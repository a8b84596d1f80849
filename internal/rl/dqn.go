// Package rl implements the deep Q-network used by ELSI's
// reinforcement-learning index building method (Section V-B2): the
// agent learns which grid cells of the synthetic training set to
// toggle so that the set's CDF best approximates the data's. The DQN
// follows Mnih et al.: an epsilon-greedy policy over Q-values, a
// replay memory of recent transitions, and periodic training (every
// five steps in the paper) against a target network.
package rl

import (
	"math/rand"

	"elsi/internal/nn"
)

// Config holds the DQN hyper-parameters. Paper values: gamma = 0.9,
// training every 5 steps.
type Config struct {
	StateDim     int     // length of the binary state vector (eta^d)
	Hidden       int     // hidden layer width
	Gamma        float64 // discount factor
	Epsilon      float64 // exploration rate for epsilon-greedy
	LearningRate float64
	ReplayCap    int // replay memory capacity (alpha)
	BatchSize    int // minibatch size per training step
	TrainEvery   int // steps between training rounds (paper: 5)
	SyncEvery    int // steps between target-network syncs
	Seed         int64
}

// DefaultConfig returns the paper's settings with CPU-sized defaults
// for the unspecified knobs.
func DefaultConfig(stateDim int) Config {
	return Config{
		StateDim:     stateDim,
		Hidden:       64,
		Gamma:        0.9,
		Epsilon:      0.2,
		LearningRate: 0.005,
		ReplayCap:    10000,
		BatchSize:    32,
		TrainEvery:   5,
		SyncEvery:    50,
		Seed:         1,
	}
}

type transition struct {
	state  []float64
	action int
	reward float64
	next   []float64
}

// Agent is a DQN agent over a fixed-size binary state space with one
// action per state bit (toggle that bit).
type Agent struct {
	cfg    Config
	net    *nn.Network
	target *nn.Network
	replay []transition
	rng    *rand.Rand
	steps  int
}

// NewAgent creates a DQN agent.
func NewAgent(cfg Config) *Agent {
	if cfg.StateDim <= 0 {
		panic("rl: StateDim must be positive")
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 64
	}
	if cfg.TrainEvery <= 0 {
		cfg.TrainEvery = 5
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 50
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.ReplayCap <= 0 {
		cfg.ReplayCap = 10000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := nn.New(rng, cfg.StateDim, cfg.Hidden, cfg.StateDim)
	return &Agent{cfg: cfg, net: net, target: net.Clone(), rng: rng}
}

// Select returns the next action (cell index to toggle) for state,
// using epsilon-greedy over the Q-network.
func (a *Agent) Select(state []float64) int {
	if a.rng.Float64() < a.cfg.Epsilon {
		return a.rng.Intn(a.cfg.StateDim)
	}
	q := a.net.Forward(state)
	best, bestQ := 0, q[0]
	for i, v := range q[1:] {
		if v > bestQ {
			best, bestQ = i+1, v
		}
	}
	return best
}

// Observe records a transition and trains the network every
// TrainEvery observations.
func (a *Agent) Observe(state []float64, action int, reward float64, next []float64) {
	tr := transition{
		state:  append([]float64(nil), state...),
		action: action,
		reward: reward,
		next:   append([]float64(nil), next...),
	}
	if len(a.replay) < a.cfg.ReplayCap {
		a.replay = append(a.replay, tr)
	} else {
		a.replay[a.steps%a.cfg.ReplayCap] = tr
	}
	a.steps++
	if a.steps%a.cfg.TrainEvery == 0 {
		a.train()
	}
	if a.steps%a.cfg.SyncEvery == 0 {
		a.target.CopyWeightsFrom(a.net)
	}
}

// train performs one minibatch Q-learning update: the target for the
// taken action is r + gamma * max_a' Q_target(s', a'); other outputs
// are masked out.
func (a *Agent) train() {
	n := len(a.replay)
	if n == 0 {
		return
	}
	batch := a.cfg.BatchSize
	if batch > n {
		batch = n
	}
	xs := make([][]float64, batch)
	ys := make([][]float64, batch)
	masks := make([][]bool, batch)
	for i := 0; i < batch; i++ {
		tr := a.replay[a.rng.Intn(n)]
		qNext := a.target.Forward(tr.next)
		maxQ := qNext[0]
		for _, v := range qNext[1:] {
			if v > maxQ {
				maxQ = v
			}
		}
		target := tr.reward + a.cfg.Gamma*maxQ
		y := make([]float64, a.cfg.StateDim)
		mask := make([]bool, a.cfg.StateDim)
		y[tr.action] = target
		mask[tr.action] = true
		xs[i] = tr.state
		ys[i] = y
		masks[i] = mask
	}
	a.net.TrainStepMasked(xs, ys, masks, a.cfg.LearningRate)
}
