package methods

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"elsi/internal/base"
	"elsi/internal/faults"
	"elsi/internal/floats"
	"elsi/internal/geo"
	"elsi/internal/kstest"
	"elsi/internal/rl"
	"elsi/internal/rmi"
)

// RLM is the reinforcement-learning method proposed in Section V-B2:
// an eta x eta grid partitions the space, every cell starts filled
// with one synthetic point, and a DQN learns which cells to toggle so
// that the synthetic set's key CDF best approximates the data's. The
// search is the MDP of the paper: state = cell occupancy bits ordered
// by mapped rank, action = toggle a cell, reward = reduction in
// dist(Ds, D), gamma = 0.9, toggles applied with probability zeta =
// 0.8, DQN trained every five steps.
type RLM struct {
	Eta      int     // grid resolution per dimension (paper default 8)
	Steps    int     // search step budget e (paper: 50,000; CPU default 2,000)
	Patience int     // stop after this many steps without improvement
	Zeta     float64 // probability of applying the selected toggle
	Trainer  rmi.Trainer
	Seed     int64
	// Workers bounds the parallel error-bound scan (0 = GOMAXPROCS).
	Workers int
}

// Name implements base.ModelBuilder.
func (m *RLM) Name() string { return NameRL }

// BuildModel implements base.ModelBuilder. Injection point:
// "build/RL". The DQN search loop observes ctx at step boundaries and
// finishes with the best synthetic set found so far.
func (m *RLM) BuildModel(ctx context.Context, d *base.SortedData) (*rmi.Bounded, base.BuildStats, error) {
	if err := faults.HitCtx(ctx, "build/"+NameRL); err != nil {
		return nil, base.BuildStats{}, err
	}
	t0 := time.Now()
	keys, err := m.searchKeys(ctx, d)
	if err != nil {
		return nil, base.BuildStats{}, err
	}
	return base.FromKeysCtx(ctx, NameRL, m.Trainer, keys, d, time.Since(t0), m.Workers)
}

// searchKeys runs the DQN-guided search and returns the best synthetic
// key set found.
func (m *RLM) searchKeys(ctx context.Context, d *base.SortedData) ([]float64, error) {
	eta := m.Eta
	if eta < 2 {
		eta = 2
	}
	steps := m.Steps
	if steps <= 0 {
		steps = 2000
	}
	patience := m.Patience
	if patience <= 0 {
		patience = steps / 4
	}
	zeta := m.Zeta
	if zeta <= 0 || zeta > 1 {
		zeta = 0.8
	}
	if d.Len() < minTrainSet {
		return append([]float64(nil), d.Keys...), nil
	}

	// Grid cells, each represented by its center's mapped key, ordered
	// by rank in the mapped space (the state ordering of the paper).
	dim := eta * eta
	cellKeys := make([]float64, 0, dim)
	w := d.Space.Width() / float64(eta)
	h := d.Space.Height() / float64(eta)
	for cy := 0; cy < eta; cy++ {
		for cx := 0; cx < eta; cx++ {
			center := geo.Point{
				X: d.Space.MinX + (float64(cx)+0.5)*w,
				Y: d.Space.MinY + (float64(cy)+0.5)*h,
			}
			cellKeys = append(cellKeys, d.Map(center))
		}
	}
	sort.Float64s(cellKeys)

	agentCfg := rl.DefaultConfig(dim)
	agentCfg.Seed = m.Seed
	agent := rl.NewAgent(agentCfg)
	rng := rand.New(rand.NewSource(m.Seed + 1))

	state := make([]float64, dim)
	for i := range state {
		state[i] = 1
	}
	dsKeys := func(s []float64) []float64 {
		keys := make([]float64, 0, dim)
		for i, bit := range s {
			if floats.Eq(bit, 1) {
				keys = append(keys, cellKeys[i])
			}
		}
		return keys
	}
	onesOf := func(s []float64) int {
		c := 0
		for _, bit := range s {
			if floats.Eq(bit, 1) {
				c++
			}
		}
		return c
	}
	dist := kstest.Distance(dsKeys(state), d.Keys)
	best := append([]float64(nil), state...)
	bestDist := dist
	sinceImprove := 0

	for step := 0; step < steps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		action := agent.Select(state)
		next := append([]float64(nil), state...)
		if rng.Float64() < zeta {
			next[action] = 1 - next[action]
		}
		if onesOf(next) < minTrainSet {
			// never empty the training set
			next[action] = 1
		}
		nextDist := kstest.Distance(dsKeys(next), d.Keys)
		reward := dist - nextDist
		agent.Observe(state, action, reward, next)
		state, dist = next, nextDist
		if dist < bestDist {
			bestDist = dist
			copy(best, state)
			sinceImprove = 0
		} else {
			sinceImprove++
			if sinceImprove >= patience {
				break
			}
		}
	}
	return dsKeys(best), nil
}
