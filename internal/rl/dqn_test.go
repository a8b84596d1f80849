package rl

import (
	"math/rand"
	"testing"
)

func TestNewAgentDefaults(t *testing.T) {
	a := NewAgent(Config{StateDim: 4, Seed: 1})
	if a.cfg.TrainEvery != 5 || a.cfg.SyncEvery != 50 || a.cfg.BatchSize != 32 {
		t.Errorf("defaults not applied: %+v", a.cfg)
	}
	if a.steps != 0 {
		t.Errorf("Steps = %d", a.steps)
	}
}

func TestNewAgentPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for StateDim <= 0")
		}
	}()
	NewAgent(Config{StateDim: 0})
}

func TestSelectInRange(t *testing.T) {
	cfg := DefaultConfig(8)
	a := NewAgent(cfg)
	state := make([]float64, 8)
	for i := 0; i < 100; i++ {
		act := a.Select(state)
		if act < 0 || act >= 8 {
			t.Fatalf("action %d out of range", act)
		}
	}
}

func TestSelectGreedyWhenEpsilonZero(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Epsilon = 0
	a := NewAgent(cfg)
	state := []float64{1, 0, 1, 0}
	first := a.Select(state)
	for i := 0; i < 10; i++ {
		if got := a.Select(state); got != first {
			t.Fatal("greedy selection not deterministic")
		}
	}
}

func TestObserveTrainsPeriodically(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Epsilon = 0
	a := NewAgent(cfg)
	state := []float64{0, 0, 0, 0}
	before := a.net.Forward(state)[0]
	for i := 0; i < 20; i++ {
		a.Observe(state, i%4, 1.0, state)
	}
	after := a.net.Forward(state)[0]
	if before == after {
		t.Error("network unchanged after 20 observations (training never ran)")
	}
	if a.steps != 20 {
		t.Errorf("Steps = %d", a.steps)
	}
}

// TestLearnsBanditPreference checks the agent learns a trivial
// contextual bandit: action 2 always pays 1, everything else pays 0.
func TestLearnsBanditPreference(t *testing.T) {
	cfg := Config{
		StateDim: 4, Hidden: 16, Gamma: 0, Epsilon: 1.0,
		LearningRate: 0.01, ReplayCap: 500, BatchSize: 16,
		TrainEvery: 5, SyncEvery: 20, Seed: 3,
	}
	a := NewAgent(cfg)
	state := []float64{1, 1, 1, 1}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 600; i++ {
		act := rng.Intn(4)
		r := 0.0
		if act == 2 {
			r = 1
		}
		a.Observe(state, act, r, state)
	}
	a.cfg.Epsilon = 0
	if got := a.Select(state); got != 2 {
		q := a.net.Forward(state)
		t.Errorf("greedy action = %d (q=%v), want 2", got, q)
	}
}

func TestReplayCapacityWraps(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.ReplayCap = 8
	a := NewAgent(cfg)
	s := []float64{0, 0}
	for i := 0; i < 100; i++ {
		a.Observe(s, 0, 0, s)
	}
	if len(a.replay) != 8 {
		t.Errorf("replay grew to %d, cap 8", len(a.replay))
	}
}
