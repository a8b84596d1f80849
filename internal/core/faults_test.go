package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"elsi/internal/base"
	"elsi/internal/dataset"
	"elsi/internal/faults"
	"elsi/internal/geo"
	"elsi/internal/indextest"
	"elsi/internal/methods"
	"elsi/internal/rmi"
	"elsi/internal/zm"
)

// checkCovers asserts the query-correctness invariant of every build
// result: the model's search range contains the true rank of each key,
// so predict-and-scan point queries cannot miss.
func checkCovers(t *testing.T, m *rmi.Bounded, d *base.SortedData) {
	t.Helper()
	if m == nil {
		t.Fatal("nil model")
	}
	step := d.Len()/64 + 1
	for i := 0; i < d.Len(); i += step {
		lo, hi := m.SearchRange(d.Keys[i])
		if i < lo || i >= hi {
			t.Fatalf("rank %d outside search range [%d, %d)", i, lo, hi)
		}
	}
}

func fixedSystem(t *testing.T, method string, timeout time.Duration) *System {
	t.Helper()
	s, err := NewSystem(Config{
		Trainer:      testTrainer(),
		Selector:     SelectorFixed,
		Fixed:        method,
		Seed:         1,
		Workers:      2,
		BuildTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLadderFallsBackEveryMethodEveryMode is the acceptance matrix of
// the degradation ladder: for each pool method and each failure mode
// (injected error, injected panic, blown per-attempt budget), the
// selected method fails, the build falls to a lower rung, and the
// returned model still answers every query correctly.
func TestLadderFallsBackEveryMethodEveryMode(t *testing.T) {
	d := prepared(dataset.OSM1, 3000, 7)
	for _, method := range methods.PoolNames() {
		for _, mode := range []faults.Mode{faults.ModeError, faults.ModePanic, faults.ModeBudget} {
			t.Run(method+"/"+mode.String(), func(t *testing.T) {
				defer faults.Reset()
				point := "build/" + method
				faults.Enable(point, faults.Fault{Mode: mode})
				s := fixedSystem(t, method, 50*time.Millisecond)
				m, stats := build(t, s, d)
				if faults.Hits(point) == 0 {
					t.Fatalf("fault at %s never fired", point)
				}
				if stats.Selected != method {
					t.Errorf("stats.Selected = %q, want %q", stats.Selected, method)
				}
				if stats.Fallbacks < 1 {
					t.Errorf("stats.Fallbacks = %d, want >= 1", stats.Fallbacks)
				}
				if stats.Method == method {
					t.Errorf("stats.Method is the failed method %q", method)
				}
				if got := s.Fallbacks()[method]; got != 1 {
					t.Errorf("Fallbacks()[%s] = %d, want 1", method, got)
				}
				if got := s.Selections()[method]; got != 1 {
					t.Errorf("Selections()[%s] = %d, want 1", method, got)
				}
				checkCovers(t, m, d)
			})
		}
	}
}

// TestLadderTerminalRung arms every build injection point, so the
// selected method, every other pool method, RSP, and OG all fail; the
// terminal piecewise rung must still produce a correct model.
func TestLadderTerminalRung(t *testing.T) {
	defer faults.Reset()
	for _, name := range append(methods.PoolNames(), methods.NameRSP) {
		faults.Enable("build/"+name, faults.Fault{Mode: faults.ModeError})
	}
	d := prepared(dataset.Uniform, 2000, 3)
	s := fixedSystem(t, methods.NameSP, 0)
	m, stats := build(t, s, d)
	if stats.Method != methodPW {
		t.Fatalf("stats.Method = %q, want %q", stats.Method, methodPW)
	}
	if stats.Selected != methods.NameSP {
		t.Errorf("stats.Selected = %q, want SP", stats.Selected)
	}
	if stats.Fallbacks != 7 {
		t.Errorf("stats.Fallbacks = %d, want 7 (6 pool + RSP)", stats.Fallbacks)
	}
	checkCovers(t, m, d)
}

// TestLadderBoundsScanFault injects a one-shot failure into the shared
// error-bound scan: the first rung's scan fails, the second rung's
// succeeds.
func TestLadderBoundsScanFault(t *testing.T) {
	defer faults.Reset()
	faults.Enable("bounds/scan", faults.Fault{Mode: faults.ModeError, Times: 1})
	d := prepared(dataset.Uniform, 2000, 5)
	s := fixedSystem(t, methods.NameSP, 0)
	m, stats := build(t, s, d)
	if stats.Fallbacks != 1 {
		t.Errorf("stats.Fallbacks = %d, want 1", stats.Fallbacks)
	}
	if got := s.Fallbacks()[methods.NameSP]; got != 1 {
		t.Errorf("Fallbacks()[SP] = %d, want 1", got)
	}
	checkCovers(t, m, d)
}

// TestBuildModelCtxParentCancellation distinguishes a dead parent
// context from a method failure: the ladder must stop, not burn the
// remaining rungs.
func TestBuildModelCtxParentCancellation(t *testing.T) {
	d := prepared(dataset.Uniform, 1000, 2)
	s := fixedSystem(t, methods.NameSP, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, _, err := s.BuildModel(ctx, d)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m != nil {
		t.Fatal("cancelled build returned a model")
	}
	if got := s.Fallbacks()[methods.NameSP]; got != 0 {
		t.Errorf("cancellation counted as fallback: %d", got)
	}
}

// TestNoFaultsNoFallbacks pins the fault-free path: the selected
// method builds, no fallback counters move, Selected == Method.
func TestNoFaultsNoFallbacks(t *testing.T) {
	d := prepared(dataset.Uniform, 2000, 9)
	s := fixedSystem(t, methods.NameSP, 0)
	m, stats := build(t, s, d)
	if stats.Selected != methods.NameSP || stats.Method != methods.NameSP {
		t.Errorf("Selected/Method = %q/%q, want SP/SP", stats.Selected, stats.Method)
	}
	if stats.Fallbacks != 0 {
		t.Errorf("stats.Fallbacks = %d, want 0", stats.Fallbacks)
	}
	if len(s.Fallbacks()) != 0 {
		t.Errorf("Fallbacks() = %v, want empty", s.Fallbacks())
	}
	checkCovers(t, m, d)
}

// TestQueriesCorrectUnderFaults builds a full ZM index through a
// fault-injected ELSI system and runs the standard conformance suite
// against brute force: point, window, and kNN queries must all be
// exact even though the selected method panicked and the build fell
// back.
func TestQueriesCorrectUnderFaults(t *testing.T) {
	defer faults.Reset()
	faults.Enable("build/"+methods.NameSP, faults.Fault{Mode: faults.ModePanic})
	s := fixedSystem(t, methods.NameSP, 0)
	ix := zm.New(zm.Config{Space: geo.UnitRect, Builder: s, Fanout: 4, Workers: 2})
	pts := dataset.MustGenerate(dataset.OSM1, 4000, 11)
	indextest.Conformance(t, ix, pts, 11, 1.0, 1.0)
	if faults.Hits("build/"+methods.NameSP) == 0 {
		t.Fatal("fault never fired")
	}
	if s.Fallbacks()[methods.NameSP] == 0 {
		t.Fatal("no fallback recorded")
	}
}

// TestBuildCtxTimeoutZM exercises the index-level budget: a ZM build
// whose every model attempt blocks on its budget must still terminate
// (the ladder ends in the budget-free piecewise rung) and stay exact.
func TestBuildCtxTimeoutZM(t *testing.T) {
	defer faults.Reset()
	// Block SP on its budget every time; the ladder absorbs it.
	faults.Enable("build/"+methods.NameSP, faults.Fault{Mode: faults.ModeBudget})
	s := fixedSystem(t, methods.NameSP, 20*time.Millisecond)
	ix := zm.New(zm.Config{Space: geo.UnitRect, Builder: s, Fanout: 1, Workers: 2})
	pts := dataset.MustGenerate(dataset.Uniform, 2000, 13)
	indextest.Conformance(t, ix, pts, 13, 1.0, 1.0)
}
