// Package faults is a deterministic fault-injection registry for the
// build pipeline's robustness tests and for chaos runs of elsibench.
//
// Injection points are plain named call sites: a build stage calls
// faults.Hit("build/SP") (or HitCtx when it has a context) at its
// entry or inside its hot loop. With no faults armed the call is a
// single atomic load and returns nil, so the points stay compiled into
// production builds at negligible cost. Tests arm a point with Enable
// (or a whole spec string with ParseSpec) and the next hits trigger the
// configured failure mode:
//
//	error  — return a typed *InjectedError
//	panic  — panic with *InjectedPanic (exercises panic isolation)
//	delay  — sleep a fixed duration, then proceed
//	budget — block until the context is cancelled (exercises budgets);
//	         without a context, sleep Delay and return the typed error
//
// Triggering is fully deterministic: a fault fires on its first Times
// hits (Times == 0 means every hit), counted per point under a lock.
// There is no randomness anywhere in this package, so runs are
// reproducible by construction.
//
// Injection-point names form a small namespace, documented in
// DESIGN.md §9: "build/<METHOD>" at pool-builder entry (SP, CL, MR,
// RS, RL, RSP, OG), "bounds/scan" in the empirical error-bound scan,
// "rebuild/background" in the background rebuild goroutine, and
// "rebuild/train" in the rebuild predictor's training goroutine.
package faults

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is a failure mode an armed injection point produces.
type Mode int

const (
	// ModeError returns an *InjectedError from the hit.
	ModeError Mode = iota
	// ModePanic panics with an *InjectedPanic value.
	ModePanic
	// ModeDelay sleeps Fault.Delay, then lets the hit proceed.
	ModeDelay
	// ModeBudget blocks until the hit's context is cancelled and
	// returns the context's error, simulating a stage that blows its
	// build budget. Without a context it sleeps Fault.Delay and
	// returns an *InjectedError.
	ModeBudget
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	case ModeBudget:
		return "budget"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Fault configures one armed injection point.
type Fault struct {
	// Mode selects the failure mode.
	Mode Mode
	// Times limits the fault to the first Times hits of the point;
	// 0 means every hit triggers.
	Times int
	// Delay is the sleep for ModeDelay and for ModeBudget hits that
	// have no context. Zero defaults to 10ms for those modes.
	Delay time.Duration
}

// InjectedError is the typed error returned by ModeError (and
// context-less ModeBudget) hits.
type InjectedError struct {
	// Point is the injection-point name that fired.
	Point string
}

// Error implements error.
func (e *InjectedError) Error() string {
	return "faults: injected error at " + e.Point
}

// InjectedPanic is the value ModePanic hits panic with.
type InjectedPanic struct {
	// Point is the injection-point name that fired.
	Point string
}

// String implements fmt.Stringer so recovered panic values print
// readably inside PanicError messages.
func (p *InjectedPanic) String() string {
	return "faults: injected panic at " + p.Point
}

type armed struct {
	fault Fault
	hits  int
}

var (
	// active is the lock-free fast path: zero armed faults means every
	// Hit returns nil after one atomic load.
	active atomic.Bool

	mu    sync.Mutex
	table map[string]*armed
)

// Enable arms the named injection point. Re-enabling a point replaces
// its fault and resets its hit counter.
func Enable(name string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if table == nil {
		table = make(map[string]*armed)
	}
	table[name] = &armed{fault: f}
	active.Store(true)
}

// Reset disarms every injection point. Tests defer it after arming.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	table = nil
	active.Store(false)
}

// Hits reports how many times the named point has been hit since it
// was armed (triggering or not). Zero for unarmed points.
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if a, ok := table[name]; ok {
		return a.hits
	}
	return 0
}

// Armed lists the currently armed point names, sorted.
func Armed() []string {
	mu.Lock()
	defer mu.Unlock()
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// trigger checks the named point and, if it should fire, returns its
// fault. The hit counter advances under the lock, so first-N-hits
// semantics hold even with concurrent hits.
func trigger(name string) (Fault, bool) {
	mu.Lock()
	defer mu.Unlock()
	a, ok := table[name]
	if !ok {
		return Fault{}, false
	}
	a.hits++
	if a.fault.Times > 0 && a.hits > a.fault.Times {
		return Fault{}, false
	}
	return a.fault, true
}

func (f Fault) delay() time.Duration {
	if f.Delay > 0 {
		return f.Delay
	}
	return 10 * time.Millisecond
}

// Hit is the context-less injection point. It returns nil unless the
// point is armed and fires, in which case it errors, panics, or
// delays per the armed fault.
func Hit(name string) error {
	if !active.Load() {
		return nil
	}
	f, fire := trigger(name)
	if !fire {
		return nil
	}
	switch f.Mode {
	case ModePanic:
		panic(&InjectedPanic{Point: name})
	case ModeDelay:
		time.Sleep(f.delay())
		return nil
	case ModeBudget:
		time.Sleep(f.delay())
		return &InjectedError{Point: name}
	default:
		return &InjectedError{Point: name}
	}
}

// HitCtx is the injection point for call sites that carry a context.
// ModeBudget blocks until ctx is done and returns its error — unless
// ctx can never be done (context.Background()), in which case it
// degrades to Hit's sleep-and-error so it cannot hang the caller. The
// other modes behave as in Hit.
func HitCtx(ctx context.Context, name string) error {
	if !active.Load() {
		return nil
	}
	f, fire := trigger(name)
	if !fire {
		return nil
	}
	switch f.Mode {
	case ModePanic:
		panic(&InjectedPanic{Point: name})
	case ModeDelay:
		t := time.NewTimer(f.delay())
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
		return nil
	case ModeBudget:
		if ctx.Done() == nil {
			// the context can never expire (context.Background());
			// blocking would hang forever, so degrade to Hit's
			// behaviour: burn the delay and fail the attempt
			time.Sleep(f.delay())
			return &InjectedError{Point: name}
		}
		<-ctx.Done()
		return ctx.Err()
	default:
		return &InjectedError{Point: name}
	}
}

// ParseSpec arms every fault in a ';'-separated chaos spec, the format
// of elsibench's -faults flag. Each entry is
//
//	<point>:<mode>[:<times>]
//
// where mode is error, panic, budget, or delay=<duration> (Go duration
// syntax), and the optional times bounds the fault to the first N hits:
//
//	build/SP:error
//	build/CL:panic:2;rebuild/background:error:3
//	bounds/scan:delay=50ms
func ParseSpec(spec string) error {
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return fmt.Errorf("faults: bad spec entry %q (want point:mode[:times])", entry)
		}
		name := strings.TrimSpace(parts[0])
		if name == "" {
			return fmt.Errorf("faults: empty point name in %q", entry)
		}
		var f Fault
		modeStr := strings.TrimSpace(parts[1])
		switch {
		case modeStr == "error":
			f.Mode = ModeError
		case modeStr == "panic":
			f.Mode = ModePanic
		case modeStr == "budget":
			f.Mode = ModeBudget
		case strings.HasPrefix(modeStr, "delay="):
			d, err := time.ParseDuration(strings.TrimPrefix(modeStr, "delay="))
			if err != nil {
				return fmt.Errorf("faults: bad delay in %q: %v", entry, err)
			}
			f.Mode = ModeDelay
			f.Delay = d
		default:
			return fmt.Errorf("faults: unknown mode %q in %q", modeStr, entry)
		}
		if len(parts) == 3 {
			times, err := strconv.Atoi(strings.TrimSpace(parts[2]))
			if err != nil || times < 1 {
				return fmt.Errorf("faults: bad times in %q (want positive integer)", entry)
			}
			f.Times = times
		}
		Enable(name, f)
	}
	return nil
}
