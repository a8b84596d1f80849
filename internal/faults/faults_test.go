package faults

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestUnarmedHitIsNil(t *testing.T) {
	Reset()
	if err := Hit("build/SP"); err != nil {
		t.Fatalf("unarmed Hit = %v, want nil", err)
	}
	if err := HitCtx(context.Background(), "build/SP"); err != nil {
		t.Fatalf("unarmed HitCtx = %v, want nil", err)
	}
	if got := Hits("build/SP"); got != 0 {
		t.Fatalf("Hits on unarmed point = %d, want 0", got)
	}
}

func TestErrorModeAndTimes(t *testing.T) {
	Reset()
	defer Reset()
	Enable("build/SP", Fault{Mode: ModeError, Times: 2})
	for i := 0; i < 2; i++ {
		err := Hit("build/SP")
		var inj *InjectedError
		if !errors.As(err, &inj) || inj.Point != "build/SP" {
			t.Fatalf("hit %d = %v, want InjectedError at build/SP", i, err)
		}
	}
	if err := Hit("build/SP"); err != nil {
		t.Fatalf("hit beyond Times = %v, want nil", err)
	}
	if got := Hits("build/SP"); got != 3 {
		t.Fatalf("Hits = %d, want 3", got)
	}
}

func TestPanicMode(t *testing.T) {
	Reset()
	defer Reset()
	Enable("build/CL", Fault{Mode: ModePanic})
	defer func() {
		r := recover()
		p, ok := r.(*InjectedPanic)
		if !ok || p.Point != "build/CL" {
			t.Fatalf("recover() = %v, want InjectedPanic at build/CL", r)
		}
	}()
	Hit("build/CL")
	t.Fatal("Hit did not panic")
}

func TestBudgetModeBlocksUntilCancel(t *testing.T) {
	Reset()
	defer Reset()
	Enable("build/MR", Fault{Mode: ModeBudget})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := HitCtx(ctx, "build/MR")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("budget HitCtx = %v, want deadline exceeded", err)
	}
}

func TestBudgetModeWithoutContext(t *testing.T) {
	Reset()
	defer Reset()
	Enable("rebuild/background", Fault{Mode: ModeBudget, Delay: time.Millisecond})
	err := Hit("rebuild/background")
	var inj *InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("context-less budget Hit = %v, want InjectedError", err)
	}
}

func TestDelayModeProceeds(t *testing.T) {
	Reset()
	defer Reset()
	Enable("bounds/scan", Fault{Mode: ModeDelay, Delay: time.Millisecond})
	start := time.Now()
	if err := Hit("bounds/scan"); err != nil {
		t.Fatalf("delay Hit = %v, want nil", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("delay Hit returned before the configured delay")
	}
}

func TestParseSpec(t *testing.T) {
	Reset()
	defer Reset()
	err := ParseSpec("build/SP:error; build/CL:panic:2 ;bounds/scan:delay=2ms;build/MR:budget")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	got := Armed()
	want := []string{"bounds/scan", "build/CL", "build/MR", "build/SP"}
	if len(got) != len(want) {
		t.Fatalf("Armed() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Armed() = %v, want %v", got, want)
		}
	}
	var inj *InjectedError
	if err := Hit("build/SP"); !errors.As(err, &inj) {
		t.Fatalf("spec-armed error point = %v", err)
	}
}

func TestParseSpecRejectsBadEntries(t *testing.T) {
	Reset()
	defer Reset()
	for _, spec := range []string{
		"no-colon",
		"p:zap",
		"p:error:0",
		"p:error:x",
		"p:delay=nope",
		":error",
		"p:error:1:extra",
	} {
		if err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted a bad spec", spec)
		}
	}
}

func TestDeterministicTriggering(t *testing.T) {
	// The same arm + hit sequence produces the same trigger pattern
	// every time: no randomness is involved.
	for run := 0; run < 3; run++ {
		Reset()
		Enable("p", Fault{Mode: ModeError, Times: 3})
		var pattern []bool
		for i := 0; i < 6; i++ {
			pattern = append(pattern, Hit("p") != nil)
		}
		for i, fired := range pattern {
			want := i < 3
			if fired != want {
				t.Fatalf("run %d hit %d fired=%v, want %v", run, i, fired, want)
			}
		}
	}
	Reset()
}

func TestBudgetModeNeverExpiringContext(t *testing.T) {
	// A budget fault under context.Background() (nil Done channel)
	// cannot block forever: it degrades to sleep-and-error.
	defer Reset()
	Enable("p", Fault{Mode: ModeBudget, Delay: time.Millisecond})
	done := make(chan error, 1)
	go func() { done <- HitCtx(context.Background(), "p") }()
	select {
	case err := <-done:
		var ie *InjectedError
		if !errors.As(err, &ie) {
			t.Fatalf("err = %v, want *InjectedError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("budget fault hung on a never-expiring context")
	}
}
