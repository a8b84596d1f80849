package rebuild

import (
	"math/rand"
	"time"
)

// errRingCap bounds the recent-error ring exposed by RebuildErrors.
const errRingCap = 16

// defaultBreakerThreshold is the consecutive-failure count that opens
// the circuit breaker when BreakerThreshold is left zero.
const defaultBreakerThreshold = 5

// RetryPolicy configures the capped exponential backoff applied to
// failed background rebuilds. All randomness is drawn from a dedicated
// generator seeded with Seed, so retry timing is reproducible.
type RetryPolicy struct {
	// Base is the delay before the first retry (default 50ms).
	Base time.Duration
	// Max caps the backoff growth (default 5s).
	Max time.Duration
	// Jitter is the fraction of each delay randomized around its
	// nominal value, in [0, 1]: delay *= 1 + Jitter*u for a seeded
	// u in [-1, 1). Zero disables jitter.
	Jitter float64
	// Seed seeds the jitter generator.
	Seed int64
	// MaxAttempts bounds the retries per failure streak; 0 means
	// retry until the circuit breaker opens.
	MaxAttempts int
	// Sleep overrides time.Sleep between failure and retry — the test
	// hook that makes backoff schedules observable without real time.
	Sleep func(time.Duration)
}

// backoff returns the delay before retry number attempt (1-based):
// Base doubled per prior attempt, jittered, capped at Max.
func (r *RetryPolicy) backoff(attempt int, rng *rand.Rand) time.Duration {
	base := r.Base
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := r.Max
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if r.Jitter > 0 && rng != nil {
		f := 1 + r.Jitter*(2*rng.Float64()-1)
		d = time.Duration(float64(d) * f)
		if d > max {
			d = max
		}
		if d < 0 {
			d = 0
		}
	}
	return d
}

func (r *RetryPolicy) sleep(d time.Duration) {
	if r.Sleep != nil {
		r.Sleep(d)
		return
	}
	time.Sleep(d)
}

// breakerThreshold resolves the configured threshold: 0 selects the
// default, negative disables the breaker.
func (p *Processor) breakerThreshold() int {
	if p.BreakerThreshold == 0 {
		return defaultBreakerThreshold
	}
	return p.BreakerThreshold
}

// recordFailureLocked appends err to the bounded error ring, advances
// the failure counters, and opens the circuit breaker when the
// consecutive-failure streak reaches the threshold. Write lock held.
func (p *Processor) recordFailureLocked(err error) {
	p.rebuildErr = err
	p.rebuildErrs = append(p.rebuildErrs, err)
	if len(p.rebuildErrs) > errRingCap {
		p.rebuildErrs = p.rebuildErrs[len(p.rebuildErrs)-errRingCap:]
	}
	p.failures++
	p.consecFail++
	if t := p.breakerThreshold(); t > 0 && p.consecFail >= t {
		p.breakerOpen = true
	}
}

// recordSuccessLocked resets the failure streak and closes the
// breaker. Write lock held.
func (p *Processor) recordSuccessLocked() {
	p.rebuildErr = nil
	p.consecFail = 0
	p.breakerOpen = false
}

// scheduleRetryLocked arms a backoff-delayed retry of a failed
// background rebuild, if the retry policy allows another attempt and
// the breaker is closed. Write lock held; gen is the failed build's
// generation, used to drop retries superseded by newer activity.
func (p *Processor) scheduleRetryLocked(gen uint64) {
	r := p.Retry
	if r == nil || p.breakerOpen || p.Factory == nil {
		return
	}
	if r.MaxAttempts > 0 && p.consecFail > r.MaxAttempts {
		return
	}
	if p.retryRNG == nil {
		p.retryRNG = rand.New(rand.NewSource(r.Seed))
	}
	delay := r.backoff(p.consecFail, p.retryRNG)
	p.retryPending = true
	p.retryWG.Add(1)
	go func() {
		defer p.retryWG.Done()
		r.sleep(delay)
		p.mu.Lock()
		defer p.mu.Unlock()
		p.retryPending = false
		if p.generation != gen || p.rebuilding || p.breakerOpen {
			return
		}
		p.retries++
		p.startRebuildLocked()
	}()
}

// Quiesce blocks until every armed retry goroutine has run to
// completion and no background rebuild is in flight — the clean-
// shutdown join for the fault-tolerance machinery. A retry that fires
// during the wait starts a rebuild, which Quiesce then also waits out;
// callers who want a faster stop should open the breaker first (set
// BreakerThreshold negative or let failures trip it) so fired retries
// become no-ops.
func (p *Processor) Quiesce() {
	for {
		p.retryWG.Wait()
		p.WaitRebuild()
		p.mu.RLock()
		idle := !p.retryPending && !p.rebuilding
		p.mu.RUnlock()
		if idle {
			return
		}
	}
}

// RebuildErrors returns the ring of recent rebuild errors, oldest
// first (at most the last 16).
func (p *Processor) RebuildErrors() []error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]error(nil), p.rebuildErrs...)
}

// Failures returns the total number of failed rebuild attempts.
func (p *Processor) Failures() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.failures
}

// Retries returns how many backoff-scheduled retry attempts started.
func (p *Processor) Retries() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.retries
}

// ConsecutiveFailures returns the current failure streak (reset by
// any successful rebuild).
func (p *Processor) ConsecutiveFailures() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.consecFail
}

// RetryPending reports whether a backoff-delayed retry is armed.
func (p *Processor) RetryPending() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.retryPending
}

// BreakerOpen reports whether the circuit breaker is open. While open
// the processor does not start background rebuilds: queries are served
// from the last good index plus the delta overlay, and an explicit
// Rebuild() runs inline.
func (p *Processor) BreakerOpen() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.breakerOpen
}
