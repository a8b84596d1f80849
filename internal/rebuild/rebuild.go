// Package rebuild implements ELSI's update processor (Section IV-B2):
// pending updates are kept in a delta list consulted at query time,
// and an FFN rebuild predictor decides — from the data set summary,
// the index depth, the update ratio, and the CDF drift sim(D', D) —
// when a full rebuild pays off. A learning-based trigger replaces the
// empirical rules traditional systems use.
//
// The Processor is safe for concurrent readers and writers, and — when
// given a Factory — runs rebuilds on a background goroutine with an
// atomic index swap, so queries are never blocked behind a build (see
// DESIGN.md, "Concurrent update processor").
package rebuild

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"elsi/internal/base"
	"elsi/internal/delta"
	"elsi/internal/faults"
	"elsi/internal/geo"
	"elsi/internal/index"
	"elsi/internal/kstest"
	"elsi/internal/monitor"
	"elsi/internal/nn"
	"elsi/internal/parallel"
)

// --- rebuild predictor --------------------------------------------------

// Features summarizes the state the rebuild predictor judges.
type Features struct {
	// N is the cardinality at the last (re)build.
	N int
	// Dist is dist(D_U, D) of the built data set.
	Dist float64
	// Depth is the index depth.
	Depth int
	// UpdateRatio is |D'|/|D| - 1.
	UpdateRatio float64
	// Sim is sim(D', D), the CDF similarity between the updated and
	// the built data set.
	Sim float64
}

func (f Features) vector() []float64 {
	return []float64{
		math.Log10(float64(max(f.N, 1))) / 9,
		f.Dist,
		float64(f.Depth) / 20,
		math.Min(f.UpdateRatio, 8) / 8,
		f.Sim,
	}
}

// Sample is one labelled training row: Rebuild is true when querying
// without a rebuild was at least 10% slower than with one (the
// labelling rule of Section VII-B2).
type Sample struct {
	Features
	Rebuild bool
}

// Predictor is the FFN rebuild predictor C_RB.
type Predictor struct {
	net *nn.Network
}

// PredictorConfig controls predictor training.
type PredictorConfig struct {
	Hidden int
	Epochs int
	Seed   int64
}

// TrainPredictor fits the binary FFN on labelled samples.
func TrainPredictor(samples []Sample, cfg PredictorConfig) (*Predictor, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("rebuild: no training samples")
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 16
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 300
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := nn.New(rng, 5, cfg.Hidden, 1)
	xs := make([][]float64, len(samples))
	ys := make([][]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.vector()
		if s.Rebuild {
			ys[i] = []float64{1}
		} else {
			ys[i] = []float64{0}
		}
	}
	if _, err := net.Train(xs, ys, nn.Config{LearningRate: 0.01, Epochs: cfg.Epochs, BatchSize: 16, Seed: cfg.Seed}); err != nil {
		return nil, err
	}
	return &Predictor{net: net}, nil
}

// ShouldRebuild runs the predictor (output thresholded at 0.5).
func (p *Predictor) ShouldRebuild(f Features) bool {
	return p.net.Forward1(f.vector()) > 0.5
}

// HeuristicSamples fabricates a labelled training set from the
// qualitative behaviour the paper measures: rebuilds pay off when the
// data set has drifted (low sim, high update ratio) and the index is
// deep; they do not when the distribution is stable. It lets the
// system run end-to-end without the hours-long measurement sweep; the
// bench harness can regenerate measured samples instead.
func HeuristicSamples(rng *rand.Rand, count int) []Sample {
	out := make([]Sample, count)
	for i := range out {
		f := Features{
			N:           int(math.Pow(10, 3+rng.Float64()*3)),
			Dist:        rng.Float64(),
			Depth:       1 + rng.Intn(12),
			UpdateRatio: rng.Float64() * 6,
			Sim:         rng.Float64(),
		}
		// the measured rule of thumb: heavy drift or heavy growth with
		// a deep index means queries degrade >10%
		degraded := (1-f.Sim)*2+f.UpdateRatio/3+float64(f.Depth)/24 > 1
		out[i] = Sample{Features: f, Rebuild: degraded}
	}
	return out
}

// --- update processor -----------------------------------------------------

// Rebuildable is the index-side contract of the update processor: a
// queryable index that can be fully rebuilt from a point slice.
type Rebuildable interface {
	index.Index
	Build(pts []geo.Point) error
}

// Depther is implemented by indices exposing their height.
type Depther interface {
	Depth() int
}

// Processor wraps a built index with the ELSI update path: a delta
// list for pending inserts/deletes plus the learned rebuild trigger.
//
// All methods are safe for concurrent use. The configuration fields
// (UseBuiltin, Fu, MapKey, Factory) must be set before the processor
// is shared across goroutines and not mutated afterwards.
//
// Without a Factory, a triggered rebuild runs inline under the write
// lock: correct, but every reader stalls for the build's duration.
// With a Factory, the rebuild runs on a background goroutine against a
// frozen snapshot of the data set while queries keep being served from
// the old index plus the frozen delta view, and new updates land in a
// fresh delta overlay; when the build finishes, the new index is
// swapped in atomically and the overlay becomes the live delta list.
type Processor struct {
	pred *Predictor
	// UseBuiltin routes insertions to the index's own Insert (when
	// supported), as RSMI and LISA do; otherwise they stay in the
	// delta list until a rebuild folds them in. While a background
	// rebuild is in flight the builtin path is suspended: an update
	// applied to the outgoing index only would be lost at swap time,
	// so it is recorded in the overlay instead.
	UseBuiltin bool
	// Fu is the check frequency: the predictor runs every Fu updates.
	Fu int
	// MapKey mirrors the index's mapping, for CDF maintenance.
	MapKey func(geo.Point) float64
	// Factory creates a fresh, unbuilt index instance for each
	// background rebuild. When nil, rebuilds block.
	Factory func() Rebuildable
	// Retry, when non-nil, retries failed background rebuilds with
	// capped exponential backoff (see RetryPolicy). Nil disables
	// retries: a failed rebuild stays failed until the next trigger.
	Retry *RetryPolicy
	// BuildGate, when non-nil, is called by the background-rebuild
	// goroutine immediately before the build phase; the build starts
	// once it returns and the returned release function is called when
	// the build finishes (success, failure, or recovered panic). A
	// sharded deployment installs a shared semaphore here so at most a
	// fixed number of shards rebuild concurrently — a rebuild wave
	// across the fleet never saturates every core at once. While a
	// shard waits at the gate it keeps serving from its old index plus
	// the delta overlay, exactly as during the build itself. Inline
	// (blocking) rebuilds are not gated: they run under the write lock,
	// and waiting there on other shards' builds would stall this
	// shard's readers for unrelated work.
	BuildGate func() (release func())
	// OnSwap, when non-nil, is called after every successful background
	// rebuild swap, outside the processor lock. The persistence layer
	// installs its snapshot trigger here: a swap is the moment the
	// learned structure absorbed its pending deltas, so capturing right
	// after it keeps the WAL tail (and hence recovery time) short.
	OnSwap func()
	// Monitor, when non-nil, receives one Record* call per query and
	// update — padded atomics only, so the hot paths stay lock-free
	// and allocation-free. Set before the processor is shared.
	Monitor *monitor.Stats
	// Workload, when non-nil, is resampled at the start of every
	// rebuild (background and inline): the traffic observed since the
	// last sample becomes a core.WorkloadProfile offered to the build
	// system, so the method ranking of the build about to run reflects
	// the live mix. Set before the processor is shared.
	Workload *WorkloadAdapter
	// BreakerThreshold is the number of consecutive rebuild failures
	// that opens the circuit breaker (0 selects the default of 5,
	// negative disables the breaker). While open, automatic rebuilds
	// are suppressed — the processor serves from the last good index
	// plus the delta overlay — and an explicit Rebuild() runs inline
	// (blocking) instead of spawning another doomed background build.
	// The breaker closes on the next successful rebuild or ResetBreaker.
	BreakerThreshold int

	// mu guards everything below. Background builds run outside the
	// lock against a frozen snapshot; completion re-acquires it only
	// for the swap, so no channel wait ever happens while it is held.
	//
	//elsi:lockorder
	mu sync.RWMutex

	idx       Rebuildable
	pts       []geo.Point // current data set (source of truth)
	deltaList delta.List  // live overlay: updates since the last (started) rebuild
	nextID    int64

	builtKeys   []float64 // sorted keys at last (re)build
	builtN      int
	builtDist   float64
	updatesSeen int
	rebuilds    int

	// background-rebuild state machine: rebuilding is true while a
	// build goroutine is in flight; frozen is the delta view at the
	// moment the rebuild started (immutable; consulted by queries
	// between the overlay and the old index); generation detects
	// superseded completions; rebuildDone is closed at swap time.
	rebuilding  bool
	frozen      *delta.List
	generation  uint64
	rebuildDone chan struct{}
	rebuildErr  error

	// failure bookkeeping: a bounded ring of recent rebuild errors
	// (newest last) plus counters and the retry/breaker state.
	rebuildErrs  []error
	failures     int
	retries      int
	consecFail   int
	retryPending bool
	breakerOpen  bool
	retryRNG     *rand.Rand

	// retryWG joins the backoff-sleeper goroutines armed by
	// scheduleRetryLocked, so Quiesce can prove none outlive the
	// processor. It is not guarded by mu: Add happens before the
	// spawn under the write lock, Wait only in Quiesce.
	retryWG sync.WaitGroup

	// updateGen counts visible-state changes: it is bumped under the
	// write lock together with every applied insert, applied delete,
	// and index swap. Result caches stamp entries with it — a lookup
	// whose stamp matches the current generation is provably reading
	// unchanged state (the bump and the mutation are atomic under mu).
	// No-op updates (re-insert of a stored point, delete of a missing
	// one) leave it alone: answers did not change.
	updateGen atomic.Uint64
}

// UpdateGen returns the current update generation. Readers that cache
// query results read it BEFORE computing the answer and stamp the
// cache entry with that value; see qcache.
//
//elsi:noalloc
func (p *Processor) UpdateGen() uint64 {
	return p.updateGen.Load()
}

// NewProcessor builds idx on pts and wraps it. The data set must be
// non-empty and free of NaN/±Inf coordinates (base.ErrEmptyDataset,
// *base.InvalidPointError): a processor over nothing would serve an
// empty index while its overlay silently absorbed every update, and
// non-finite coordinates have no place on a space-filling curve.
func NewProcessor(idx Rebuildable, pred *Predictor, pts []geo.Point, mapKey func(geo.Point) float64, fu int) (*Processor, error) {
	if err := base.ValidateDataset(pts); err != nil {
		return nil, err
	}
	p := &Processor{idx: idx, pred: pred, Fu: fu, MapKey: mapKey}
	if p.Fu <= 0 {
		p.Fu = 1024
	}
	p.pts = append([]geo.Point(nil), pts...)
	if err := idx.Build(p.pts); err != nil {
		return nil, err
	}
	p.builtKeys, p.builtN, p.builtDist = summarize(p.pts, p.MapKey)
	return p, nil
}

// summarize computes the sorted key CDF and summary of a data set.
func summarize(pts []geo.Point, mapKey func(geo.Point) float64) (keys []float64, n int, dist float64) {
	keys = make([]float64, len(pts))
	for i, pt := range pts {
		keys[i] = mapKey(pt)
	}
	sort.Float64s(keys)
	n = len(pts)
	if n > 0 {
		dist = kstest.DistanceToUniform(keys, keys[0], keys[n-1])
	}
	return keys, n, dist
}

// Insert adds a point through the update processor. It reports
// whether the insertion triggered a full rebuild.
//
// The processor maintains set semantics over the updated points:
// inserting a point that is already stored — in the base index, the
// frozen view of an in-flight rebuild, or the live overlay — is a
// no-op. Without the guard a re-insert of a base-resident point put a
// second copy into the overlay and window/kNN answers emitted the
// point twice (and the duplicate pushed a true neighbor out of kNN
// answers).
func (p *Processor) Insert(pt geo.Point) bool {
	p.Monitor.RecordInsert(pt)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pointLiveLocked(pt) {
		return false
	}
	p.pts = append(p.pts, pt)
	p.updateGen.Add(1)
	if ins, ok := p.idx.(index.Inserter); ok && p.UseBuiltin && !p.rebuilding {
		ins.Insert(pt)
	} else {
		p.nextID++
		p.deltaList.Insert(p.nextID, pt)
	}
	p.updatesSeen++
	return p.maybeRebuildLocked()
}

// Delete removes a point through the delta list. It reports whether a
// rebuild was triggered.
//
// Deletion is by value and removes the point entirely (set semantics,
// matching the query-time deletion filter, which drops every answer
// copy equal to a deleted point): all copies leave the source-of-truth
// point set, so pre- and post-rebuild answers agree even if the
// initial build set contained duplicates.
func (p *Processor) Delete(pt geo.Point) bool {
	p.Monitor.RecordDelete(pt)
	p.mu.Lock()
	defer p.mu.Unlock()
	removed := false
	for i := len(p.pts) - 1; i >= 0; i-- {
		if p.pts[i] == pt {
			p.pts[i] = p.pts[len(p.pts)-1]
			p.pts = p.pts[:len(p.pts)-1]
			removed = true
		}
	}
	if !removed {
		return false
	}
	p.updateGen.Add(1)
	// a pending insertion of this point cancels out; only points
	// living in an index (or in the frozen view an in-flight rebuild
	// is folding in) need a deletion record
	if !p.deltaList.RemoveInsertedPoint(pt) {
		if del, ok := p.idx.(index.Deleter); ok && p.UseBuiltin && !p.rebuilding && del.Delete(pt) {
			// removed through the index's own deletion path
		} else {
			p.nextID++
			p.deltaList.Delete(p.nextID, pt)
		}
	}
	p.updatesSeen++
	return p.maybeRebuildLocked()
}

// maybeRebuildLocked consults the predictor every Fu updates. Called
// with the write lock held. With the circuit breaker open (or a retry
// already scheduled) automatic rebuilds are suppressed: the processor
// keeps serving from the last good index plus the delta overlay.
func (p *Processor) maybeRebuildLocked() bool {
	if p.pred == nil || p.rebuilding || p.retryPending || p.breakerOpen ||
		p.updatesSeen == 0 || p.updatesSeen%p.Fu != 0 {
		return false
	}
	if !p.pred.ShouldRebuild(p.currentFeaturesLocked()) {
		return false
	}
	if p.Factory != nil {
		p.startRebuildLocked()
	} else {
		p.rebuildBlockingLocked()
	}
	return true
}

// CurrentFeatures assembles the predictor input for the present state.
func (p *Processor) CurrentFeatures() Features {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.currentFeaturesLocked()
}

func (p *Processor) currentFeaturesLocked() Features {
	depth := 1
	if d, ok := p.idx.(Depther); ok {
		depth = d.Depth()
	}
	ratio := 0.0
	if p.builtN > 0 {
		ratio = math.Abs(float64(len(p.pts))/float64(p.builtN) - 1)
	}
	return Features{
		N:           p.builtN,
		Dist:        p.builtDist,
		Depth:       depth,
		UpdateRatio: ratio,
		Sim:         p.currentSimLocked(),
	}
}

// CurrentSim computes sim(D', D) between the data set at the last
// build and the current one, comparing their key CDFs. The current
// CDF is derived from the live point set, so both insertions and
// deletions move it — a workload that deletes half a region drives
// sim well below 1 even with no insertion at all.
func (p *Processor) CurrentSim() float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.currentSimLocked()
}

func (p *Processor) currentSimLocked() float64 {
	if p.updatesSeen == 0 {
		return 1
	}
	if len(p.builtKeys) == 0 || len(p.pts) == 0 {
		if len(p.builtKeys) == len(p.pts) {
			return 1
		}
		return 0
	}
	cur := make([]float64, len(p.pts))
	for i, pt := range p.pts {
		cur[i] = p.MapKey(pt)
	}
	sort.Float64s(cur)
	return 1 - kstest.DistanceMerge(p.builtKeys, cur)
}

// Rebuild forces a full index rebuild on the current data set. With a
// Factory it starts a background rebuild and returns immediately
// (WaitRebuild blocks until the swap); without one — or with the
// circuit breaker open — it rebuilds inline under the write lock.
// A Rebuild issued while one is already in flight is a no-op.
func (p *Processor) Rebuild() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rebuilding {
		return
	}
	if p.Factory != nil && !p.breakerOpen {
		p.startRebuildLocked()
	} else {
		p.rebuildBlockingLocked()
	}
}

// rebuildBlockingLocked is the inline path: build in place under the
// write lock, then reset the delta state. A failed or panicking build
// keeps the delta list — the pending updates are still pending, since
// nothing absorbed them — and is recorded like a background failure.
func (p *Processor) rebuildBlockingLocked() {
	p.Workload.Resample()
	if err := p.buildInlineSafe(); err != nil {
		p.recordFailureLocked(err)
		return
	}
	p.rebuilds++
	// The rebuilt index may answer window/kNN queries in a different
	// (equivalent) order than old-index-plus-delta did; invalidate.
	p.updateGen.Add(1)
	p.builtKeys, p.builtN, p.builtDist = summarize(p.pts, p.MapKey)
	p.deltaList.Clear()
	p.updatesSeen = 0
	p.recordSuccessLocked()
}

// buildInlineSafe runs the in-place build with panic isolation.
func (p *Processor) buildInlineSafe() (err error) {
	defer func() {
		if pe := parallel.Recovered(recover()); pe != nil {
			err = pe
		}
	}()
	if err := faults.Hit("rebuild/background"); err != nil {
		return err
	}
	return p.idx.Build(p.pts)
}

// startRebuildLocked launches the background rebuild: freeze the data
// set and the delta view, hand them to a build goroutine working on a
// fresh Factory instance, and let the overlay collect what arrives in
// the meantime. Called with the write lock held and no rebuild in
// flight.
func (p *Processor) startRebuildLocked() {
	p.rebuilding = true
	p.generation++
	gen := p.generation
	done := make(chan struct{})
	p.rebuildDone = done
	frozenPts := append([]geo.Point(nil), p.pts...)
	p.frozen = p.deltaList.Freeze() // deltaList is now the empty overlay
	seenAtStart := p.updatesSeen
	factory := p.Factory
	mapKey := p.MapKey
	gate := p.BuildGate

	adapter := p.Workload

	go func() {
		defer close(done)
		// Re-derive the workload profile from the traffic observed
		// since the last sample, so the build below ranks methods under
		// the live preference. Runs before the gate: waiting shards
		// should build with a profile from when they queued, not one
		// refreshed mid-wait by chance.
		adapter.Resample()
		// the expensive part — including the factory, which may set up
		// builders — runs without the lock: queries and updates proceed
		// against the old index + frozen + overlay. buildSafe recovers
		// panics, so a panicking factory or build never kills the
		// process or wedges the processor in the rebuilding state. The
		// gate (when installed) bounds how many such builds run at once
		// across a shard fleet; buildSafe never panics out, so release
		// always runs.
		newIdx, err := func() (Rebuildable, error) {
			if gate != nil {
				release := gate()
				defer release()
			}
			return buildSafe(factory, frozenPts)
		}()
		var keys []float64
		var n int
		var dist float64
		if err == nil {
			keys, n, dist = summarize(frozenPts, mapKey)
		}

		swapped := func() bool {
			p.mu.Lock()
			defer p.mu.Unlock()
			if p.generation != gen {
				return false // superseded; state belongs to a newer rebuild
			}
			p.rebuilding = false
			p.rebuildErr = err
			if err != nil {
				// keep serving the old index; fold the overlay back into
				// the frozen view, replaying chronologically so deletions
				// cancel the frozen insertions they could not reach while
				// the snapshot was immutable
				restored := p.frozen
				for _, r := range p.deltaList.Records() {
					if r.Op == delta.Deleted && restored.RemoveInsertedPoint(r.Point) {
						continue
					}
					restored.Adopt(r)
				}
				p.deltaList = *restored
				p.frozen = nil
				p.recordFailureLocked(err)
				p.scheduleRetryLocked(gen)
				return false
			}
			// atomic swap: the new index already contains everything the
			// frozen view described, so only the overlay stays pending
			p.idx = newIdx
			p.frozen = nil
			p.rebuilds++
			p.updateGen.Add(1)
			p.builtKeys, p.builtN, p.builtDist = keys, n, dist
			p.updatesSeen -= seenAtStart
			p.recordSuccessLocked()
			return true
		}()
		// the snapshot hook runs outside the lock: it may call back into
		// CaptureState, which takes the read lock
		if swapped && p.OnSwap != nil {
			p.OnSwap()
		}
	}()
}

// buildSafe runs one background build attempt with panic isolation.
// Injection point: "rebuild/background".
func buildSafe(factory func() Rebuildable, pts []geo.Point) (idx Rebuildable, err error) {
	defer func() {
		if pe := parallel.Recovered(recover()); pe != nil {
			idx, err = nil, pe
		}
	}()
	if err := faults.Hit("rebuild/background"); err != nil {
		return nil, err
	}
	newIdx := factory()
	if err := newIdx.Build(pts); err != nil {
		return nil, err
	}
	return newIdx, nil
}

// WaitRebuild blocks until no background rebuild is in flight. It
// returns immediately when none is.
func (p *Processor) WaitRebuild() {
	for {
		p.mu.RLock()
		rebuilding, done := p.rebuilding, p.rebuildDone
		p.mu.RUnlock()
		if !rebuilding {
			return
		}
		<-done
	}
}

// Rebuilding reports whether a background rebuild is in flight.
func (p *Processor) Rebuilding() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.rebuilding
}

// RebuildErr returns the error of the most recently completed
// background rebuild, if any (a failed rebuild keeps the old index
// serving and restores the frozen delta view).
func (p *Processor) RebuildErr() error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.rebuildErr
}

// Rebuilds returns how many full rebuilds have completed.
func (p *Processor) Rebuilds() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.rebuilds
}

// Len returns the current data set size.
func (p *Processor) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.pts)
}

// PointQuery answers a point query through the index and the delta
// view (results combined/filtered per Section IV-B2). During a
// background rebuild the overlay is newer than the frozen snapshot,
// so it is consulted first.
//
//elsi:noalloc
func (p *Processor) PointQuery(pt geo.Point) bool {
	p.Monitor.RecordPoint(pt)
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.pointLiveLocked(pt)
}

// pointLiveLocked reports whether pt is currently stored, layering the
// live overlay over the frozen view over the base index. Called with
// either lock held; Insert uses it to keep the stored points a set.
//
//elsi:noalloc
func (p *Processor) pointLiveLocked(pt geo.Point) bool {
	if p.deltaList.HasInserted(pt) {
		return true
	}
	if p.deltaList.IsDeleted(pt) {
		return false
	}
	if p.frozen != nil {
		if p.frozen.HasInserted(pt) {
			return true
		}
		if p.frozen.IsDeleted(pt) {
			return false
		}
	}
	return p.idx.PointQuery(pt)
}

// isDeletedLocked reports a pending deletion in either delta layer.
//
//elsi:noalloc
func (p *Processor) isDeletedLocked(pt geo.Point) bool {
	if p.deltaList.IsDeleted(pt) {
		return true
	}
	return p.frozen != nil && p.frozen.IsDeleted(pt)
}

// WindowQuery answers a window query, merging pending insertions and
// filtering pending deletions from both delta layers.
func (p *Processor) WindowQuery(win geo.Rect) []geo.Point {
	return p.WindowQueryAppend(win, nil)
}

// WindowQueryAppend is WindowQuery appending the answer to out under
// the same snapshot-consistent read lock; WindowQuery delegates here,
// so both entry points return identical results. The index's matches
// are written after len(out) and the deletion filter compacts only
// that tail, so a caller's existing prefix is never touched.
//
//elsi:noalloc
func (p *Processor) WindowQueryAppend(win geo.Rect, out []geo.Point) []geo.Point {
	p.Monitor.RecordWindow(win)
	p.mu.RLock()
	defer p.mu.RUnlock()
	base := len(out)
	out = index.AppendWindow(p.idx, win, out)
	if p.deltaList.Len() == 0 && p.frozen == nil {
		return out
	}
	filtered := out[:base]
	for _, pt := range out[base:] {
		if !p.isDeletedLocked(pt) {
			filtered = append(filtered, pt)
		}
	}
	out = filtered
	if p.frozen != nil {
		// frozen insertions may since have been deleted in the overlay
		out = p.frozen.InsertedWithinNotDeletedIn(win, &p.deltaList, out)
	}
	return p.deltaList.InsertedWithin(win, out)
}

// knnScratch holds the index candidate set and the delta-merged set of
// a kNN query; pooled so steady-state queries reuse one working set.
type knnScratch struct {
	cand   []geo.Point
	merged []geo.Point
}

var knnScratchPool = sync.Pool{New: func() interface{} { return new(knnScratch) }}

// KNN answers a kNN query over the combined state.
func (p *Processor) KNN(q geo.Point, k int) []geo.Point {
	return p.KNNAppend(q, k, nil)
}

// KNNAppend is KNN appending the answer to out; KNN delegates here, so
// both entry points return identical results.
//
// The candidate fetch from the base index is widened by the number of
// pending deletions in both delta layers: fetching exactly k and then
// filtering would silently drop the true k-th neighbor whenever any of
// the base index's k nearest is pending deletion (it ranks k+1..k+d in
// the base order). An escalation loop covers the residual case where
// even the widened fetch loses too many candidates (e.g. duplicate
// points sharing one deletion filter): it doubles the fetch until k
// survivors are found or the index is exhausted.
//
//elsi:noalloc
func (p *Processor) KNNAppend(q geo.Point, k int, out []geo.Point) []geo.Point {
	p.Monitor.RecordKNN(q, k)
	p.mu.RLock()
	defer p.mu.RUnlock()
	s := knnScratchPool.Get().(*knnScratch)
	defer knnScratchPool.Put(s)
	if p.deltaList.Len() == 0 && p.frozen == nil {
		s.cand = index.AppendKNN(p.idx, q, k, s.cand[:0])
		return append(out, s.cand...)
	}
	need := k
	if k > 0 {
		need += p.deltaList.Deletions()
		if p.frozen != nil {
			need += p.frozen.Deletions()
		}
	}
	merged := s.merged[:0]
	for {
		s.cand = index.AppendKNN(p.idx, q, need, s.cand[:0])
		merged = merged[:0]
		for _, pt := range s.cand {
			if !p.isDeletedLocked(pt) {
				merged = append(merged, pt)
			}
		}
		// done when k base survivors were found or the index has no
		// further candidates to offer (it returned fewer than asked)
		if len(merged) >= k || len(s.cand) < need {
			break
		}
		need *= 2
	}
	if p.frozen != nil {
		merged = p.frozen.InsertedNotDeletedIn(&p.deltaList, merged)
	}
	merged = p.deltaList.AppendInserted(merged)
	s.merged = merged
	return index.KNNScanAppend(merged, q, k, out)
}

// Index exposes the wrapped index. During a background rebuild this is
// the old index still serving queries; the swapped-in index becomes
// visible once WaitRebuild returns.
func (p *Processor) Index() Rebuildable {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.idx
}

// PendingUpdates returns the delta size across both layers (the live
// overlay plus, during a rebuild, the frozen view being folded in).
func (p *Processor) PendingUpdates() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := p.deltaList.Len()
	if p.frozen != nil {
		n += p.frozen.Len()
	}
	return n
}
