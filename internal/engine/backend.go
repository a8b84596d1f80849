package engine

import (
	"sync/atomic"

	"elsi/internal/base"
	"elsi/internal/core"
	"elsi/internal/geo"
	"elsi/internal/monitor"
	"elsi/internal/qserve"
	"elsi/internal/rebuild"
)

// Backend is the storage side of the engine: the batched query surface
// plus updates and a stats snapshot. The engine's accumulators flush
// into it; transports never see it directly. Two implementations
// exist — Single (one rebuild.Processor behind a qserve batch engine)
// and the sharded router in internal/shard, which scatters each batch
// across many processors. Batch methods must write answer i at input
// position i so the engine's waiters can pick their results by enqueue
// index, and must be safe for concurrent use.
type Backend interface {
	PointBatch(pts []geo.Point, out []bool) []bool
	WindowBatch(wins []geo.Rect, out [][]geo.Point) [][]geo.Point
	KNNVarBatch(qs []geo.Point, ks []int, out [][]geo.Point) [][]geo.Point
	// Insert and Delete report whether the update triggered a rebuild
	// (on any shard).
	Insert(p geo.Point) bool
	Delete(p geo.Point) bool
	// PointGen returns the update generation of the processor that owns
	// p's location, and GlobalGen a monotone aggregate over all owned
	// processors (equal values ⟺ no visible mutation in between). The
	// result cache stamps entries with them; see rebuild.UpdateGen for
	// the protocol. Both must be cheap, lock-free, and allocation-free.
	PointGen(p geo.Point) uint64
	GlobalGen() uint64
	BackendStats() BackendStats
}

// ShardStats describes one processor behind a backend: its data and
// rebuild state plus the traffic the backend routed to it. A single
// backend reports exactly one entry; the sharded router reports one
// per shard, where the query counters expose the scatter behaviour —
// WindowQueries counts the window scatters that visited the shard and
// WindowsPruned the ones the Hilbert-range overlap test skipped, and
// likewise for kNN and its MINDIST bound.
type ShardStats struct {
	// KeyLo and KeyHi are the shard's Hilbert key range under the
	// router's partitioning; absent for a single backend.
	KeyLo uint64 `json:",omitempty"`
	KeyHi uint64 `json:",omitempty"`

	Len                 int
	PendingUpdates      int
	Rebuilding          bool
	Rebuilds            int
	RebuildFailures     int
	RebuildRetries      int
	ConsecutiveFailures int
	BreakerOpen         bool

	PointQueries  int64
	WindowQueries int64
	KNNQueries    int64
	Inserts       int64
	Deletes       int64
	WindowsPruned int64
	KNNsPruned    int64

	BuildStats []base.BuildStats `json:",omitempty"`

	// Monitor is the shard's live workload snapshot, present when a
	// monitor.Stats is installed on the processor. Note it observes the
	// traffic that reaches the index — with the result cache on, cache
	// hits are answered above it by design (the index should be tuned
	// for the queries it actually serves).
	Monitor *monitor.Snapshot `json:",omitempty"`
	// Workload is the adopted per-shard profile driving method
	// re-selection, when the adapter has one; WorkloadSampled and
	// WorkloadApplied count its resamples and adoptions.
	Workload        *core.WorkloadProfile `json:",omitempty"`
	WorkloadSampled int                   `json:",omitempty"`
	WorkloadApplied int                   `json:",omitempty"`
}

// ProcStats fills the processor-derived fields of a ShardStats; the
// caller adds its own routing counters on top.
func ProcStats(p *rebuild.Processor) ShardStats {
	st := ShardStats{
		Len:                 p.Len(),
		PendingUpdates:      p.PendingUpdates(),
		Rebuilding:          p.Rebuilding(),
		Rebuilds:            p.Rebuilds(),
		RebuildFailures:     p.Failures(),
		RebuildRetries:      p.Retries(),
		ConsecutiveFailures: p.ConsecutiveFailures(),
		BreakerOpen:         p.BreakerOpen(),
	}
	if bs, ok := p.Index().(interface{ Stats() []base.BuildStats }); ok {
		st.BuildStats = bs.Stats()
	}
	if p.Monitor != nil {
		snap := p.Monitor.Snapshot()
		st.Monitor = &snap
	}
	if p.Workload != nil {
		st.WorkloadSampled, st.WorkloadApplied = p.Workload.Counts()
		if prof := p.Workload.Current(); prof.Derived {
			st.Workload = &prof
		}
	}
	return st
}

// BackendStats is the backend half of the engine's Stats snapshot: the
// per-shard breakdown plus aggregates over it. Counter-like fields sum
// across shards; Rebuilding and BreakerOpen report whether any shard
// is in that state; ConsecutiveFailures is the worst shard's streak.
type BackendStats struct {
	Len                 int
	PendingUpdates      int
	Rebuilding          bool
	Rebuilds            int
	RebuildFailures     int
	RebuildRetries      int
	ConsecutiveFailures int
	BreakerOpen         bool

	BuildStats []base.BuildStats `json:",omitempty"`
	Shards     []ShardStats      `json:",omitempty"`
}

// AggregateShards folds per-shard stats into a BackendStats, keeping
// the breakdown attached. With exactly one shard the aggregate also
// adopts its BuildStats (the flat legacy shape of /stats); with many,
// build stats stay per-shard.
func AggregateShards(shards []ShardStats) BackendStats {
	bs := BackendStats{Shards: shards}
	for i := range shards {
		s := &shards[i]
		bs.Len += s.Len
		bs.PendingUpdates += s.PendingUpdates
		bs.Rebuilding = bs.Rebuilding || s.Rebuilding
		bs.Rebuilds += s.Rebuilds
		bs.RebuildFailures += s.RebuildFailures
		bs.RebuildRetries += s.RebuildRetries
		if s.ConsecutiveFailures > bs.ConsecutiveFailures {
			bs.ConsecutiveFailures = s.ConsecutiveFailures
		}
		bs.BreakerOpen = bs.BreakerOpen || s.BreakerOpen
	}
	if len(shards) == 1 {
		bs.BuildStats = shards[0].BuildStats
	}
	return bs
}

// opCounters tracks the per-shard traffic a backend routed somewhere.
type opCounters struct {
	points, windows, knns  atomic.Int64
	inserts, deletes       atomic.Int64
	windowSkips, knnsSkips atomic.Int64
}

//elsi:noalloc
func (c *opCounters) fill(st *ShardStats) {
	st.PointQueries = c.points.Load()
	st.WindowQueries = c.windows.Load()
	st.KNNQueries = c.knns.Load()
	st.Inserts = c.inserts.Load()
	st.Deletes = c.deletes.Load()
	st.WindowsPruned = c.windowSkips.Load()
	st.KNNsPruned = c.knnsSkips.Load()
}

// Single is the unsharded backend: one rebuild.Processor served
// through a qserve batch engine. New wires it by default.
type Single struct {
	proc *rebuild.Processor
	qe   *qserve.Engine
	c    opCounters
}

// NewSingle wraps proc with the given qserve worker bound
// (0 = GOMAXPROCS, 1 = serial).
func NewSingle(proc *rebuild.Processor, workers int) *Single {
	return &Single{proc: proc, qe: qserve.New(proc, workers)}
}

// Processor exposes the wrapped update processor.
func (s *Single) Processor() *rebuild.Processor { return s.proc }

func (s *Single) PointBatch(pts []geo.Point, out []bool) []bool {
	s.c.points.Add(int64(len(pts)))
	return s.qe.PointBatch(pts, out)
}

func (s *Single) WindowBatch(wins []geo.Rect, out [][]geo.Point) [][]geo.Point {
	s.c.windows.Add(int64(len(wins)))
	return s.qe.WindowBatch(wins, out)
}

func (s *Single) KNNVarBatch(qs []geo.Point, ks []int, out [][]geo.Point) [][]geo.Point {
	s.c.knns.Add(int64(len(qs)))
	return s.qe.KNNVarBatch(qs, ks, out)
}

func (s *Single) Insert(p geo.Point) bool {
	s.c.inserts.Add(1)
	return s.proc.Insert(p)
}

func (s *Single) Delete(p geo.Point) bool {
	s.c.deletes.Add(1)
	return s.proc.Delete(p)
}

// PointGen implements Backend: one processor owns everything.
//
//elsi:noalloc
func (s *Single) PointGen(geo.Point) uint64 { return s.proc.UpdateGen() }

// GlobalGen implements Backend.
//
//elsi:noalloc
func (s *Single) GlobalGen() uint64 { return s.proc.UpdateGen() }

func (s *Single) BackendStats() BackendStats {
	st := ProcStats(s.proc)
	s.c.fill(&st)
	return AggregateShards([]ShardStats{st})
}
