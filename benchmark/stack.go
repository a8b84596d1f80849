package main

// stack.go is the only file of the benchmark that imports the serving
// stack's internal packages (everything but client, dataset, geo). It
// stands the stack up in-process exactly as cmd/elsid.buildBackend does
// — the wiring below is a copy of it, kept honest by the test that
// compares this stack's answers with an elsid child's byte for byte —
// and exposes each boundary as a target, with decorators at the three
// seams the code already has: the index behind Processor.Factory, the
// engine.Backend behind engine.NewWithBackend, and the client call.
// When the internal API is collapsed (ROADMAP item 3), this file is the
// one that changes.

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"elsi/internal/base"
	"elsi/internal/core"
	"elsi/internal/engine"
	"elsi/internal/geo"
	"elsi/internal/monitor"
	"elsi/internal/persist"
	"elsi/internal/protocol"
	"elsi/internal/qcache"
	"elsi/internal/rebuild"
	"elsi/internal/rmi"
	"elsi/internal/scorer"
	"elsi/internal/server"
	"elsi/internal/shard"
	"elsi/internal/snapshot"
	"elsi/internal/wal"
	"elsi/internal/zm"
)

// libEpochs fixes the FFN training length of lib_elsi's index models,
// so set-up time measures the build pipeline and not an early stop.
const libEpochs = 40

// errSkipped marks a request a boundary cannot take (the bare index has
// no insert). The driver neither counts nor samples it.
var errSkipped = errors.New("benchmark: operation not offered at this boundary")

// family is what elsid derives from its flags before it builds a
// backend: the trained rebuild predictor, the index factory and its key
// map, and the per-processor configuration.
type family struct {
	w    workload
	pred *rebuild.Predictor
	sc   *scorer.Scorer // -adaptive and lib_elsi
	wrap func(*zm.Index) rebuild.Rebuildable
	// builder builds the index models: elsid's piecewise trainer, or for
	// lib_elsi — as its definition says — a core.System with the learned
	// selector over an FFN trainer.
	builder base.ModelBuilder

	// mu guards systems: persist.Open configures shards in parallel.
	mu sync.Mutex
	// systems are the ELSI build systems behind the indexes: one for
	// lib_elsi, one per processor with -adaptive, none otherwise.
	systems []*core.System
}

// newFamily mirrors the head of cmd/elsid.buildBackend. wrap, when
// non-nil, decorates every index the factory makes (the first seam).
func newFamily(w workload, wrap func(*zm.Index) rebuild.Rebuildable) (*family, error) {
	const seed = dataSeed // elsid's one -seed flag
	pred, err := rebuild.TrainPredictor(
		rebuild.HeuristicSamples(rand.New(rand.NewSource(seed)), 1000),
		rebuild.PredictorConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	if wrap == nil {
		wrap = func(ix *zm.Index) rebuild.Rebuildable { return ix }
	}
	f := &family{w: w, pred: pred, wrap: wrap, builder: &base.Direct{Trainer: rmi.PiecewiseTrainer(1.0 / 256)}}
	if w.Lib || w.Adaptive {
		if f.sc, err = scorer.Train(scorer.HeuristicSamples(), scorer.Config{Seed: seed}); err != nil {
			return nil, err
		}
	}
	if w.Lib {
		sys, err := core.NewSystem(core.Config{
			Trainer:  rmi.FFNTrainer(rmi.FFNConfig{Hidden: 16, Epochs: libEpochs, Seed: seed}),
			Selector: core.SelectorLearned,
			Scorer:   f.sc,
			Seed:     seed,
		})
		if err != nil {
			return nil, err
		}
		f.systems = append(f.systems, sys)
		f.builder = sys
	}
	return f, nil
}

// plain is the same family with undecorated indexes, sharing the
// trained predictor and scorer.
func (f *family) plain() *family {
	return &family{w: f.w, pred: f.pred, sc: f.sc, builder: f.builder,
		wrap: func(ix *zm.Index) rebuild.Rebuildable { return ix }}
}

func newZM(b base.ModelBuilder) *zm.Index {
	return zm.New(zm.Config{Space: geo.UnitRect, Builder: b, Fanout: 8})
}

func (f *family) factory() rebuild.Rebuildable { return f.wrap(newZM(f.builder)) }

// mapKey is ZM's Z-order key map. It depends on the space alone, so one
// unbuilt index serves every family.
func (f *family) mapKey(p geo.Point) float64 { return keyMapper.MapKey(p) }

var keyMapper = newZM(nil)

// configure is elsid's per-processor set-up: the retry policy and,
// with -adaptive, a workload monitor feeding the shard's own System.
func (f *family) configure(p *rebuild.Processor) {
	p.Retry = &rebuild.RetryPolicy{}
	if !f.w.Adaptive {
		return
	}
	sys, err := core.NewSystem(core.Config{
		Trainer:  rmi.PiecewiseTrainer(1.0 / 256),
		Selector: core.SelectorLearned,
		Scorer:   f.sc,
	})
	if err != nil {
		return // elsid logs this and leaves the shard static
	}
	f.mu.Lock()
	f.systems = append(f.systems, sys)
	f.mu.Unlock()
	mon := monitor.New(geo.UnitRect)
	p.Monitor = mon
	p.Workload = &rebuild.WorkloadAdapter{Mon: mon, Sys: sys}
	p.Factory = func() rebuild.Rebuildable { return f.wrap(newZM(sys)) }
}

// fu is elsid's predictor check frequency for a workload: the -fu flag,
// n/10 when unset, divided across the shards.
func (w workload) fu() int {
	fu := w.Fu
	if fu <= 0 {
		fu = w.N / 10
	}
	if w.Shards > 1 {
		fu = max(1, fu/w.Shards)
	}
	return fu
}

// makeProcessor is elsid's mk closure.
func (f *family) makeProcessor(fu int) shard.MakeProcessor {
	return func(pts []geo.Point) (*rebuild.Processor, error) {
		proc, err := rebuild.NewProcessor(f.factory(), f.pred, pts, f.mapKey, fu)
		if err != nil {
			return nil, err
		}
		proc.Factory = f.factory
		f.configure(proc)
		return proc, nil
	}
}

// persistConfig is elsid's durable configuration under -fsync
// durableFsync.
func (f *family) persistConfig(dir string) (persist.Config, error) {
	w := f.w
	pol, interval, err := wal.ParsePolicy(durableFsync)
	return persist.Config{
		Dir:       dir,
		WAL:       wal.Options{Policy: pol, Interval: interval},
		Shards:    w.Shards,
		Space:     geo.UnitRect,
		Factory:   f.factory,
		MapKey:    f.mapKey,
		Pred:      f.pred,
		Fu:        w.fu(),
		Configure: f.configure,
	}, err
}

// newBackend mirrors the tail of cmd/elsid.buildBackend: a durable
// store when the workload has a data directory, one processor behind
// engine.Single for one shard, the Hilbert router otherwise.
func (f *family) newBackend(pts []geo.Point, dataDir string) (engine.Backend, error) {
	w := f.w
	if w.Durable {
		cfg, err := f.persistConfig(dataDir)
		if err != nil {
			return nil, err
		}
		return persist.Create(cfg, pts)
	}
	mk := f.makeProcessor(w.fu())
	if w.Shards <= 1 {
		proc, err := mk(pts)
		if err != nil {
			return nil, err
		}
		return engine.NewSingle(proc, 0), nil
	}
	return shard.New(pts, geo.UnitRect, shard.Config{Shards: w.Shards}, mk)
}

// engineConfig is elsid's engine configuration: all defaults, plus the
// result cache when the workload asks for it.
func engineConfig(w workload) engine.Config {
	var cfg engine.Config
	if w.Cache {
		cfg.Cache = &qcache.Config{}
	}
	return cfg
}

// --- boundaries as targets ------------------------------------------------

// indexTarget is the bare learned index: reads only.
type indexTarget struct{ ix rebuild.Rebuildable }

func (t indexTarget) PointQuery(p geo.Point) (bool, error) { return t.ix.PointQuery(p), nil }
func (t indexTarget) WindowQuery(w geo.Rect) ([]geo.Point, error) {
	return t.ix.WindowQuery(w), nil
}
func (t indexTarget) KNN(q geo.Point, k int) ([]geo.Point, error) { return t.ix.KNN(q, k), nil }
func (t indexTarget) Insert(geo.Point) (bool, error)              { return false, errSkipped }
func (t indexTarget) Delete(geo.Point) (bool, error)              { return false, errSkipped }

// procTarget is the update processor: lock, delta overlay, monitor.
type procTarget struct{ p *rebuild.Processor }

func (t procTarget) PointQuery(p geo.Point) (bool, error) { return t.p.PointQuery(p), nil }
func (t procTarget) WindowQuery(w geo.Rect) ([]geo.Point, error) {
	return t.p.WindowQuery(w), nil
}
func (t procTarget) KNN(q geo.Point, k int) ([]geo.Point, error) { return t.p.KNN(q, k), nil }
func (t procTarget) Insert(p geo.Point) (bool, error)            { return t.p.Insert(p), nil }
func (t procTarget) Delete(p geo.Point) (bool, error)            { return t.p.Delete(p), nil }

// backendTarget calls an engine.Backend the way the engine's
// accumulator does when a batch holds one query.
type backendTarget struct{ be engine.Backend }

func (t backendTarget) PointQuery(p geo.Point) (bool, error) {
	return t.be.PointBatch([]geo.Point{p}, nil)[0], nil
}
func (t backendTarget) WindowQuery(w geo.Rect) ([]geo.Point, error) {
	return t.be.WindowBatch([]geo.Rect{w}, nil)[0], nil
}
func (t backendTarget) KNN(q geo.Point, k int) ([]geo.Point, error) {
	return t.be.KNNVarBatch([]geo.Point{q}, []int{k}, nil)[0], nil
}
func (t backendTarget) Insert(p geo.Point) (bool, error) { return t.be.Insert(p), nil }
func (t backendTarget) Delete(p geo.Point) (bool, error) { return t.be.Delete(p), nil }

// newLibTarget builds lib_elsi's system: ZM over the corpus through
// core.System, wrapped in the update processor. Its cost is the paper's
// ELSI build time.
func newLibTarget(c *corpus) (target, error) {
	f, err := newFamily(c.W, nil)
	if err != nil {
		return nil, err
	}
	proc, err := f.makeProcessor(c.W.fu())(c.Pts)
	if err != nil {
		return nil, err
	}
	return procTarget{proc}, nil
}

// --- seam decorators ------------------------------------------------------

// tracedIndex decorates the index a Factory returns. It forwards the
// optional interfaces the processor and the persistence layer look for
// (append forms, build statistics, snapshot state), so the decorated
// stack takes the same code paths as the plain one.
type tracedIndex struct {
	*zm.Index
	tr *tracer
}

var (
	_ rebuild.Rebuildable = tracedIndex{}
	_ snapshot.Stater     = tracedIndex{}
)

func (t tracedIndex) Build(pts []geo.Point) error {
	t0 := time.Now()
	err := t.Index.Build(pts)
	t.tr.event("index.build", t0, time.Now(), len(pts))
	return err
}

func (t tracedIndex) StateAppend(b []byte) ([]byte, error) {
	t.tr.event("index.state", time.Now(), time.Time{}, 0)
	return t.Index.StateAppend(b)
}

func (t tracedIndex) PointQuery(p geo.Point) bool {
	if !t.tr.on.Load() {
		return t.Index.PointQuery(p)
	}
	t0 := time.Now()
	v := t.Index.PointQuery(p)
	t.tr.child("index.point", pointKey(p), t0, time.Now(), 1)
	return v
}

func (t tracedIndex) WindowQuery(w geo.Rect) []geo.Point { return t.WindowQueryAppend(w, nil) }

func (t tracedIndex) WindowQueryAppend(w geo.Rect, out []geo.Point) []geo.Point {
	if !t.tr.on.Load() {
		return t.Index.WindowQueryAppend(w, out)
	}
	t0 := time.Now()
	out = t.Index.WindowQueryAppend(w, out)
	t.tr.child("index.window", windowKey(w), t0, time.Now(), 1)
	return out
}

func (t tracedIndex) KNN(q geo.Point, k int) []geo.Point { return t.KNNAppend(q, k, nil) }

func (t tracedIndex) KNNAppend(q geo.Point, k int, out []geo.Point) []geo.Point {
	if !t.tr.on.Load() {
		return t.Index.KNNAppend(q, k, out)
	}
	t0 := time.Now()
	out = t.Index.KNNAppend(q, k, out)
	t.tr.child("index.knn", pointKey(q), t0, time.Now(), 1)
	return out
}

// tracedBackend decorates the engine.Backend seam: one span per query
// of a batch (they share the batch's interval and carry its size), one
// per update.
type tracedBackend struct {
	engine.Backend
	tr *tracer
}

func (t tracedBackend) PointBatch(pts []geo.Point, out []bool) []bool {
	if !t.tr.on.Load() {
		return t.Backend.PointBatch(pts, out)
	}
	t0 := time.Now()
	out = t.Backend.PointBatch(pts, out)
	t1 := time.Now()
	for _, p := range pts {
		t.tr.child("backend.point", pointKey(p), t0, t1, len(pts))
	}
	return out
}

func (t tracedBackend) WindowBatch(wins []geo.Rect, out [][]geo.Point) [][]geo.Point {
	if !t.tr.on.Load() {
		return t.Backend.WindowBatch(wins, out)
	}
	t0 := time.Now()
	out = t.Backend.WindowBatch(wins, out)
	t1 := time.Now()
	for _, w := range wins {
		t.tr.child("backend.window", windowKey(w), t0, t1, len(wins))
	}
	return out
}

func (t tracedBackend) KNNVarBatch(qs []geo.Point, ks []int, out [][]geo.Point) [][]geo.Point {
	if !t.tr.on.Load() {
		return t.Backend.KNNVarBatch(qs, ks, out)
	}
	t0 := time.Now()
	out = t.Backend.KNNVarBatch(qs, ks, out)
	t1 := time.Now()
	for _, q := range qs {
		t.tr.child("backend.knn", pointKey(q), t0, t1, len(qs))
	}
	return out
}

func (t tracedBackend) Insert(p geo.Point) bool {
	if !t.tr.on.Load() {
		return t.Backend.Insert(p)
	}
	t0 := time.Now()
	v := t.Backend.Insert(p)
	t.tr.child("backend.insert", pointKey(p), t0, time.Now(), 1)
	return v
}

func (t tracedBackend) Delete(p geo.Point) bool {
	if !t.tr.on.Load() {
		return t.Backend.Delete(p)
	}
	t0 := time.Now()
	v := t.Backend.Delete(p)
	t.tr.child("backend.delete", pointKey(p), t0, time.Now(), 1)
	return v
}

// --- the in-process stack -------------------------------------------------

// stack is every boundary of one workload's deployment, bottom to top.
// index and proc are standalone copies over the whole data set (inside
// a sharded backend there is one of each per shard); backend, engine
// and the loopback server are the deployment itself.
type stack struct {
	w   workload
	fam *family
	tr  *tracer

	index   *zm.Index
	buildMS float64
	proc    *rebuild.Processor
	router  *shard.Router // durable only: the same shards without persistence
	backend engine.Backend
	store   *persist.Store // durable only
	dataDir string
	eng     *engine.Engine
	srv     *server.Server
}

func newStack(ctx context.Context, c *corpus, tr *tracer, tmp string) (*stack, error) {
	w := c.W
	fam, err := newFamily(w, func(ix *zm.Index) rebuild.Rebuildable { return tracedIndex{ix, tr} })
	if err != nil {
		return nil, err
	}
	s := &stack{w: w, fam: fam, tr: tr}

	// the standalone rungs are undecorated, except where the processor
	// is the top boundary
	plain := fam.plain()
	s.index = newZM(plain.builder)
	t0 := time.Now()
	if err := s.index.Build(c.Pts); err != nil {
		return nil, err
	}
	s.buildMS = float64(time.Since(t0)) / float64(time.Millisecond)
	if w.Lib {
		s.proc, err = fam.makeProcessor(w.fu())(c.Pts)
		return s, err
	}
	mk := plain.makeProcessor(w.fu())
	if s.proc, err = mk(c.Pts); err != nil {
		return nil, err
	}
	if w.Durable {
		s.dataDir = filepath.Join(tmp, "data")
		if s.router, err = shard.New(c.Pts, geo.UnitRect, shard.Config{Shards: w.Shards}, mk); err != nil {
			return nil, err
		}
	}
	if s.backend, err = fam.newBackend(c.Pts, s.dataDir); err != nil {
		return nil, err
	}
	s.store, _ = s.backend.(*persist.Store)
	s.eng = engine.NewWithBackend(tracedBackend{s.backend, tr}, nil, engineConfig(w))
	s.srv = server.New(s.eng)
	if err := s.srv.Start(ctx, "", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	return s, nil
}

// close drains the server and engine and settles the backends.
func (s *stack) close() error {
	var first error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		first = s.srv.Shutdown(ctx)
		cancel()
	}
	s.proc.Quiesce()
	if s.router != nil {
		s.router.Quiesce()
	}
	switch be := s.backend.(type) {
	case *persist.Store:
		be.Kill()
	case *shard.Router:
		be.Quiesce()
	case *engine.Single:
		be.Processor().Quiesce()
	}
	return first
}

// recover reopens the killed store and reports persist's own recovery
// time: snapshot load plus WAL tail replay, no model training.
func (s *stack) recover() (float64, error) {
	cfg, err := s.fam.persistConfig(s.dataDir)
	if err != nil {
		return 0, err
	}
	st, err := persist.Open(cfg)
	if err != nil {
		return 0, err
	}
	ms := float64(st.Recovery().Total) / float64(time.Millisecond)
	st.Kill()
	return ms, nil
}

// resetIndexCounters zeroes the bare index's model-call and scan counts.
func (s *stack) resetIndexCounters() { s.index.ResetCounters() }

// indexCounters reads the bare index's own counts after its rung — work
// counted where it happens — and the cost decomposition of its build.
func (s *stack) indexCounters(into map[string]float64, reads, results int) {
	into["zm.model_calls_per_op"] = float64(s.index.ModelInvocations()) / float64(max(1, reads))
	into["zm.scanned_per_result"] = float64(s.index.Scanned()) / float64(max(1, results))
	var reduce, train, bounds time.Duration
	into["core.fallbacks"] = 0
	for _, bs := range s.index.Stats() {
		reduce += bs.ReduceTime
		train += bs.TrainTime
		bounds += bs.BoundsTime
		into["core.fallbacks"] += float64(bs.Fallbacks)
	}
	into["core.build_ms"] = s.buildMS
	into["rmi.train_ms"] = float64(reduce+train) / float64(time.Millisecond)
	into["rmi.bounds_ms"] = float64(bounds) / float64(time.Millisecond)
}

// servingCounters reads the deployment's counters once its rungs are
// done: selector fallbacks, engine batching, cache and shard scatter.
func (s *stack) servingCounters(into map[string]float64) {
	s.fam.mu.Lock()
	for _, sys := range s.fam.systems {
		for _, n := range sys.Fallbacks() {
			into["core.fallbacks"] += float64(n)
		}
	}
	s.fam.mu.Unlock()
	if s.eng == nil {
		return
	}
	st := s.eng.Stats()
	if st.Batches > 0 {
		into["engine.batch_size_mean"] = float64(st.BatchedQueries) / float64(st.Batches)
		into["engine.flush_timer_ratio"] = float64(st.FlushByTimer) / float64(st.Batches)
	}
	if all := st.PointQueries + st.WindowQueries + st.KNNQueries + st.Inserts + st.Deletes + st.Overloads; all > 0 {
		into["engine.overload_ratio"] = float64(st.Overloads) / float64(all)
	}
	if st.Cache != nil {
		into["qcache.hit_ratio"] = st.Cache.HitRate
		into["qcache.evictions"] = float64(st.Cache.Evictions)
	}
	if len(st.Shards) > 1 {
		// a routed window is visited or pruned once per shard, so the
		// visited share times the shard count is its fan-out; cache hits
		// never reach the router and are not in these counts
		var winVisited, winPruned, visited, pruned int64
		for _, sh := range st.Shards {
			winVisited += sh.WindowQueries
			winPruned += sh.WindowsPruned
			visited += sh.WindowQueries + sh.KNNQueries
			pruned += sh.WindowsPruned + sh.KNNsPruned
		}
		if winVisited+winPruned > 0 {
			into["shard.window_fanout"] = float64(winVisited) / float64(winVisited+winPruned) * float64(len(st.Shards))
		}
		if visited+pruned > 0 {
			into["shard.pruned_ratio"] = float64(pruned) / float64(visited+pruned)
		}
	}
}

// pendingUpdates and rebuilds poll the deployment's backend.
func (s *stack) backendState() (pending, rebuilds int) {
	if s.backend == nil {
		return s.proc.PendingUpdates(), s.proc.Rebuilds()
	}
	bs := s.backend.BackendStats()
	return bs.PendingUpdates, bs.Rebuilds
}

// --- isolated layer probes ------------------------------------------------

// allocsPerOp replays ops against the bare index on one goroutine and
// divides the runtime's allocation count by the number of reads.
func (s *stack) allocsPerOp(ops []op) float64 {
	t := indexTarget{s.index}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	reads := 0
	for _, o := range ops {
		if _, err := execOp(t, o); err == nil {
			reads++
		}
	}
	runtime.ReadMemStats(&after)
	if reads == 0 {
		return 0
	}
	return float64(after.Mallocs-before.Mallocs) / float64(reads)
}

// reply is what the server would encode for an answer.
func reply(o op, got []geo.Point) protocol.Response {
	switch o.Kind {
	case opWindow, opKNN:
		return protocol.Response{Status: protocol.StatusOK, Kind: protocol.KindPoints, Points: got}
	case opPoint:
		return protocol.Response{Status: protocol.StatusOK, Kind: protocol.KindBool, Bool: o.Want == 1}
	}
	return protocol.Response{Status: protocol.StatusOK, Kind: protocol.KindBool}
}

func request(o op) protocol.Request {
	ops := [numKinds]byte{protocol.OpPoint, protocol.OpWindow, protocol.OpKNN, protocol.OpInsert, protocol.OpDelete}
	return protocol.Request{Op: ops[o.Kind], Pt: o.Pt, Win: o.Win, K: o.K}
}

// wire is a recorded exchange: the frames one request and its answer
// make on the socket.
type wire struct{ req, resp []byte }

func encodeWire(o op, got []geo.Point) wire {
	return wire{protocol.AppendRequest(nil, request(o)), protocol.AppendResponse(nil, reply(o, got))}
}

// codecCosts times the protocol codec alone over recorded exchanges:
// request encode and response decode are the client's share of every
// operation (the server does the mirror image).
func codecCosts(ws []wire, into map[string]float64) error {
	if len(ws) == 0 {
		return nil
	}
	reqs := make([]protocol.Request, len(ws))
	for i, w := range ws {
		r, err := protocol.DecodeRequest(w.req)
		if err != nil {
			return err
		}
		reqs[i] = r
	}
	const rounds = 20
	var buf []byte
	var bytes int
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, q := range reqs {
			buf = protocol.AppendRequest(buf[:0], q)
		}
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, w := range ws {
			if _, err := protocol.DecodeResponse(w.resp); err != nil {
				return err
			}
		}
	}
	dec := time.Since(t0)
	for _, w := range ws {
		bytes += 4 + len(w.resp)
	}
	n := float64(rounds * len(ws))
	into["protocol.req_encode_ns"] = float64(enc) / n
	into["protocol.resp_decode_ns"] = float64(dec) / n
	into["protocol.resp_bytes_per_op"] = float64(bytes) / float64(len(ws))
	return nil
}

// loopbackRTT sends the recorded frames to a responder that only
// echoes the recorded answers: the cost of the generator, the socket
// and the framing with no server behind them — the floor under
// transport.self_us.
func loopbackRTT(ws []wire, dur time.Duration) (float64, error) {
	if len(ws) == 0 {
		return 0, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		for i := 0; ; i++ {
			if _, err := protocol.ReadFrame(conn); err != nil {
				served <- nil // the client hung up
				return
			}
			if err := protocol.WriteFrame(conn, ws[i%len(ws)].resp); err != nil {
				served <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return 0, err
	}
	var lats []time.Duration
	for i, end := 0, time.Now().Add(dur); time.Now().Before(end); i++ {
		t0 := time.Now()
		if err := protocol.WriteFrame(conn, ws[i%len(ws)].req); err != nil {
			conn.Close()
			return 0, err
		}
		if _, err := protocol.ReadFrame(conn); err != nil {
			conn.Close()
			return 0, err
		}
		lats = append(lats, time.Since(t0))
	}
	conn.Close()
	if err := <-served; err != nil {
		return 0, err
	}
	return quantile(durationsUS(lats), 0.5), nil
}

// walAppend times wal.Log.Append alone, on one goroutine, under
// SyncAlways: not the group commit durable_drift runs with (see
// durableFsync) but elsid's default, so the flush that the workload
// keeps off its latency path is still timed by one metric.
func walAppend(dir string, pts []geo.Point, dur time.Duration, into map[string]float64) error {
	log, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways}, 1, 1, nil)
	if err != nil {
		return err
	}
	var lats []time.Duration
	for i, end := 0, time.Now().Add(dur); time.Now().Before(end); i++ {
		t0 := time.Now()
		if _, err := log.Append(wal.OpInsert, pts[i%len(pts)]); err != nil {
			log.Close()
			return err
		}
		lats = append(lats, time.Since(t0))
	}
	if err := log.Close(); err != nil {
		return err
	}
	var size int64
	segs, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range segs {
		if info, err := e.Info(); err == nil {
			size += info.Size()
		}
	}
	into["wal.append_us"] = quantile(durationsUS(lats), 0.5)
	into["wal.bytes_per_record"] = float64(size) / float64(len(lats))
	return nil
}

// cacheGet times a result-cache hit alone, on a cache as full as the
// workload's hot set.
func cacheGet(pts []geo.Point) float64 {
	c := qcache.New(qcache.Config{})
	n := min(hotSpots, len(pts))
	for _, p := range pts[:n] {
		c.PutPoint(qcache.PointKey(p), 1, true)
	}
	const rounds = 50
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, p := range pts[:n] {
			c.GetPoint(qcache.PointKey(p), 1)
		}
	}
	return float64(time.Since(t0)) / float64(rounds*n)
}

// snapshotFiles lists the store's snapshot files, for the watcher that
// times swap-triggered snapshots from outside.
func snapshotFiles(dataDir string) map[string]bool {
	names, _ := filepath.Glob(filepath.Join(dataDir, "shard-*", "snap-*.snap"))
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

func sameTarget(t target, n int) []target {
	ts := make([]target, n)
	for i := range ts {
		ts[i] = t
	}
	return ts
}
