// Package persist is the durability layer: it wraps the sharded
// router (internal/shard) with one write-ahead log and one snapshot
// chain per shard, so an engine restart is an IO problem instead of a
// retraining problem. Updates are logged before they are applied —
// under wal.SyncAlways an acknowledged update is a durable update —
// and every background rebuild swap triggers a snapshot of the
// freshly trained index, after which the covered WAL prefix is
// trimmed. Recovery loads the latest snapshot per shard and replays
// the WAL tail through the processor's replay path, which never
// trains a model.
//
// On disk a store is
//
//	dir/
//	  MANIFEST            versioned container: family, space, ranges
//	  shard-0000/
//	    snap-<lsn>.snap   index state + processor state at cut LSN
//	    wal/wal-*.seg     updates after the cut
//	  shard-0001/
//	    ...
//
// The MANIFEST pins the Hilbert key-range partition so a recovered
// router scatters queries exactly as the original did; shard
// directories are independent, so recovery is parallel and a torn
// shard fails without corrupting its neighbours.
package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"elsi/internal/curve"
	"elsi/internal/engine"
	"elsi/internal/faults"
	"elsi/internal/geo"
	"elsi/internal/rebuild"
	"elsi/internal/shard"
	"elsi/internal/snapshot"
	"elsi/internal/wal"
)

func init() {
	faults.Register("recover/replay", "WAL replay during recovery: crash mid-replay before the engine is live")
}

const (
	manifestName    = "MANIFEST"
	manifestVersion = 1
	payloadVersion  = 1
	walSubdir       = "wal"
)

func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// Config describes a persistent store. Everything that holds code —
// the index factory, the key map, the predictor — comes from the
// caller on every open, exactly like snapshot.Stater restores: only
// trained state lives on disk.
type Config struct {
	// Dir is the store's root directory.
	Dir string
	// WAL configures the per-shard logs (fsync policy, group-commit
	// interval, segment size).
	WAL wal.Options
	// Shards is the desired shard count for Create; Open recovers
	// however many shards the manifest records.
	Shards int
	// Space is the data space; must match the manifest on Open.
	Space geo.Rect
	// Router sizes the recovered/created router (workers, pruning
	// depths). Its Shards field is ignored in favour of Config.Shards.
	Router shard.Config
	// Factory constructs an unbuilt index of the persisted family.
	Factory func() rebuild.Rebuildable
	// MapKey is the processor's 1-D key map (same as at create time).
	MapKey func(geo.Point) float64
	// Pred is the rebuild predictor; nil disables learned triggering.
	Pred *rebuild.Predictor
	// Fu is the per-shard predictor check frequency (0 = default).
	Fu int
	// Configure, when non-nil, runs on every processor after
	// construction or recovery (install Retry policies etc.).
	Configure func(p *rebuild.Processor)
}

// Exists reports whether dir already holds a store (a MANIFEST).
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// ShardRecovery is one shard's recovery timeline.
type ShardRecovery struct {
	Shard         int
	SnapshotLSN   uint64        // cut LSN of the snapshot loaded
	SnapshotBytes int           // payload size of that snapshot
	WALRecords    int           // records replayed from the WAL tail
	TornTail      bool          // WAL ended in a truncated torn frame
	Load          time.Duration // snapshot read + state restore
	Replay        time.Duration // WAL scan + replay
}

// RecoveryInfo reports what Open did.
type RecoveryInfo struct {
	Shards []ShardRecovery
	Total  time.Duration
}

// mgr owns one shard's durability: its WAL, its snapshot directory,
// and the worker goroutine that snapshots after every rebuild swap.
type mgr struct {
	shardID int
	dir     string // shard directory; snapshots live here
	family  string

	// mu orders WAL appends with their application to the processor:
	// every update holds it across Append+apply, and the snapshot cut
	// reads NextLSN and captures the processor under it, so a
	// snapshot's cut LSN exactly covers the applied prefix.
	// Lock order: snapMu > mu > (wal.Log.mu | Processor.mu).
	//
	//elsi:lockorder
	mu   sync.Mutex
	log  *wal.Log
	proc *rebuild.Processor

	// snapMu serializes snapshot attempts (worker, forced, close).
	//
	//elsi:lockorder
	snapMu sync.Mutex

	snapReq chan struct{}
	stop    chan struct{}
	wg      sync.WaitGroup

	// errMu guards err, the first asynchronous snapshot failure.
	//
	//elsi:lockorder
	errMu sync.Mutex
	err   error
}

func (m *mgr) noteErr(err error) {
	m.errMu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.errMu.Unlock()
}

func (m *mgr) firstErr() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.err
}

// encodeIndex serializes the wrapped index through its Stater
// implementation; called with the processor lock held so the bytes
// match the captured processor state.
func encodeIndex(idx rebuild.Rebuildable) ([]byte, error) {
	st, ok := idx.(snapshot.Stater)
	if !ok {
		return nil, fmt.Errorf("persist: index family %q does not implement snapshot.Stater", idx.Name())
	}
	return st.StateAppend(nil)
}

// takeSnapshot writes a snapshot covering every applied record, then
// trims the WAL prefix it covers. The capture runs under mu (no
// update can slip between the cut LSN and the state); the write and
// trim run outside it so fsyncs never block the update path.
func (m *mgr) takeSnapshot() error {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()

	m.mu.Lock()
	cut := m.log.NextLSN() - 1
	st, idxBytes, err := m.proc.CaptureState(encodeIndex)
	m.mu.Unlock()
	if err != nil {
		return fmt.Errorf("persist: shard %d capture: %w", m.shardID, err)
	}

	payload := snapshot.AppendU8(nil, payloadVersion)
	payload = snapshot.AppendString(payload, m.family)
	payload = snapshot.AppendU64(payload, cut)
	payload = snapshot.AppendBytes(payload, idxBytes)
	payload = rebuild.AppendState(payload, st)

	path := filepath.Join(m.dir, snapshot.Name(cut))
	if err := snapshot.Write(path, payload); err != nil {
		return fmt.Errorf("persist: shard %d snapshot: %w", m.shardID, err)
	}
	// Only now — with the covering snapshot durable — may older
	// snapshots and covered WAL segments go.
	if err := snapshot.GC(m.dir, cut); err != nil {
		return fmt.Errorf("persist: shard %d snapshot GC: %w", m.shardID, err)
	}
	if err := m.log.TrimThrough(cut); err != nil && !errors.Is(err, wal.ErrClosed) {
		return fmt.Errorf("persist: shard %d wal trim: %w", m.shardID, err)
	}
	return nil
}

// run is the shard's snapshot worker: each rebuild swap enqueues one
// request; failures are sticky in m.err and surfaced by Store.Err and
// Store.Close.
func (m *mgr) run() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case <-m.snapReq:
			if err := m.takeSnapshot(); err != nil {
				m.noteErr(err)
			}
		}
	}
}

// Store is a durable engine backend: the sharded router for queries,
// WAL-first updates, snapshot-on-swap, and crash recovery via Open.
type Store struct {
	router *shard.Router
	mgrs   []*mgr
	rec    RecoveryInfo

	closeOnce sync.Once
	closeErr  error
}

var _ engine.Backend = (*Store)(nil)

// decodeManifest parses and validates a MANIFEST payload.
func decodeManifest(payload []byte) (family string, space geo.Rect, ranges []curve.KeyRange, err error) {
	d := snapshot.NewDec(payload)
	if v := d.U8(); d.Err() == nil && v != manifestVersion {
		return "", geo.Rect{}, nil, fmt.Errorf("persist: unsupported manifest version %d", v)
	}
	family = d.String()
	space = d.Rect()
	n := d.Count(16)
	if err := d.Err(); err != nil {
		return "", geo.Rect{}, nil, fmt.Errorf("persist: decode manifest: %w", err)
	}
	ranges = make([]curve.KeyRange, n)
	for i := range ranges {
		ranges[i] = curve.KeyRange{Lo: d.U64(), Hi: d.U64()}
	}
	if err := d.Close(); err != nil {
		return "", geo.Rect{}, nil, fmt.Errorf("persist: decode manifest: %w", err)
	}
	return family, space, ranges, nil
}

func writeManifest(dir, family string, space geo.Rect, ranges []curve.KeyRange) error {
	payload := snapshot.AppendU8(nil, manifestVersion)
	payload = snapshot.AppendString(payload, family)
	payload = snapshot.AppendRect(payload, space)
	payload = snapshot.AppendUvarint(payload, uint64(len(ranges)))
	for _, rng := range ranges {
		payload = snapshot.AppendU64(payload, rng.Lo)
		payload = snapshot.AppendU64(payload, rng.Hi)
	}
	return snapshot.Write(filepath.Join(dir, manifestName), payload)
}

// newMgr assembles one shard's manager around an open WAL and a live
// processor, and installs the snapshot-on-swap trigger.
func newMgr(shardID int, dir, family string, log *wal.Log, proc *rebuild.Processor) *mgr {
	m := &mgr{
		shardID: shardID,
		dir:     dir,
		family:  family,
		log:     log,
		proc:    proc,
		snapReq: make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	// OnSwap runs outside the processor lock, so the non-blocking
	// enqueue can never deadlock against a snapshot capture; a request
	// already queued covers this swap too.
	proc.OnSwap = func() {
		select {
		case m.snapReq <- struct{}{}:
		default:
		}
	}
	return m
}

func (s *Store) startWorkers() {
	for _, m := range s.mgrs {
		m.wg.Add(1)
		go m.run()
	}
}

// Create builds a fresh store in cfg.Dir from pts: partition + train
// via shard.New, write the manifest, open empty WALs, and take the
// initial snapshot of every shard synchronously, so a crash any time
// after Create returns recovers the full data set.
func Create(cfg Config, pts []geo.Point) (*Store, error) {
	if cfg.Factory == nil || cfg.MapKey == nil {
		return nil, errors.New("persist: Config.Factory and Config.MapKey are required")
	}
	if Exists(cfg.Dir) {
		return nil, fmt.Errorf("persist: %s already holds a store (use Open)", cfg.Dir)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}

	family := cfg.Factory().Name()
	mk := func(sub []geo.Point) (*rebuild.Processor, error) {
		proc, err := rebuild.NewProcessor(cfg.Factory(), cfg.Pred, sub, cfg.MapKey, cfg.Fu)
		if err != nil {
			return nil, err
		}
		proc.Factory = cfg.Factory
		if cfg.Configure != nil {
			cfg.Configure(proc)
		}
		return proc, nil
	}
	scfg := cfg.Router
	scfg.Shards = cfg.Shards
	router, err := shard.New(pts, cfg.Space, scfg, mk)
	if err != nil {
		return nil, err
	}

	ranges := router.Ranges()
	if err := writeManifest(cfg.Dir, family, cfg.Space, ranges); err != nil {
		return nil, err
	}

	s := &Store{router: router, mgrs: make([]*mgr, len(ranges))}
	for i := range ranges {
		dir := filepath.Join(cfg.Dir, shardDirName(i))
		log, _, err := wal.Open(filepath.Join(dir, walSubdir), cfg.WAL, 1, 1, nil)
		if err != nil {
			s.abandon()
			return nil, err
		}
		s.mgrs[i] = newMgr(i, dir, family, log, router.Processor(i))
		if err := s.mgrs[i].takeSnapshot(); err != nil {
			s.abandon()
			return nil, err
		}
	}
	s.startWorkers()
	return s, nil
}

// Open recovers the store in cfg.Dir: manifest, then per shard — in
// parallel — latest snapshot, index + processor state restore, and
// WAL tail replay through the no-training replay path.
func Open(cfg Config) (*Store, error) {
	if cfg.Factory == nil || cfg.MapKey == nil {
		return nil, errors.New("persist: Config.Factory and Config.MapKey are required")
	}
	begin := time.Now()
	payload, err := snapshot.Read(filepath.Join(cfg.Dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("persist: manifest: %w", err)
	}
	family, space, ranges, err := decodeManifest(payload)
	if err != nil {
		return nil, err
	}
	if want := cfg.Factory().Name(); want != family {
		return nil, fmt.Errorf("persist: store holds family %q, config builds %q", family, want)
	}
	if cfg.Space != (geo.Rect{}) && cfg.Space != space {
		return nil, fmt.Errorf("persist: store space %+v does not match configured space %+v", space, cfg.Space)
	}

	procs := make([]*rebuild.Processor, len(ranges))
	logs := make([]*wal.Log, len(ranges))
	recs := make([]ShardRecovery, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i := range ranges {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			procs[i], logs[i], recs[i], errs[i] = recoverShard(cfg, i, family)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, l := range logs {
				if l != nil {
					l.Close()
				}
			}
			return nil, fmt.Errorf("persist: shard %d: %w", i, err)
		}
	}

	router, err := shard.NewFromShards(procs, ranges, space, cfg.Router)
	if err != nil {
		for _, l := range logs {
			l.Close()
		}
		return nil, err
	}
	s := &Store{router: router, mgrs: make([]*mgr, len(ranges))}
	for i := range ranges {
		s.mgrs[i] = newMgr(i, filepath.Join(cfg.Dir, shardDirName(i)), family, logs[i], procs[i])
	}
	s.rec = RecoveryInfo{Shards: recs, Total: time.Since(begin)}
	s.startWorkers()
	return s, nil
}

// recoverShard rebuilds one shard's processor from its snapshot and
// WAL tail. No model trains here: the index state comes off disk and
// replay uses the processor's replay path.
func recoverShard(cfg Config, i int, family string) (*rebuild.Processor, *wal.Log, ShardRecovery, error) {
	rec := ShardRecovery{Shard: i}
	dir := filepath.Join(cfg.Dir, shardDirName(i))

	loadStart := time.Now()
	name, cut, err := snapshot.Latest(dir)
	if err != nil {
		return nil, nil, rec, err
	}
	payload, err := snapshot.Read(name)
	if err != nil {
		return nil, nil, rec, err
	}
	rec.SnapshotLSN = cut
	rec.SnapshotBytes = len(payload)

	d := snapshot.NewDec(payload)
	if v := d.U8(); d.Err() == nil && v != payloadVersion {
		return nil, nil, rec, fmt.Errorf("unsupported shard snapshot version %d", v)
	}
	if fam := d.String(); d.Err() == nil && fam != family {
		return nil, nil, rec, fmt.Errorf("shard snapshot holds family %q, manifest says %q", fam, family)
	}
	if snapCut := d.U64(); d.Err() == nil && snapCut != cut {
		return nil, nil, rec, fmt.Errorf("snapshot %s encodes cut LSN %d", name, snapCut)
	}
	idxBytes := d.Bytes()
	if err := d.Err(); err != nil {
		return nil, nil, rec, fmt.Errorf("decode shard snapshot: %w", err)
	}
	st, err := rebuild.DecodeState(d)
	if err != nil {
		return nil, nil, rec, err
	}
	if err := d.Close(); err != nil {
		return nil, nil, rec, fmt.Errorf("decode shard snapshot: %w", err)
	}

	idx := cfg.Factory()
	stater, ok := idx.(snapshot.Stater)
	if !ok {
		return nil, nil, rec, fmt.Errorf("index family %q does not implement snapshot.Stater", idx.Name())
	}
	if err := stater.RestoreState(idxBytes); err != nil {
		return nil, nil, rec, err
	}
	proc := rebuild.RestoreProcessor(idx, cfg.Pred, cfg.MapKey, cfg.Fu, st)
	proc.Factory = cfg.Factory
	if cfg.Configure != nil {
		cfg.Configure(proc)
	}
	rec.Load = time.Since(loadStart)

	replayStart := time.Now()
	log, stats, err := wal.Open(filepath.Join(dir, walSubdir), cfg.WAL, cut+1, cut+1, func(r wal.Record) error {
		if err := faults.Hit("recover/replay"); err != nil {
			return err
		}
		switch r.Op {
		case wal.OpInsert:
			proc.ReplayInsert(r.Pt)
		case wal.OpDelete:
			proc.ReplayDelete(r.Pt)
		}
		return nil
	})
	if err != nil {
		return nil, nil, rec, err
	}
	rec.WALRecords = stats.Replayed
	rec.TornTail = stats.TornTail != nil
	rec.Replay = time.Since(replayStart)
	return proc, log, rec, nil
}

// Router exposes the underlying sharded router (tests, stats).
func (s *Store) Router() *shard.Router { return s.router }

// Recovery reports what Open replayed; zero after Create.
func (s *Store) Recovery() RecoveryInfo { return s.rec }

// Err returns the first asynchronous snapshot failure, nil if none.
func (s *Store) Err() error {
	for _, m := range s.mgrs {
		if err := m.firstErr(); err != nil {
			return err
		}
	}
	return nil
}

// --- engine.Backend ----------------------------------------------------

func (s *Store) PointBatch(pts []geo.Point, out []bool) []bool {
	return s.router.PointBatch(pts, out)
}

func (s *Store) WindowBatch(wins []geo.Rect, out [][]geo.Point) [][]geo.Point {
	return s.router.WindowBatch(wins, out)
}

func (s *Store) KNNVarBatch(qs []geo.Point, ks []int, out [][]geo.Point) [][]geo.Point {
	return s.router.KNNVarBatch(qs, ks, out)
}

// Insert logs the update, then applies it, all under the shard's
// manager lock so WAL order is application order. A failed append —
// including an injected crash — leaves the update unapplied and
// unacknowledged: the caller's false is the truth on disk.
func (s *Store) Insert(p geo.Point) bool {
	m := s.mgrs[s.router.ShardIndexOf(p)]
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.log.Append(wal.OpInsert, p); err != nil {
		m.noteErr(err)
		return false
	}
	return s.router.Insert(p)
}

// Delete mirrors Insert: WAL first, apply second, one lock.
func (s *Store) Delete(p geo.Point) bool {
	m := s.mgrs[s.router.ShardIndexOf(p)]
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.log.Append(wal.OpDelete, p); err != nil {
		m.noteErr(err)
		return false
	}
	return s.router.Delete(p)
}

// PointGen and GlobalGen delegate to the router: durability does not
// change visible state, so the WAL layer adds no generations of its
// own.
//
//elsi:noalloc
func (s *Store) PointGen(p geo.Point) uint64 { return s.router.PointGen(p) }

//elsi:noalloc
func (s *Store) GlobalGen() uint64 { return s.router.GlobalGen() }

func (s *Store) BackendStats() engine.BackendStats {
	return s.router.BackendStats()
}

// --- lifecycle ---------------------------------------------------------

// Snapshot forces a snapshot of every shard now (drain, tests).
func (s *Store) Snapshot() error {
	var first error
	for _, m := range s.mgrs {
		if err := m.takeSnapshot(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stopWorkers shuts down the snapshot workers and waits them out.
func (s *Store) stopWorkers() {
	for _, m := range s.mgrs {
		close(m.stop)
	}
	for _, m := range s.mgrs {
		m.wg.Wait()
	}
}

// Close shuts down cleanly: stop the snapshot workers, settle
// in-flight rebuilds, take a final snapshot per shard (so the next
// Open replays an empty tail), and close the WALs. Safe to call once.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		s.stopWorkers()
		s.router.Quiesce()
		for _, m := range s.mgrs {
			if err := m.takeSnapshot(); err != nil {
				m.noteErr(err)
			}
			if err := m.log.Close(); err != nil && !errors.Is(err, wal.ErrClosed) {
				m.noteErr(err)
			}
		}
		s.closeErr = s.Err()
	})
	return s.closeErr
}

// Kill abandons the store the way a crash would: workers stop, but no
// final snapshot is taken and nothing is flushed beyond what already
// reached disk. The crash harness uses it to reopen the directory
// while this process keeps running.
func (s *Store) Kill() {
	s.closeOnce.Do(func() {
		s.stopWorkers()
		s.router.Quiesce()
		for _, m := range s.mgrs {
			m.log.Close()
		}
		s.closeErr = s.Err()
	})
}

// abandon tears down a half-constructed store (Create failure path).
func (s *Store) abandon() {
	for _, m := range s.mgrs {
		if m != nil && m.log != nil {
			m.log.Close()
		}
	}
}
