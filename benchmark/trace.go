package main

// The traced run: the workload's seeded stream replayed at every
// boundary of an in-process copy of the stack, bottom to top, then once
// more at the top boundary with the seam decorators recording spans.
// Rung-to-rung differences and span self times give the per-layer
// metrics; the spans themselves go to benchmark/out/trace-<workload>.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"elsi/internal/client"
	"elsi/internal/geo"
)

// key is a request payload, the only thing a span deep in the stack
// shares with the client call that caused it.
type key [4]float64

func pointKey(p geo.Point) key { return key{p.X, p.Y} }
func windowKey(w geo.Rect) key { return key{w.MinX, w.MinY, w.MaxX, w.MaxY} }

func (o op) key() key {
	if o.Kind == opWindow {
		return windowKey(o.Win)
	}
	return pointKey(o.Pt)
}

// span is one timed interval at a boundary. Start and End are
// nanoseconds from the tracer's epoch. Parent is the ID of the client
// span that caused it, found by payload and time containment; -1 when
// there is none (a background build).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch,omitempty"`
	key    key
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer holds spans in memory. Query-path spans are recorded only
// while on is set, so the decorators cost one atomic load on untraced
// rungs; builds and snapshot captures are rare and always recorded.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	events []span
	// states receives the start of every snapshot capture, for the
	// watcher that times the snapshot from outside. Capacity covers one
	// capture per shard arriving while the watcher follows another.
	states chan time.Time
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), states: make(chan time.Time, 8)}
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) child(name string, k key, t0, t1 time.Time, batch int) {
	s := span{Name: name, Start: t.ns(t0), End: t.ns(t1), Parent: -1, Batch: batch, key: k}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) event(name string, t0, t1 time.Time, n int) {
	if t1.IsZero() {
		t1 = t0
		select {
		case t.states <- t0:
		default:
		}
	}
	s := span{Name: name, Start: t.ns(t0), End: t.ns(t1), Parent: -1, Batch: n}
	t.mu.Lock()
	t.events = append(t.events, s)
	t.mu.Unlock()
}

// take removes and returns the query-path spans recorded so far.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// buildsSince lists the index builds that started after at.
func (t *tracer) buildsSince(at time.Time) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, e := range t.events {
		if e.Name == "index.build" && e.Start >= t.ns(at) {
			out = append(out, e)
		}
	}
	return out
}

// --- one rung -------------------------------------------------------------

// rung is the outcome of replaying the stream at one boundary.
type rung struct {
	Name      string
	all       []float64           // sorted latencies, µs
	byKind    [numKinds][]float64 // sorted latencies per operation kind, µs
	results   int                 // points returned plus point queries answered
	reads     int
	attempted int
	failed    int
	firstErr  error
	clients   []span // client spans, when the rung was traced
	epochNS   int64  // start of the measured window, tracer time
	samples   [][]sample
}

func (r *rung) p50() float64 {
	if len(r.all) == 0 {
		return 0
	}
	return quantile(r.all, 0.5)
}

func (r *rung) kindP50(k opKind) float64 {
	if len(r.byKind[k]) == 0 {
		return 0
	}
	return quantile(r.byKind[k], 0.5)
}

// has reports whether the rung completed an operation of kind k.
func (r *rung) has(k opKind) bool { return len(r.byKind[k]) > 0 }

// clockCost is the median cost of the two clock reads round an
// operation; ladder latencies have it removed, which matters only at
// the nanosecond rungs.
func clockCost() time.Duration {
	ds := make([]time.Duration, 2001)
	for i := range ds {
		t0 := time.Now()
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// maxRungOps bounds the samples one client keeps at a boundary that
// answers in nanoseconds.
const maxRungOps = 400_000

func (tr *tracer) runRung(name string, ts []target, sts []*stream, dur time.Duration, traced bool, clock time.Duration) *rung {
	runtime.GC() // every rung starts from a collected heap, not its predecessor's garbage
	tr.on.Store(traced)
	runs := driveAll(ts, sts, dur/10, dur-dur/10, maxRungOps, traced)
	tr.on.Store(false)
	r := &rung{Name: name}
	for i := range runs {
		c := &runs[i]
		r.attempted += c.attempted
		r.failed += c.failed
		r.results += c.results
		if r.firstErr == nil {
			r.firstErr = c.firstErr
		}
		if len(c.samples) > 0 && (r.epochNS == 0 || tr.ns(c.warmEnd) < r.epochNS) {
			r.epochNS = tr.ns(c.warmEnd)
		}
		for j, s := range c.samples {
			us := float64(max(0, s.Lat-clock)) / float64(time.Microsecond)
			r.all = append(r.all, us)
			r.byKind[s.Kind] = append(r.byKind[s.Kind], us)
			if s.Kind <= opKNN {
				r.reads++
			}
			if traced {
				start := tr.ns(c.warmEnd) + int64(s.At)
				r.clients = append(r.clients, span{Name: "client." + kindNames[s.Kind], Start: start, End: start + int64(s.Lat), Parent: -1, Batch: 1, key: c.keys[j]})
			}
		}
		r.samples = append(r.samples, c.samples)
	}
	sort.Float64s(r.all)
	for k := range r.byKind {
		sort.Float64s(r.byKind[k])
	}
	return r
}

// --- span analysis --------------------------------------------------------

// adopt gives every child span its causing client span: same payload,
// and the child starts inside the client's interval. Clients get their
// slice index as ID; children are numbered after them.
func adopt(clients, children []span) {
	byKey := make(map[key][]int, len(clients))
	for i := range clients {
		clients[i].ID = i
		byKey[clients[i].key] = append(byKey[clients[i].key], i)
	}
	for _, ids := range byKey {
		sort.Slice(ids, func(a, b int) bool { return clients[ids[a]].Start < clients[ids[b]].Start })
	}
	for i := range children {
		c := &children[i]
		c.ID = len(clients) + i
		ids := byKey[c.key]
		// the last client span with this payload that started at or
		// before the child
		j := sort.Search(len(ids), func(j int) bool { return clients[ids[j]].Start > c.Start }) - 1
		for ; j >= 0; j-- {
			if p := clients[ids[j]]; c.Start <= p.End {
				c.Parent = p.ID
				break
			}
		}
	}
}

// covered is the length of the union of the spans' intervals, clipped
// to [lo, hi].
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	end := lo
	for _, s := range spans {
		a, b := max(s.Start, end), min(s.End, hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// selfTimes splits every client span of a traced rung into the part
// above the backend seam, the part between the backend and index seams,
// and the part inside the index: a span's self time is its duration
// minus what its child spans cover. It returns the three medians and
// the median queue wait (client start to first backend span start), µs.
func selfTimes(clients, children []span) (above, between, index, wait float64) {
	kids := make(map[int][]span)
	for _, c := range children {
		if c.Parent >= 0 {
			kids[c.Parent] = append(kids[c.Parent], c)
		}
	}
	var ab, bt, ix, wt []float64
	for _, c := range clients {
		var be, in []span
		for _, k := range kids[c.ID] {
			if strings.HasPrefix(k.Name, "backend.") {
				be = append(be, k)
			} else {
				in = append(in, k)
			}
		}
		inCov := covered(in, c.Start, c.End)
		beCov := inCov
		if len(be) > 0 {
			beCov = max(covered(be, c.Start, c.End), inCov)
			wt = append(wt, float64(be[0].Start-c.Start)/1e3)
		}
		ab = append(ab, float64(c.dur()-beCov)/1e3)
		bt = append(bt, float64(beCov-inCov)/1e3)
		ix = append(ix, float64(inCov)/1e3)
	}
	return median(ab), median(bt), median(ix), median(wt)
}

// swapStall is the worst client latency among the operations in flight
// when a background build ended, i.e. across the index swap, µs.
func swapStall(rungs []*rung, builds []span) float64 {
	var worst time.Duration
	for _, r := range rungs {
		for _, ss := range r.samples {
			for _, s := range ss {
				start := r.epochNS + int64(s.At)
				for _, b := range builds {
					if start <= b.End && b.End <= start+int64(s.Lat) && s.Lat > worst {
						worst = s.Lat
					}
				}
			}
		}
	}
	return float64(worst) / float64(time.Microsecond)
}

// --- the traced run -------------------------------------------------------

// runTraced measures one workload's per-layer metrics.
func runTraced(ctx context.Context, w workload, seed int64, seconds float64, report io.Writer) (*runResult, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(mkBuildDir(root), "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	c, err := newCorpus(w, seed)
	if err != nil {
		return nil, err
	}
	c.prepare()
	tr := newTracer()
	st, err := newStack(ctx, c, tr, tmp)
	if err != nil {
		return nil, err
	}
	deployed := time.Now()
	defer st.close() // for the error paths; closing twice is harmless

	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = offPath
	}
	n := numClients()
	clock := clockCost()

	// a tenth of the run for the isolated probes, the rest shared
	// equally by the rungs
	type step struct {
		name    string
		targets []target
		streams []*stream
		traced  bool
	}
	var steps []step
	steps = append(steps,
		step{"index", sameTarget(indexTarget{st.index}, n), freshStreams(c, n, 0), false},
		step{"processor", sameTarget(procTarget{st.proc}, n), freshStreams(c, n, 0), false})
	var conns []*client.TCP
	if w.Lib {
		// the processor is the top boundary, and its index is decorated
		steps = append(steps, step{"processor+trace", steps[1].targets, steps[1].streams, true})
	} else {
		if st.router != nil {
			steps = append(steps, step{"router", sameTarget(backendTarget{st.router}, n), freshStreams(c, n, 0), false})
		}
		conns, err = dialAll(st.srv.TCPAddr(), n)
		if err != nil {
			return nil, err
		}
		defer closeAll(conns)
		tcp := make([]target, n)
		for i, conn := range conns {
			tcp[i] = conn
		}
		sts := freshStreams(c, n, 0) // one stream over the deployment's one state
		steps = append(steps,
			step{"backend", sameTarget(backendTarget{st.backend}, n), sts, false},
			step{"engine", sameTarget(st.eng, n), sts, false},
			step{"engine+trace", sameTarget(st.eng, n), sts, true},
			step{"tcp", tcp, sts, false},
			step{"tcp+trace", tcp, sts, true})
	}
	per := time.Duration(seconds * 0.9 / float64(len(steps)) * float64(time.Second))
	probe := time.Duration(seconds * 0.1 / 3 * float64(time.Second))

	// watch the deployment while the rungs run: the deepest delta
	// backlog, and how long each swap-triggered snapshot takes to appear
	// on disk after its state capture began
	watchCtx, stopWatch := context.WithCancel(ctx)
	var watch sync.WaitGroup
	var pendingMax int
	var snapshots []float64
	watch.Add(1)
	go func() {
		defer watch.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-watchCtx.Done():
				return
			case <-tick.C:
				if p, _ := st.backendState(); p > pendingMax {
					pendingMax = p
				}
			}
		}
	}()
	if st.store != nil {
		watch.Add(1)
		go func() {
			defer watch.Done()
			snapshots = watchSnapshots(watchCtx, tr.states, st.dataDir)
		}()
	}

	rungs := make(map[string]*rung, len(steps))
	var order []*rung
	res := &runResult{Workload: w.Name, Seed: seed, Trace: true, Metrics: m, Notes: map[string]string{}}
	var children []span
	var written float64
	for _, s := range steps {
		switch s.name {
		case "index":
			st.resetIndexCounters()
		case "backend":
			written = procWrittenBytes() // only the store writes from here to the rung's end
		}
		r := tr.runRung(s.name, s.targets, s.streams, per, s.traced, clock)
		if s.traced {
			kids := tr.take()
			adopt(r.clients, kids)
			if s.name == "engine+trace" {
				_, _, _, m["engine.queue_wait_us"] = selfTimes(r.clients, kids)
			} else {
				children = kids
			}
		}
		switch s.name {
		case "index":
			st.indexCounters(m, r.reads, r.results)
		case "backend":
			if st.store != nil {
				updates := len(r.byKind[opInsert]) + len(r.byKind[opDelete])
				m["persist.bytes_per_update"] = (procWrittenBytes() - written) / float64(max(1, updates))
			}
		}
		res.Attempted += r.attempted
		res.fail(r.failed, fmt.Errorf("%s: %w", s.name, r.firstErr))
		rungs[s.name] = r
		order = append(order, r)
	}
	st.servingCounters(m)
	stopWatch()
	watch.Wait()
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation completed")
	}

	// isolated probes
	var ws []wire
	for i, sts := 0, freshStreams(c, 1, 0); i < 512; i++ {
		o := sts[0].next()
		got, err := execOp(indexTarget{st.index}, o)
		if err != nil && err != errSkipped {
			return nil, err
		}
		ws = append(ws, encodeWire(o, got)) // an update's frames do not depend on its answer
	}
	var probeOps []op
	for i, sts := 0, freshStreams(c, 1, 0); i < 2000; i++ {
		probeOps = append(probeOps, sts[0].next())
	}
	m["zm.allocs_per_op"] = st.allocsPerOp(probeOps)
	if !w.Lib {
		if err := codecCosts(ws, m); err != nil {
			return nil, err
		}
		if m["net.loopback_rtt_us"], err = loopbackRTT(ws, probe); err != nil {
			return nil, err
		}
	}
	if w.Cache {
		m["qcache.get_ns"] = cacheGet(c.Pts)
	}
	if w.Durable {
		if err := walAppend(filepath.Join(tmp, "wal-probe"), c.Pts, probe, m); err != nil {
			return nil, err
		}
	}

	// the deployment is done: drain it, then recover it
	closeAll(conns)
	if err := st.close(); err != nil {
		return nil, err
	}
	if st.store != nil {
		if m["persist.recovery_ms"], err = st.recover(); err != nil {
			return nil, err
		}
	}

	// the ladder: every rung's self time is its p50 minus the rung below
	idx, proc := rungs["index"], rungs["processor"]
	m["zm.point_ns"] = idx.kindP50(opPoint) * 1e3
	m["rebuild.point_ns"] = (proc.kindP50(opPoint) - idx.kindP50(opPoint)) * 1e3
	if idx.has(opWindow) {
		m["zm.window_us"] = idx.kindP50(opWindow)
	}
	if idx.has(opKNN) {
		m["zm.knn_us"] = idx.kindP50(opKNN)
	}
	if proc.has(opInsert) {
		m["rebuild.insert_ns"] = proc.kindP50(opInsert) * 1e3
	}
	top, topTraced := proc, rungs["processor+trace"]
	if !w.Lib {
		be, eng := rungs["backend"], rungs["engine"]
		top, topTraced = rungs["tcp"], rungs["tcp+trace"]
		routed := be
		if r := rungs["router"]; r != nil {
			routed = r
			m["persist.insert_self_us"] = be.kindP50(opInsert) - r.kindP50(opInsert)
		}
		if w.Shards > 1 {
			m["shard.route_ns"] = (routed.kindP50(opPoint) - proc.kindP50(opPoint)) * 1e3
		} else {
			m["qserve.batch1_ns"] = (be.kindP50(opPoint) - proc.kindP50(opPoint)) * 1e3
		}
		m["engine.self_us"] = eng.p50() - be.p50()
		m["transport.self_us"] = top.p50() - eng.p50()
	}
	builds := tr.buildsSince(deployed)
	var buildMS []float64
	for _, b := range builds {
		buildMS = append(buildMS, float64(b.dur())/1e6)
	}
	m["rebuild.rebuilds"] = float64(len(builds))
	m["rebuild.pending_max"] = float64(pendingMax)
	if len(builds) > 0 {
		m["rebuild.build_ms"] = median(buildMS)
		m["rebuild.swap_stall_us"] = swapStall(order, builds)
	}
	if len(snapshots) > 0 {
		m["persist.snapshot_ms"] = median(snapshots)
	}
	m["client.p999_us"] = quantile(top.all, 0.999)
	m["client.max_us"] = top.all[len(top.all)-1]

	above, between, index, _ := selfTimes(topTraced.clients, children)
	m["trace.top_p50_us"] = topTraced.p50()
	m["trace.selfsum_ratio"] = (above + between + index) / (topTraced.p50() + float64(clock)/1e3)
	m["trace.overhead_ratio"] = topTraced.p50() / top.p50()
	if hwm, err := procStatusKB(os.Getpid(), "VmHWM"); err == nil {
		m["trace.peak_rss_mb"] = hwm / 1024
	}

	res.Notes["snapshots_timed"] = fmt.Sprint(len(snapshots))
	res.Notes["top_samples"] = fmt.Sprint(len(top.all))
	res.Correct = res.Failed == 0
	printLadder(report, order, above, between, index, topTraced)
	return res, writeTrace(root, w.Name, topTraced.clients, children, tr.events)
}

// watchSnapshots times swap-triggered snapshots from outside: from the
// start of the state capture (the decorated index sees it) until a new
// snapshot file is visible in the store's directory, in milliseconds.
// Captures are matched to files first come, first served; while one is
// pending the directory is polled every 300 µs, otherwise not at all.
func watchSnapshots(ctx context.Context, captures <-chan time.Time, dataDir string) []float64 {
	for len(captures) > 0 {
		<-captures // the store's initial snapshots, taken before the watch began
	}
	seen := snapshotFiles(dataDir)
	var pending []time.Time
	var took []float64
	poll := time.NewTicker(300 * time.Microsecond)
	defer poll.Stop()
	for {
		var tick <-chan time.Time
		if len(pending) > 0 {
			tick = poll.C
		}
		select {
		case <-ctx.Done():
			return took
		case began := <-captures:
			pending = append(pending, began)
		case <-tick:
			for name := range snapshotFiles(dataDir) {
				if !seen[name] {
					seen[name] = true
					if len(pending) > 0 {
						took = append(took, float64(time.Since(pending[0]))/float64(time.Millisecond))
						pending = pending[1:]
					}
				}
			}
		}
	}
}

// printLadder is the layer budget: one row per boundary with its self
// time, then the span view of the traced top rung.
func printLadder(w io.Writer, order []*rung, above, between, index float64, top *rung) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "boundary\tp50_us\tself_us\tpoint\twindow\tknn\tinsert\tdelete\tsamples\t")
	prev := 0.0
	for _, r := range order {
		self := r.p50() - prev
		if strings.HasSuffix(r.Name, "+trace") {
			self = 0 // the same boundary again, with spans on
		} else {
			prev = r.p50()
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t", r.Name, r.p50(), self)
		for k := opKind(0); k < numKinds; k++ {
			if r.has(k) {
				fmt.Fprintf(tw, "%.3f\t", r.kindP50(k))
			} else {
				fmt.Fprint(tw, "-\t")
			}
		}
		fmt.Fprintf(tw, "%d\t\n", len(r.all))
	}
	tw.Flush()
	fmt.Fprintf(w, "self times sum to the top untraced rung's p50 by construction: each is a rung minus the rung below.\n")
	fmt.Fprintf(w, "span view of %s (median self time per client span, us): above the backend seam %.3f, between backend and index seams %.3f, inside the index %.3f; sum %.3f against p50 %.3f\n",
		top.Name, above, between, index, above+between+index, top.p50())
}

// maxTraceClients bounds the trace file: it holds the first so many
// client spans with everything they caused, and every build and state
// capture. The analysis above always sees every span.
const maxTraceClients = 20_000

func writeTrace(root, workload string, clients, children, events []span) error {
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	all := append([]span(nil), clients[:min(len(clients), maxTraceClients)]...)
	for _, c := range children {
		if c.Parent < maxTraceClients {
			all = append(all, c)
		}
	}
	for i, e := range events {
		e.ID = len(clients) + len(children) + i
		all = append(all, e)
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, all}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
