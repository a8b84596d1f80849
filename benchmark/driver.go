package main

// The end-to-end driver: a closed loop of clients against an elsid
// child process (or, for lib_elsi, the in-process processor), timed
// from the caller's side. It knows the system only through the client
// package, the data generators and geometry — every internal/... wiring
// lives in stack.go — so it measures what a user of elsid gets.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"elsi/internal/client"
	"elsi/internal/geo"
)

// target is the five-operation surface every boundary of the stack
// offers; client.TCP is one.
type target interface {
	PointQuery(geo.Point) (bool, error)
	WindowQuery(geo.Rect) ([]geo.Point, error)
	KNN(geo.Point, int) ([]geo.Point, error)
	Insert(geo.Point) (bool, error)
	Delete(geo.Point) (bool, error)
}

// numClients is the closed-loop concurrency: callers of elsid are
// application servers that wait for the reply.
func numClients() int { return min(runtime.NumCPU(), 4) }

// sample is one completed, correct operation inside the measured window.
type sample struct {
	At   time.Duration // start, from the start of the measured window
	Lat  time.Duration
	Kind opKind
}

// maxAudits bounds the answers one client keeps per launch for the
// audit, and so the time brute force takes after a fast one.
const maxAudits = 128

// audit is a window or kNN answer kept for checking after the clock
// has stopped, so brute force never competes with the server for a core.
type audit struct {
	O   op
	Got []geo.Point
}

type clientRun struct {
	samples   []sample
	keys      []key // payload of each sample, kept only for traced rungs
	audits    []audit
	attempted int
	failed    int
	results   int // points returned plus point queries answered
	firstErr  error
	warmEnd   time.Time
}

func (r *clientRun) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// execOp runs one request and checks what can be checked at once: the
// answer of a point query is known by construction.
func execOp(t target, o op) ([]geo.Point, error) {
	switch o.Kind {
	case opPoint:
		found, err := t.PointQuery(o.Pt)
		if err != nil {
			return nil, err
		}
		if found != (o.Want == 1) {
			return nil, fmt.Errorf("point %v: found=%v, want %v", o.Pt, found, o.Want == 1)
		}
		return nil, nil
	case opWindow:
		return t.WindowQuery(o.Win)
	case opKNN:
		return t.KNN(o.Pt, o.K)
	case opInsert:
		_, err := t.Insert(o.Pt)
		return nil, err
	default:
		_, err := t.Delete(o.Pt)
		return nil, err
	}
}

// drive is one client: next request only after the previous reply.
// Operations started before warmEnd are executed and checked but leave
// no sample. maxOps bounds the sample memory of very fast boundaries.
//
// A client that fills its sample budget raises full, and every client
// stops with it: the boundary is measured under the same contention
// from the first sample to the last.
func drive(t target, st *stream, warmEnd, end time.Time, maxOps int, keys bool, full *atomic.Bool, r *clientRun) {
	r.warmEnd = warmEnd
	every := auditEveryN
	for nq := 0; !full.Load(); {
		if len(r.samples) >= maxOps {
			full.Store(true)
			return
		}
		o := st.next()
		t0 := time.Now()
		if !t0.Before(end) {
			return
		}
		got, err := execOp(t, o)
		lat := time.Since(t0)
		if err == errSkipped {
			continue
		}
		r.attempted++
		if err != nil {
			r.fail(err)
			continue
		}
		st.acked(o)
		if t0.Before(warmEnd) {
			continue
		}
		r.samples = append(r.samples, sample{At: t0.Sub(warmEnd), Lat: lat, Kind: o.Kind})
		r.results += max(1, len(got))
		if keys {
			r.keys = append(r.keys, o.key())
		}
		if o.Kind == opWindow || o.Kind == opKNN {
			if nq%every == 0 {
				if len(r.audits) == maxAudits {
					// thin to every other one and sample half as often,
					// so the kept answers still span the whole run
					for i := 0; i < maxAudits/2; i++ {
						r.audits[i] = r.audits[2*i]
					}
					r.audits = r.audits[:maxAudits/2]
					every *= 2
				}
				if nq%every == 0 {
					r.audits = append(r.audits, audit{O: o, Got: got})
				}
			}
			nq++
		}
	}
}

// driveAll runs one client per target and waits for all of them.
func driveAll(ts []target, sts []*stream, warm, dur time.Duration, maxOps int, keys bool) []clientRun {
	runs := make([]clientRun, len(ts))
	warmEnd := time.Now().Add(warm)
	end := warmEnd.Add(dur)
	var full atomic.Bool
	var wg sync.WaitGroup
	for i := range ts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			drive(ts[i], sts[i], warmEnd, end, maxOps, keys, &full, &runs[i])
		}(i)
	}
	wg.Wait()
	return runs
}

// --- the elsid child ------------------------------------------------------

// repoRoot walks up from the working directory to the module root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

// buildDir is where the benchmark keeps everything it writes besides
// its trace files: the elsid binary and per-run temporary directories.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildElsid compiles cmd/elsid from the checkout, once per process. go
// build is a cheap no-op when the binary is current, so every run calls
// it and no run can measure a stale server.
func buildElsid(ctx context.Context, root string) (string, error) {
	elsidOnce.Do(func() {
		bin := filepath.Join(buildDir(root), "elsid")
		cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/elsid")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			elsidErr = fmt.Errorf("go build ./cmd/elsid: %v\n%s", err, out)
			return
		}
		elsidBin = bin
	})
	return elsidBin, elsidErr
}

var (
	elsidOnce sync.Once
	elsidBin  string
	elsidErr  error
)

// served is a running elsid child. done closes once it has been reaped.
type served struct {
	cmd  *exec.Cmd
	addr string
	log  string
	done chan struct{}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// elsidArgs is the command line a workload runs the server with. Only
// what the workload names is set; the rest is elsid's defaults.
func elsidArgs(w workload, addr, dataDir string) []string {
	args := []string{"-http", "", "-tcp", addr, "-index", "zm",
		"-dataset", w.Dataset, "-n", strconv.Itoa(w.N), "-seed", strconv.Itoa(dataSeed)}
	if w.Shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.Shards))
	}
	if w.Fu > 0 {
		args = append(args, "-fu", strconv.Itoa(w.Fu))
	}
	if w.Cache {
		args = append(args, "-cache")
	}
	if w.Adaptive {
		args = append(args, "-adaptive")
	}
	if w.Durable {
		args = append(args, "-data", dataDir, "-fsync", durableFsync)
	}
	return args
}

// startElsid launches the server and waits until it accepts a
// connection. tmp holds its log; dataDir is used by durable workloads.
func startElsid(ctx context.Context, bin string, w workload, tmp, dataDir string) (*served, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(tmp, "elsid-"+addr[len("127.0.0.1:"):]+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child keeps its own descriptor
	cmd := exec.CommandContext(ctx, bin, elsidArgs(w, addr, dataDir)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &served{cmd: cmd, addr: addr, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // how the child ended is read from its log, not its status
		close(s.done)
	}()
	deadline := time.Now().Add(120 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			return s, nil
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("elsid exited before listening on %s\n%s", addr, s.logTail())
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("elsid did not come up on %s: %v\n%s", addr, err, s.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *served) logTail() string {
	data, _ := os.ReadFile(s.log)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// kill is the process crash: SIGKILL, then wait until it is reaped.
func (s *served) kill() {
	_ = s.cmd.Process.Kill() // already gone is fine
	<-s.done
}

// stop asks for the graceful drain and falls back to kill.
func (s *served) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.kill()
	}
}

func dialAll(addr string, n int) ([]*client.TCP, error) {
	conns := make([]*client.TCP, 0, n)
	for i := 0; i < n; i++ {
		c, err := client.DialTCP(addr)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeAll(conns []*client.TCP) {
	for _, c := range conns {
		c.Close()
	}
}

// --- one end-to-end run ---------------------------------------------------

// launchesPerRun is how many times one run sets the system up, warms it
// and measures it, each time for an equal share of -seconds. The samples
// of all launches are pooled and setup_s is the median set-up, so the
// accidents of one process start — which core the server's accumulator
// landed on, where a collection fell — do not decide a run.
const launchesPerRun = 4

type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Notes are facts about the run that are not metrics: sample
	// counts, rebuilds seen, what failed first.
	Notes map[string]string `json:"notes,omitempty"`
}

// fail counts n failed operations and keeps the first reason.
func (r *runResult) fail(n int, err error) {
	r.Failed += n
	if n > 0 && r.Notes["first_error"] == "" {
		r.Notes["first_error"] = err.Error()
	}
}

// system is a set-up system under test: its client-side handles and how
// to tear it down.
type system struct {
	targets []target
	conns   []*client.TCP
	child   *served // nil for lib_elsi
	dataDir string
}

func (s *system) close() {
	closeAll(s.conns)
	s.conns = nil
	if s.child != nil {
		s.child.stop()
	}
}

// pid is the process whose memory is the system's: the elsid child, or
// the harness itself for lib_elsi.
func (s *system) pid() int {
	if s.child != nil {
		return s.child.cmd.Process.Pid
	}
	return os.Getpid()
}

// env is what every launch of one run shares.
type env struct {
	ctx  context.Context
	w    workload
	seed int64
	bin  string // elsid binary, "" for lib_elsi
	tmp  string
	nDir int
	c    *corpus // the first launch's, with the query shapes prepared
}

// setUp is everything between "nothing" and "first correct answer":
// generating the data the checks need, starting the server (which
// generates its data, trains the rebuild predictor and scorer, builds
// the index and, when durable, writes the first snapshot) or building
// the in-process index, connecting, and one verified point query.
func (e *env) setUp() (*system, *corpus, time.Duration, error) {
	begin := time.Now()
	c, err := newCorpus(e.w, e.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	sys := &system{}
	n := numClients()
	if e.w.Lib {
		t, err := newLibTarget(c)
		if err != nil {
			return nil, nil, 0, err
		}
		for i := 0; i < n; i++ {
			sys.targets = append(sys.targets, t)
		}
	} else {
		if e.w.Durable {
			e.nDir++
			sys.dataDir = filepath.Join(e.tmp, fmt.Sprintf("data-%d", e.nDir))
		}
		sys.child, err = startElsid(e.ctx, e.bin, e.w, e.tmp, sys.dataDir)
		if err != nil {
			return nil, nil, 0, err
		}
		sys.conns, err = dialAll(sys.child.addr, n)
		if err != nil {
			sys.close()
			return nil, nil, 0, err
		}
		for _, conn := range sys.conns {
			sys.targets = append(sys.targets, conn)
		}
	}
	if found, err := sys.targets[0].PointQuery(c.Pts[0]); err != nil || !found {
		sys.close()
		return nil, nil, 0, fmt.Errorf("first answer: found=%v err=%v", found, err)
	}
	return sys, c, time.Since(begin), nil
}

// sampleRSS polls a process's resident set every 50 ms until stop is
// closed, and returns the samples in kB.
func sampleRSS(pid int, stop <-chan struct{}) []float64 {
	var kb []float64
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return kb
		case <-tick.C:
			if v, err := procStatusKB(pid, "VmRSS"); err == nil {
				kb = append(kb, v)
			}
		}
	}
}

// pooled is what the launches of one run add up to.
type pooled struct {
	lats     []time.Duration
	byKind   [numKinds][]time.Duration
	setups   []float64 // seconds
	rssKB    []float64 // VmRSS samples over the measured windows
	peaksKB  []float64 // VmHWM: one per child, the last reading for the harness
	recovery []float64 // seconds from SIGKILL to listening again
	rebuilds int
	checked  int // acknowledged writes verified after a crash
}

// launch is one of a run's launches: set the system up, warm it, drive
// it for per, check the sampled answers and — when durable — crash it
// and verify what it acknowledged.
func (e *env) launch(l int, per time.Duration, res *runResult, p *pooled) error {
	// every launch starts from a collected heap: for lib_elsi the harness
	// is the system, and the previous launch's index and samples are not
	// this one's memory
	runtime.GC()
	sys, fresh, setup, err := e.setUp()
	if err != nil {
		return err
	}
	defer sys.close()
	p.setups = append(p.setups, setup.Seconds())
	if e.c == nil {
		e.c = fresh
		e.c.prepare()
	}

	stopRSS := make(chan struct{})
	sampled := make(chan []float64, 1)
	go func() { sampled <- sampleRSS(sys.pid(), stopRSS) }()
	streams := freshStreams(e.c, len(sys.targets), l)
	runs := driveAll(sys.targets, streams, min(time.Second, per*15/100), per, 1<<30, false)
	close(stopRSS)
	p.rssKB = append(p.rssKB, <-sampled...)
	hwm, err := procStatusKB(sys.pid(), "VmHWM")
	if err != nil {
		return err
	}
	if e.w.Lib {
		p.peaksKB = p.peaksKB[:0] // one process, one high-water mark: keep the latest
	}
	p.peaksKB = append(p.peaksKB, hwm)
	if len(sys.conns) > 0 {
		if st, err := sys.conns[0].Stats(); err == nil {
			p.rebuilds += st.Rebuilds
			if st.Cache != nil {
				res.Notes["cache"] = fmt.Sprintf("%+v", *st.Cache)
			}
		}
	}

	first := len(p.lats)
	for i := range runs {
		r := &runs[i]
		res.Attempted += r.attempted
		res.fail(r.failed, r.firstErr)
		for _, s := range r.samples {
			p.lats = append(p.lats, s.Lat)
			p.byKind[s.Kind] = append(p.byKind[s.Kind], s.Lat)
		}
	}
	if own := durationsUS(p.lats[first:]); len(own) > 0 {
		res.Notes["launches"] += fmt.Sprintf("[n=%d p50_us=%.1f p99_us=%.1f] ", len(own), quantile(own, 0.5), quantile(own, 0.99))
	}
	for i := range runs {
		r := &runs[i]
		for _, a := range r.audits {
			res.Attempted++
			if err := e.c.check(a); err != nil {
				res.fail(1, err)
			}
		}
	}
	if e.w.Durable {
		lost, n, took, err := e.crashAndVerify(sys, streams)
		if err != nil {
			return err
		}
		res.Attempted += n
		res.fail(lost, fmt.Errorf("%d acknowledged writes lost across the crash", lost))
		p.checked += n
		p.recovery = append(p.recovery, took.Seconds())
	}
	return nil
}

// runEndToEnd measures one workload with tracing off, over launches
// launches that share seconds equally.
func runEndToEnd(ctx context.Context, w workload, seed int64, seconds float64, launches int) (*runResult, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(mkBuildDir(root), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{ctx: ctx, w: w, seed: seed, tmp: tmp}
	if !w.Lib {
		if e.bin, err = buildElsid(ctx, root); err != nil {
			return nil, err
		}
	}

	res := &runResult{Workload: w.Name, Seed: seed, Metrics: map[string]float64{}, Notes: map[string]string{}}
	per := time.Duration(seconds / float64(launches) * float64(time.Second))
	var p pooled
	for l := 0; l < launches; l++ {
		if err := e.launch(l, per, res, &p); err != nil {
			return nil, err
		}
	}
	if len(p.lats) == 0 {
		return nil, fmt.Errorf("no operation completed: %s", res.Notes["first_error"])
	}
	if len(p.rssKB) == 0 {
		p.rssKB = p.peaksKB // a run shorter than the sampler's tick
	}

	// Every figure is over the whole of the measured time, so a server
	// that stalls — for a rebuild's swap, a flush, anything — pays for it
	// in all three: the operations it did not complete are missing from
	// ops_per_s, and the ones that waited are in the percentiles.
	us := durationsUS(p.lats)
	res.Metrics["setup_s"] = median(p.setups)
	res.Metrics["ops_per_s"] = float64(len(us)) / (per.Seconds() * float64(launches))
	res.Metrics["p50_us"] = quantile(us, 0.50)
	res.Metrics["p99_us"] = quantile(us, 0.99)
	res.Metrics["rss_mb"] = median(p.rssKB) / 1024
	res.Notes["samples"] = fmt.Sprintf("%d (a p99 needs 1,000); p999_us=%.1f max_us=%.1f", len(us), quantile(us, 0.999), us[len(us)-1])
	res.Notes["peak_rss_mb"] = fmt.Sprintf("%.2f (VmHWM; rss_mb is the median of %d VmRSS samples)", median(p.peaksKB)/1024, len(p.rssKB))
	res.Notes["setups_s"] = fmt.Sprintf("%.3f", p.setups)
	res.Notes["rebuilds"] = strconv.Itoa(p.rebuilds)
	for k, ds := range p.byKind {
		if len(ds) > 0 {
			ku := durationsUS(ds)
			res.Notes["kind_"+kindNames[k]] = fmt.Sprintf("n=%d p50_us=%.1f p99_us=%.1f max_us=%.1f", len(ku), quantile(ku, 0.5), quantile(ku, 0.99), ku[len(ku)-1])
		}
	}
	if w.Durable {
		res.Notes["recovery_s"] = strconv.FormatFloat(median(p.recovery), 'f', 3, 64)
		res.Notes["acked_writes_checked"] = strconv.Itoa(p.checked)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func mkBuildDir(root string) string {
	dir := buildDir(root)
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports what matters
	return dir
}

// crashAndVerify is the durability check: SIGKILL the server, start it
// again on the same directory, and ask it for every write it had
// acknowledged. SIGKILL leaves the operating system's cache intact, so
// this is process-crash durability, not power-loss durability.
func (e *env) crashAndVerify(sys *system, streams []*stream) (lost, checked int, recovery time.Duration, err error) {
	closeAll(sys.conns)
	sys.conns = nil
	sys.child.kill()
	begin := time.Now()
	sys.child, err = startElsid(e.ctx, e.bin, e.w, e.tmp, sys.dataDir)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("restart after kill: %w", err)
	}
	recovery = time.Since(begin)

	type probe struct {
		pt   geo.Point
		want bool
	}
	var probes []probe
	for _, st := range streams {
		for _, p := range st.live {
			probes = append(probes, probe{p, true})
		}
		for _, p := range st.dead {
			probes = append(probes, probe{p, false})
		}
	}
	// many more connections than clients: the check is not timed, and the
	// server answers concurrent point queries a batch at a time
	const verifiers = 64
	conns, err := dialAll(sys.child.addr, verifiers)
	if err != nil {
		return 0, 0, 0, err
	}
	defer closeAll(conns)
	bad := make([]int, verifiers)
	var wg sync.WaitGroup
	for v := 0; v < verifiers; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			for i := v; i < len(probes); i += verifiers {
				if found, err := conns[v].PointQuery(probes[i].pt); err != nil || found != probes[i].want {
					bad[v]++
				}
			}
		}(v)
	}
	wg.Wait()
	for _, b := range bad {
		lost += b
	}
	return lost, len(probes), recovery, nil
}
