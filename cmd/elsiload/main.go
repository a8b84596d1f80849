// Command elsiload is the open-loop load generator for elsid: it
// fires requests at the server with seeded Poisson arrivals (the
// inter-arrival gaps are Exp(rate) draws from a deterministic
// generator — wall-clock time is used only to measure latency, never
// as a randomness source) and reports client-observed p50/p99/p999
// latency per operation, overall throughput, and the server's own
// /stats counters.
//
// Open loop means arrivals do not wait for completions: when the
// server falls behind, requests queue and the measured latency grows —
// the honest failure mode closed-loop generators hide.
//
// Usage:
//
//	elsiload -target tcp://127.0.0.1:9090 -rate 2000 -duration 10s
//	elsiload -target http://127.0.0.1:8080 -rate 500 -duration 5s
//	elsiload -target tcp://127.0.0.1:9090 -zipf 1.2 -mix 60:15:10:10:5 -o report.json
//
// elsiload is a pure client: the stack under test is whatever elsid
// was started with (e.g. elsid -shards 4 -cache -adaptive), and a
// comparison across stacks is one elsid start and one elsiload run per
// configuration. The repository benchmark (benchmark/README.md) is
// where served throughput and latency are measured.
//
// The workload shape is controlled by -mix (operation ratios) and
// -zipf (query skew): with -zipf s > 1, query centers are drawn
// Zipf(s) from a pool of -hotspots actual data points instead of
// uniformly, reproducing the hot-spotted read traffic of real spatial
// decision workloads. Identical hot queries repeat exactly, so the
// result cache (elsid -cache) has something to hit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"elsi/internal/client"
	"elsi/internal/dataset"
	"elsi/internal/engine"
	"elsi/internal/geo"
)

// apiClient is the operation surface both transports expose.
type apiClient interface {
	PointQuery(pt geo.Point) (bool, error)
	WindowQuery(win geo.Rect) ([]geo.Point, error)
	KNN(q geo.Point, k int) ([]geo.Point, error)
	Insert(pt geo.Point) (bool, error)
	Delete(pt geo.Point) (bool, error)
	Stats() (engine.Stats, error)
}

func main() {
	var (
		target   = flag.String("target", "", "server address: tcp://host:port or http://host:port")
		rate     = flag.Float64("rate", 1000, "offered load in requests/second")
		duration = flag.Duration("duration", 5*time.Second, "measured load duration")
		warmup   = flag.Duration("warmup", 0, "run the stream this long before measuring; warmup samples are excluded from the latency percentiles and throughput")
		conns    = flag.Int("conns", 16, "connection pool size (TCP conns / HTTP concurrency bound)")
		seed     = flag.Int64("seed", 1, "random seed for arrivals and the op mix")
		mix      = flag.String("mix", "40:10:15:20:15", "operation ratios point:window:knn[:insert:delete] (3 parts = read-only)")
		zipfS    = flag.Float64("zipf", 0, "query-center skew: Zipf exponent over the hotspot pool (> 1 enables, 0 = uniform centers)")
		hotspots = flag.Int("hotspots", 128, "hotspot pool size for -zipf (drawn from the data set prefix)")
		out      = flag.String("o", "-", "output path for the JSON report (- = stdout)")
	)
	flag.Parse()

	mx, err := newMixer(*mix, *zipfS, *hotspots, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elsiload:", err)
		os.Exit(1)
	}
	if err := run(*target, *rate, *duration, *warmup, *conns, *seed, mx, *mix, *zipfS, *out); err != nil {
		fmt.Fprintln(os.Stderr, "elsiload:", err)
		os.Exit(1)
	}
}

func run(target string, rate float64, duration, warmup time.Duration, conns int, seed int64, mx *mixer, mixSpec string, zipfS float64, out string) error {
	if target == "" {
		return fmt.Errorf("need -target")
	}
	report := benchReport{
		Name:     "serving-loadtest",
		Seed:     seed,
		RateRPS:  rate,
		Duration: duration.String(),
		Conns:    conns,
		Mix:      mixSpec,
	}
	if zipfS > 0 {
		report.Zipf = zipfS
		report.Hotspots = len(mx.hot)
	}
	if warmup > 0 {
		report.Warmup = warmup.String()
	}
	res, err := runLoad(target, rate, duration, warmup, conns, seed, mx)
	if err != nil {
		return err
	}
	report.Runs = append(report.Runs, res)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// dialPool builds the bounded client pool for a target URL.
func dialPool(target string, conns int) (chan apiClient, string, func(), error) {
	pool := make(chan apiClient, conns)
	switch {
	case strings.HasPrefix(target, "tcp://"):
		addr := strings.TrimPrefix(target, "tcp://")
		var opened []*client.TCP
		for i := 0; i < conns; i++ {
			c, err := client.DialTCP(addr)
			if err != nil {
				for _, o := range opened {
					o.Close()
				}
				return nil, "", nil, err
			}
			opened = append(opened, c)
			pool <- c
		}
		return pool, "tcp", func() {
			for _, o := range opened {
				o.Close()
			}
		}, nil
	case strings.HasPrefix(target, "http://"):
		hc := &client.HTTP{Base: target, C: &http.Client{
			Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
		}}
		// one shared HTTP client; the pool's slots bound the concurrency
		for i := 0; i < conns; i++ {
			pool <- hc
		}
		return pool, "http", func() {}, nil
	default:
		return nil, "", nil, fmt.Errorf("target %q: want tcp://host:port or http://host:port", target)
	}
}

// sample is one completed request. warm marks arrivals inside the
// warmup window; they drive load but never reach the summaries.
type sample struct {
	op   string
	lat  time.Duration
	err  error
	warm bool
}

// runLoad fires the Poisson-arrival request stream at target. The
// stream runs for warmup+duration; samples whose arrival falls inside
// the warmup window are discarded before summarizing, so connection
// setup, server JIT effects, and cold caches don't pollute the
// percentiles.
func runLoad(target string, rate float64, duration, warmup time.Duration, conns int, seed int64, mx *mixer) (runResult, error) {
	pool, transport, cleanup, err := dialPool(target, conns)
	if err != nil {
		return runResult{}, err
	}
	defer cleanup()

	rng := rand.New(rand.NewSource(seed))
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	record := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}

	start := time.Now()
	next := start
	for {
		// Exp(rate) inter-arrival gap from the seeded generator
		next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if next.Sub(start) > warmup+duration {
			break
		}
		op, call := mx.nextOp(rng)
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		arrival := next // latency includes any queueing for a pool slot
		warm := arrival.Sub(start) < warmup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := <-pool
			err := call(c)
			pool <- c
			record(sample{op: op, lat: time.Since(arrival), err: err, warm: warm})
		}()
	}
	wg.Wait()
	elapsed := time.Since(start) - warmup

	measured := samples[:0]
	for _, s := range samples {
		if !s.warm {
			measured = append(measured, s)
		}
	}
	res := summarize(measured, elapsed)
	res.Transport = transport
	res.Target = target

	// the server's own view of the run
	c := <-pool
	if st, err := c.Stats(); err == nil {
		res.ServerStats = &st
		if st.Cache != nil {
			res.CacheHitRate = st.Cache.HitRate
		}
	}
	pool <- c
	return res, nil
}

// mixer draws operations from the configured ratio and, with -zipf,
// their centers Zipf-skewed from a pool of actual data points. Hot
// point queries are the pool points themselves and hot windows are
// fixed per-hotspot rects, so the same query repeats byte-identically
// — the access pattern a result cache exists for. Inserts and deletes
// always use uniform fresh coordinates: writes are not hot-spotted,
// and a delete of a random coordinate is the (almost always) no-op it
// was before this flag existed.
type mixer struct {
	cum  [5]float64 // cumulative point, window, knn, insert, delete
	zipf *rand.Zipf // nil = uniform centers
	hot  []geo.Point
}

// windowSizes are the per-hotspot window half-sizes; all four keep the
// area under qcache's default small-window bound.
var windowSizes = [4]float64{0.004, 0.008, 0.012, 0.016}

// newMixer parses "p:w:k" or "p:w:k:i:d" ratios and, for s > 1, seeds
// the Zipf hotspot pool with the first `hotspots` points of the
// uniform data set — the same prefix elsid serves at its default
// -dataset uniform and the same -seed, so hot point queries are
// guaranteed members.
func newMixer(mix string, s float64, hotspots int, seed int64) (*mixer, error) {
	parts := strings.Split(mix, ":")
	if len(parts) != 3 && len(parts) != 5 {
		return nil, fmt.Errorf("bad -mix %q: want point:window:knn or point:window:knn:insert:delete", mix)
	}
	m := &mixer{}
	total := 0.0
	for i, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad -mix entry %q", p)
		}
		total += w
		m.cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("bad -mix %q: all weights zero", mix)
	}
	for i := range m.cum {
		if i >= len(parts) {
			m.cum[i] = total // absent write weights: never drawn
		}
		m.cum[i] /= total
	}
	//lint:ignore floateq 0 is the documented -zipf off sentinel, compared exactly
	if s != 0 {
		if s <= 1 {
			return nil, fmt.Errorf("bad -zipf %v: want an exponent > 1 (0 disables)", s)
		}
		if hotspots < 1 {
			return nil, fmt.Errorf("bad -hotspots %d", hotspots)
		}
		m.hot = dataset.MustGenerate(dataset.Uniform, hotspots, seed)
		m.zipf = rand.NewZipf(rand.New(rand.NewSource(seed+1)), s, 1, uint64(hotspots-1))
	}
	return m, nil
}

// center draws a query center: the i-th hottest pool point under the
// Zipf law, or a fresh uniform point.
func (m *mixer) center(rng *rand.Rand) (geo.Point, int) {
	if m.zipf == nil {
		return geo.Point{X: rng.Float64(), Y: rng.Float64()}, -1
	}
	i := int(m.zipf.Uint64())
	return m.hot[i], i
}

// nextOp draws one operation from the mix.
func (m *mixer) nextOp(rng *rand.Rand) (string, func(apiClient) error) {
	r := rng.Float64()
	if r >= m.cum[2] { // writes: always uniform fresh coordinates
		q := geo.Point{X: rng.Float64(), Y: rng.Float64()}
		if r < m.cum[3] {
			return "insert", func(c apiClient) error { _, err := c.Insert(q); return err }
		}
		return "delete", func(c apiClient) error { _, err := c.Delete(q); return err }
	}
	q, hi := m.center(rng)
	switch {
	case r < m.cum[0]:
		return "point", func(c apiClient) error { _, err := c.PointQuery(q); return err }
	case r < m.cum[1]:
		hs := 0.02
		if hi >= 0 {
			hs = windowSizes[hi%len(windowSizes)] // fixed per hotspot → exact repeats
		}
		win := geo.Rect{MinX: q.X, MinY: q.Y, MaxX: q.X + hs, MaxY: q.Y + hs}
		return "window", func(c apiClient) error { _, err := c.WindowQuery(win); return err }
	default:
		k := 1 + rng.Intn(16)
		return "knn", func(c apiClient) error { _, err := c.KNN(q, k); return err }
	}
}

// --- reporting ----------------------------------------------------------

type latencySummary struct {
	Count      int     `json:"count"`
	Errors     int     `json:"errors"`
	Overloaded int     `json:"overloaded"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	P999Ms     float64 `json:"p999_ms"`
	MaxMs      float64 `json:"max_ms"`
}

type runResult struct {
	Transport    string                    `json:"transport"`
	Target       string                    `json:"target"`
	CacheHitRate float64                   `json:"cache_hit_rate,omitempty"`
	AchievedRPS  float64                   `json:"achieved_rps"`
	Overall      latencySummary            `json:"overall"`
	PerOp        map[string]latencySummary `json:"per_op"`
	// ServerStats is the server's own view, including the result-cache
	// counters and the per-shard workload monitor/profile breakdown.
	ServerStats *engine.Stats `json:"server_stats,omitempty"`
}

type benchReport struct {
	Name     string      `json:"name"`
	Seed     int64       `json:"seed"`
	RateRPS  float64     `json:"rate_rps"`
	Duration string      `json:"duration"`
	Warmup   string      `json:"warmup,omitempty"`
	Conns    int         `json:"conns"`
	Mix      string      `json:"mix,omitempty"`
	Zipf     float64     `json:"zipf,omitempty"`
	Hotspots int         `json:"hotspots,omitempty"`
	Runs     []runResult `json:"runs"`
}

func summarize(samples []sample, elapsed time.Duration) runResult {
	res := runResult{
		AchievedRPS: float64(len(samples)) / elapsed.Seconds(),
		Overall:     summarizeOp(samples),
		PerOp:       map[string]latencySummary{},
	}
	byOp := map[string][]sample{}
	for _, s := range samples {
		byOp[s.op] = append(byOp[s.op], s)
	}
	for op, ss := range byOp {
		res.PerOp[op] = summarizeOp(ss)
	}
	return res
}

func summarizeOp(samples []sample) latencySummary {
	sum := latencySummary{Count: len(samples)}
	lats := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.err != nil {
			if errors.Is(s.err, engine.ErrOverloaded) {
				sum.Overloaded++
			} else {
				sum.Errors++
			}
			continue
		}
		lats = append(lats, float64(s.lat)/float64(time.Millisecond))
	}
	sort.Float64s(lats)
	sum.P50Ms = percentile(lats, 0.50)
	sum.P90Ms = percentile(lats, 0.90)
	sum.P99Ms = percentile(lats, 0.99)
	sum.P999Ms = percentile(lats, 0.999)
	if len(lats) > 0 {
		sum.MaxMs = lats[len(lats)-1]
	}
	return sum
}

// percentile returns the q-quantile of sorted values (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
