package main

// The registry is the benchmark's vocabulary: the four workloads and
// every metric name, unit and direction. BENCHMARK.json at the repo
// root must list exactly these (bench_test.go compares the two), so a
// metric cannot be added, renamed or dropped in one place only.

// metricDef declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before compare calls
// it a regression; per-layer metrics carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a caller of the system sees. A bound covers its
// metric on all four workloads. ISSUE 11 asked for 0.05 on ops_per_s and
// p50_us and allowed widening to 0.10 and no further; 0.10 is what every
// workload's spread over ten seeds stays inside on the calibration box
// (README.md, "How the bounds were calibrated"), lib_elsi being the one
// that needs more than 0.05.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.10},
	{"ops_per_s", "1/s", higher, 0.10},
	{"p50_us", "us", lower, 0.10},
	{"p99_us", "us", lower, 0.10},
	{"rss_mb", "MB", lower, 0.10},
}

// offPath is what a traced run reports for a per-layer metric it had
// nothing to measure for: the layer is not on the workload's path (no
// cache on served_point, no engine under lib_elsi), or the event the
// metric times did not happen (no rebuild fired). The result line must
// carry every name, and no time, count or ratio is negative, so -1
// cannot be mistaken for a measured 0.
const offPath = -1

// perLayer names the module a metric belongs to as its prefix.
var perLayer = []metricDef{
	{Name: "zm.point_ns", Unit: "ns", Better: lower},
	{Name: "zm.window_us", Unit: "us", Better: lower},
	{Name: "zm.knn_us", Unit: "us", Better: lower},
	{Name: "zm.scanned_per_result", Unit: "count", Better: lower},
	{Name: "zm.model_calls_per_op", Unit: "count", Better: lower},
	{Name: "zm.allocs_per_op", Unit: "count", Better: lower},

	{Name: "core.build_ms", Unit: "ms", Better: lower},
	{Name: "core.fallbacks", Unit: "count", Better: lower},
	{Name: "rmi.train_ms", Unit: "ms", Better: lower},
	{Name: "rmi.bounds_ms", Unit: "ms", Better: lower},

	{Name: "rebuild.build_ms", Unit: "ms", Better: lower},
	{Name: "rebuild.point_ns", Unit: "ns", Better: lower},
	{Name: "rebuild.insert_ns", Unit: "ns", Better: lower},
	{Name: "rebuild.rebuilds", Unit: "count", Better: higher},
	{Name: "rebuild.pending_max", Unit: "count", Better: lower},
	{Name: "rebuild.swap_stall_us", Unit: "us", Better: lower},

	{Name: "qserve.batch1_ns", Unit: "ns", Better: lower},
	{Name: "shard.route_ns", Unit: "ns", Better: lower},
	{Name: "shard.window_fanout", Unit: "count", Better: lower},
	{Name: "shard.pruned_ratio", Unit: "ratio", Better: higher},

	{Name: "qcache.hit_ratio", Unit: "ratio", Better: higher},
	{Name: "qcache.get_ns", Unit: "ns", Better: lower},
	{Name: "qcache.evictions", Unit: "count", Better: lower},

	{Name: "engine.self_us", Unit: "us", Better: lower},
	{Name: "engine.queue_wait_us", Unit: "us", Better: lower},
	{Name: "engine.batch_size_mean", Unit: "count", Better: higher},
	{Name: "engine.flush_timer_ratio", Unit: "ratio", Better: lower},
	{Name: "engine.overload_ratio", Unit: "ratio", Better: lower},

	{Name: "protocol.req_encode_ns", Unit: "ns", Better: lower},
	{Name: "protocol.resp_decode_ns", Unit: "ns", Better: lower},
	{Name: "protocol.resp_bytes_per_op", Unit: "B", Better: lower},
	{Name: "transport.self_us", Unit: "us", Better: lower},
	{Name: "net.loopback_rtt_us", Unit: "us", Better: lower},

	{Name: "persist.insert_self_us", Unit: "us", Better: lower},
	{Name: "wal.append_us", Unit: "us", Better: lower},
	{Name: "wal.bytes_per_record", Unit: "B", Better: lower},
	{Name: "persist.bytes_per_update", Unit: "B", Better: lower},
	{Name: "persist.snapshot_ms", Unit: "ms", Better: lower},
	{Name: "persist.recovery_ms", Unit: "ms", Better: lower},

	{Name: "client.p999_us", Unit: "us", Better: lower},
	{Name: "client.max_us", Unit: "us", Better: lower},
	{Name: "trace.top_p50_us", Unit: "us", Better: lower},
	{Name: "trace.selfsum_ratio", Unit: "ratio", Better: lower},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "trace.peak_rss_mb", Unit: "MB", Better: lower},
}

// opKind is one operation type of the serving surface.
type opKind uint8

const (
	opPoint opKind = iota
	opWindow
	opKNN
	opInsert
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"point", "window", "knn", "insert", "delete"}

// workload is one traffic mix plus the deployment it runs against. The
// flag-shaped fields are exactly what the elsid child is started with;
// everything not listed stays at elsid's default, because the defaults
// are what is being measured.
type workload struct {
	Name string
	Why  string

	Dataset  string
	N        int // initial cardinality
	Shards   int
	Cache    bool
	Adaptive bool
	Durable  bool // -data <tmp> -fsync <durableFsync>
	Fu       int  // rebuild-predictor check frequency (0 = elsid default)
	Lib      bool // in-process rebuild.Processor, no serving stack

	// Mix is the operation weights in opKind order.
	Mix [numKinds]int
}

var workloads = []workload{
	{
		Name:    "served_point",
		Why:     "point queries through elsid defaults: the index does <0.1% of the work, so hand-off, codec and socket are the cost",
		Dataset: "uniform", N: 200000, Shards: 1,
		Mix: [numKinds]int{opPoint: 100},
	},
	{
		Name:    "served_hot_mix",
		Why:     "Zipf(1.2) reads over 4,096 hot spots beside 15% writes, 4 shards, cache and adaptivity on: a cache or routing gain that costs writes shows",
		Dataset: "osm1", N: 200000, Shards: 4, Cache: true, Adaptive: true,
		Mix: [numKinds]int{opPoint: 60, opWindow: 15, opKNN: 10, opInsert: 10, opDelete: 5},
	},
	{
		Name:    "durable_drift",
		Why:     "WAL-logged inserts from a moving hot spot so rebuild, swap, snapshot and WAL trim run under load, then SIGKILL and verified recovery",
		Dataset: "osm1", N: 8000, Shards: 4, Durable: true, Fu: 400,
		Mix: [numKinds]int{opPoint: 30, opInsert: 60, opDelete: 10},
	},
	{
		Name:    "lib_elsi",
		Why:     "in-process ELSI-built ZM answering window, kNN and point queries: predict, scan and refine are the whole cost, no serving stack",
		Dataset: "osm1", N: 200000, Shards: 1, Lib: true,
		Mix: [numKinds]int{opPoint: 30, opWindow: 40, opKNN: 30},
	},
}

// durableFsync is the WAL policy of the durable workload: group commit.
// Under "always" every write waits for the sandbox's virtual disk, whose
// flush time wandered between 150 and 500 µs over an afternoon and took
// p50_us with it (spread 0.33 over ten identical runs); with group
// commit the disk is still written and flushed every 5 ms, but off the
// latency path, and the write path's own code is what the latency shows.
// wal.append_us keeps timing the flush itself, under "always".
const durableFsync = "5ms"

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// readOnly reports whether the mix never mutates, which is when sampled
// window and kNN answers can be compared with brute force exactly.
func (w workload) readOnly() bool {
	return w.Mix[opInsert] == 0 && w.Mix[opDelete] == 0
}
