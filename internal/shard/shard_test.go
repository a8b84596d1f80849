package shard

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"elsi/internal/base"
	"elsi/internal/curve"
	"elsi/internal/dataset"
	"elsi/internal/geo"
	"elsi/internal/index"
	"elsi/internal/rebuild"
	"elsi/internal/rmi"
	"elsi/internal/zm"
)

func xKey(p geo.Point) float64 { return p.X }

// bruteMaker builds a brute-force shard processor that never triggers
// rebuilds on its own.
func bruteMaker(pts []geo.Point) (*rebuild.Processor, error) {
	p, err := rebuild.NewProcessor(index.NewBruteForce(), nil, pts, xKey, 1<<30)
	if err != nil {
		return nil, err
	}
	p.Factory = func() rebuild.Rebuildable { return index.NewBruteForce() }
	return p, nil
}

// zmMaker builds a learned-index (ZM) shard processor.
func zmMaker(pts []geo.Point) (*rebuild.Processor, error) {
	factory := func() rebuild.Rebuildable {
		return zm.New(zm.Config{
			Space:   geo.UnitRect,
			Builder: &base.Direct{Trainer: rmi.PiecewiseTrainer(1.0 / 256)},
			Fanout:  8,
		})
	}
	mapKey := factory().(*zm.Index).MapKey
	p, err := rebuild.NewProcessor(factory(), nil, pts, mapKey, 1<<30)
	if err != nil {
		return nil, err
	}
	p.Factory = factory
	return p, nil
}

func samePoints(a, b []geo.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// canonWindow canonicalizes an unsharded window answer into the
// router's (X, Y) gather order.
func canonWindow(pts []geo.Point) []geo.Point {
	out := append([]geo.Point(nil), pts...)
	SortPointsXY(out)
	return out
}

func randWindow(rng *rand.Rand, maxSide float64) geo.Rect {
	x, y := rng.Float64(), rng.Float64()
	return geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*maxSide, MaxY: y + rng.Float64()*maxSide}
}

// checkEquivalence runs a deterministic mixed workload against the
// router and a mirrored unsharded processor and fails on the first
// divergence. Updates are applied to both sides in the same order.
func checkEquivalence(t *testing.T, r *Router, base *rebuild.Processor, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for op := 0; op < ops; op++ {
		switch rng.Intn(6) {
		case 0:
			p := geo.Point{X: rng.Float64(), Y: rng.Float64()}
			if got, want := r.PointQuery(p), base.PointQuery(p); got != want {
				t.Fatalf("op %d: PointQuery(%v) = %v, want %v", op, p, got, want)
			}
		case 1:
			win := randWindow(rng, 0.25)
			got := r.WindowQuery(win)
			want := canonWindow(base.WindowQuery(win))
			if !samePoints(got, want) {
				t.Fatalf("op %d: WindowQuery(%v) diverged: %d pts vs %d", op, win, len(got), len(want))
			}
		case 2:
			q := geo.Point{X: rng.Float64(), Y: rng.Float64()}
			k := 1 + rng.Intn(12)
			got := r.KNN(q, k)
			want := base.KNN(q, k)
			if !samePoints(got, want) {
				t.Fatalf("op %d: KNN(%v, %d) diverged:\n got %v\nwant %v", op, q, k, got, want)
			}
		case 3:
			p := geo.Point{X: rng.Float64(), Y: rng.Float64()}
			r.Insert(p)
			base.Insert(p)
		case 4:
			// delete a point that likely exists: re-derive from a past seed
			p := geo.Point{X: rng.Float64(), Y: rng.Float64()}
			r.Delete(p)
			base.Delete(p)
		default:
			// point query at a stored location after its insert
			p := geo.Point{X: rng.Float64(), Y: rng.Float64()}
			r.Insert(p)
			base.Insert(p)
			if got, want := r.PointQuery(p), base.PointQuery(p); got != want {
				t.Fatalf("op %d: PointQuery of fresh insert = %v, want %v", op, got, want)
			}
		}
	}
}

// TestRouterMatchesUnsharded is the core equivalence suite: for each
// shard count the router must answer a mixed workload of queries and
// updates exactly like a single unsharded processor over the same
// data, with deletions of stored points mixed in.
func TestRouterMatchesUnsharded(t *testing.T) {
	for _, s := range []int{1, 2, 7, 16} {
		t.Run("", func(t *testing.T) {
			pts := dataset.MustGenerate(dataset.Uniform, 3000, 31)
			baseProc, err := bruteMaker(append([]geo.Point(nil), pts...))
			if err != nil {
				t.Fatal(err)
			}
			r, err := New(pts, geo.UnitRect, Config{Shards: s, Workers: 1}, bruteMaker)
			if err != nil {
				t.Fatal(err)
			}
			// delete a slice of genuinely stored points on both sides
			for i := 0; i < len(pts); i += 17 {
				r.Delete(pts[i])
				baseProc.Delete(pts[i])
			}
			if r.Len() != baseProc.Len() {
				t.Fatalf("Len = %d, want %d", r.Len(), baseProc.Len())
			}
			checkEquivalence(t, r, baseProc, int64(1000+s), 400)
		})
	}
}

// TestRouterMatchesUnshardedZM repeats the equivalence check with the
// learned ZM index behind every shard.
func TestRouterMatchesUnshardedZM(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 4000, 33)
	baseProc, err := zmMaker(append([]geo.Point(nil), pts...))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(pts, geo.UnitRect, Config{Shards: 4, Workers: 1}, zmMaker)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, r, baseProc, 77, 300)
}

// TestRouterDeterministicAcrossShardCounts asserts raw byte-identity
// of every query answer across shard counts and worker counts: the
// partitioning and the scatter width are invisible in the results.
func TestRouterDeterministicAcrossShardCounts(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 5000, 35)
	type variant struct {
		r *Router
		s int
		w int
	}
	var vs []variant
	for _, s := range []int{1, 2, 7, 16} {
		for _, w := range []int{1, 4} {
			r, err := New(pts, geo.UnitRect, Config{Shards: s, Workers: w}, bruteMaker)
			if err != nil {
				t.Fatal(err)
			}
			vs = append(vs, variant{r, s, w})
		}
	}
	rng := rand.New(rand.NewSource(99))
	wins := make([]geo.Rect, 40)
	qs := make([]geo.Point, 40)
	ks := make([]int, 40)
	for i := range wins {
		wins[i] = randWindow(rng, 0.2)
		qs[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
		ks[i] = 1 + rng.Intn(10)
	}
	wantWin := vs[0].r.WindowBatch(wins, nil)
	wantKNN := vs[0].r.KNNVarBatch(qs, ks, nil)
	for _, v := range vs[1:] {
		gotWin := v.r.WindowBatch(wins, nil)
		gotKNN := v.r.KNNVarBatch(qs, ks, nil)
		for i := range wins {
			if !samePoints(gotWin[i], wantWin[i]) {
				t.Fatalf("S=%d W=%d: window %d diverged from S=1", v.s, v.w, i)
			}
			if !samePoints(gotKNN[i], wantKNN[i]) {
				t.Fatalf("S=%d W=%d: kNN %d diverged from S=1", v.s, v.w, i)
			}
		}
	}
}

// TestBatchedMatchesSerial pins the Backend batch surface to the
// serial scatter-gather paths for several worker counts.
func TestBatchedMatchesSerial(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 4000, 37)
	for _, w := range []int{1, 4} {
		r, err := New(pts, geo.UnitRect, Config{Shards: 7, Workers: w}, bruteMaker)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		probes := make([]geo.Point, 200)
		for i := range probes {
			if i%2 == 0 {
				probes[i] = pts[rng.Intn(len(pts))]
			} else {
				probes[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
			}
		}
		got := r.PointBatch(probes, nil)
		for i, p := range probes {
			if got[i] != r.PointQuery(p) {
				t.Fatalf("W=%d: PointBatch[%d] = %v, serial disagrees", w, i, got[i])
			}
		}
		wins := make([]geo.Rect, 50)
		for i := range wins {
			wins[i] = randWindow(rng, 0.3)
		}
		gotWins := r.WindowBatch(wins, nil)
		for i, win := range wins {
			if !samePoints(gotWins[i], r.WindowQuery(win)) {
				t.Fatalf("W=%d: WindowBatch[%d] diverged from serial", w, i)
			}
		}
		qs := make([]geo.Point, 50)
		ks := make([]int, 50)
		for i := range qs {
			qs[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
			ks[i] = 1 + rng.Intn(8)
		}
		gotKNN := r.KNNVarBatch(qs, ks, nil)
		for i := range qs {
			if !samePoints(gotKNN[i], r.KNN(qs[i], ks[i])) {
				t.Fatalf("W=%d: KNNVarBatch[%d] diverged from serial", w, i)
			}
		}
	}
}

// TestWindowScatterPrunes asserts the acceptance property directly: a
// small window visits only the shards whose Hilbert key ranges
// intersect its decomposition, and the skipped scatters land in the
// per-shard prune counters.
func TestWindowScatterPrunes(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 20000, 41)
	r, err := New(pts, geo.UnitRect, Config{Shards: 16, Workers: 1}, bruteMaker)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumShards() < 8 {
		t.Fatalf("uniform data split into only %d shards", r.NumShards())
	}
	win := geo.Rect{MinX: 0.01, MinY: 0.01, MaxX: 0.06, MaxY: 0.06}
	got := r.WindowQuery(win)
	// correctness first: the pruned scatter still finds every point
	want := 0
	for _, p := range pts {
		if win.Contains(p) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("pruned scatter returned %d points, want %d", len(got), want)
	}
	st := r.BackendStats()
	visited, skipped := 0, 0
	for _, s := range st.Shards {
		if s.WindowQueries > 0 {
			visited++
		}
		skipped += int(s.WindowsPruned)
	}
	if visited == r.NumShards() {
		t.Fatalf("small window visited all %d shards: no pruning", visited)
	}
	if visited+skipped != r.NumShards() {
		t.Fatalf("visited %d + pruned %d != %d shards", visited, skipped, r.NumShards())
	}
	// the exact pruning predicate: a visited shard's range intersects
	// the decomposition, a skipped one's does not
	ranges := curve.HRangesAppend(win, geo.UnitRect, defaultRangeDepth, nil)
	for i, s := range st.Shards {
		overlap := overlapsAny(ranges, s.KeyLo, s.KeyHi)
		if overlap != (s.WindowQueries > 0) {
			t.Fatalf("shard %d: range overlap %v but visited=%v", i, overlap, s.WindowQueries > 0)
		}
	}
}

// TestKNNScatterPrunes asserts MINDIST pruning: a corner query with a
// small k must cut off the far shards, and the result still matches
// the unsharded answer.
func TestKNNScatterPrunes(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 20000, 43)
	baseProc, err := bruteMaker(append([]geo.Point(nil), pts...))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(pts, geo.UnitRect, Config{Shards: 16, Workers: 1}, bruteMaker)
	if err != nil {
		t.Fatal(err)
	}
	q := geo.Point{X: 0.02, Y: 0.02}
	got := r.KNN(q, 5)
	if !samePoints(got, baseProc.KNN(q, 5)) {
		t.Fatalf("pruned kNN diverged from unsharded")
	}
	st := r.BackendStats()
	visited, skipped := 0, 0
	for _, s := range st.Shards {
		visited += int(s.KNNQueries)
		skipped += int(s.KNNsPruned)
	}
	if skipped == 0 {
		t.Fatalf("corner kNN visited all %d shards: no MINDIST pruning", visited)
	}
	if visited+skipped != r.NumShards() {
		t.Fatalf("visited %d + pruned %d != %d shards", visited, skipped, r.NumShards())
	}
}

// gatedIndex blocks its Build until the gate closes, holding one
// shard's background rebuild in flight.
type gatedIndex struct {
	index.BruteForce
	gate <-chan struct{}
}

func (g *gatedIndex) Build(pts []geo.Point) error {
	<-g.gate
	return g.BruteForce.Build(pts)
}

// TestEquivalenceDuringGatedRebuild holds a background rebuild in
// flight on one shard and checks that queries and updates — including
// ones routed to the rebuilding shard — still match the unsharded
// processor, before and after the build completes.
func TestEquivalenceDuringGatedRebuild(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 3000, 47)
	baseProc, err := bruteMaker(append([]geo.Point(nil), pts...))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(pts, geo.UnitRect, Config{Shards: 4, Workers: 1}, bruteMaker)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	target := &r.shards[0].proc
	(*target).Factory = func() rebuild.Rebuildable { return &gatedIndex{gate: gate} }
	(*target).Rebuild()
	deadline := time.Now().Add(5 * time.Second)
	for !(*target).Rebuilding() {
		if time.Now().After(deadline) {
			t.Fatal("rebuild never started")
		}
		time.Sleep(time.Millisecond)
	}

	checkEquivalence(t, r, baseProc, 51, 300)

	close(gate)
	(*target).WaitRebuild()
	if err := (*target).RebuildErr(); err != nil {
		t.Fatalf("gated rebuild failed: %v", err)
	}
	checkEquivalence(t, r, baseProc, 53, 300)
}

// TestRebuildStaggerCap bounds concurrent background builds across the
// fleet: with MaxConcurrentBuilds=1 and every shard rebuilding at
// once, no two builds may overlap.
func TestRebuildStaggerCap(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 4000, 57)
	var mu sync.Mutex
	cur, peak := 0, 0
	slowMaker := func(pts []geo.Point) (*rebuild.Processor, error) {
		p, err := bruteMaker(pts)
		if err != nil {
			return nil, err
		}
		p.Factory = func() rebuild.Rebuildable {
			return &countingIndex{enter: func() {
				mu.Lock()
				cur++
				if cur > peak {
					peak = cur
				}
				mu.Unlock()
				time.Sleep(20 * time.Millisecond)
				mu.Lock()
				cur--
				mu.Unlock()
			}}
		}
		return p, nil
	}
	r, err := New(pts, geo.UnitRect, Config{Shards: 6, Workers: 1, MaxConcurrentBuilds: 1}, slowMaker)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.shards {
		r.shards[i].proc.Rebuild()
	}
	r.WaitRebuild()
	mu.Lock()
	defer mu.Unlock()
	if peak != 1 {
		t.Fatalf("peak concurrent builds = %d, want 1", peak)
	}
}

type countingIndex struct {
	index.BruteForce
	enter func()
}

func (c *countingIndex) Build(pts []geo.Point) error {
	c.enter()
	return c.BruteForce.Build(pts)
}

// TestConcurrentBatchesAndUpdates hammers the Backend surface from
// many goroutines while updates churn, for the race detector; results
// are spot-checked against the serial surface afterwards.
func TestConcurrentBatchesAndUpdates(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 3000, 61)
	r, err := New(pts, geo.UnitRect, Config{Shards: 4}, bruteMaker)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			probes := make([]geo.Point, 32)
			wins := make([]geo.Rect, 8)
			qs := make([]geo.Point, 8)
			ks := make([]int, 8)
			for it := 0; it < 30; it++ {
				for i := range probes {
					probes[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
				}
				for i := range wins {
					wins[i] = randWindow(rng, 0.1)
					qs[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
					ks[i] = 1 + rng.Intn(5)
				}
				r.PointBatch(probes, nil)
				r.WindowBatch(wins, nil)
				r.KNNVarBatch(qs, ks, nil)
				if g%2 == 0 {
					r.Insert(geo.Point{X: rng.Float64(), Y: rng.Float64()})
				} else {
					r.Delete(pts[rng.Intn(len(pts))])
				}
			}
		}(g)
	}
	wg.Wait()
	st := r.BackendStats()
	if st.Len != r.Len() {
		t.Fatalf("stats Len %d != router Len %d", st.Len, r.Len())
	}
}

// TestPartitionCoversKeySpace checks the partition invariants:
// contiguous, non-empty, sorted ranges covering [0, MaxKey], never
// more than requested.
func TestPartitionCoversKeySpace(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5000)
		want := 1 + rng.Intn(20)
		pts := dataset.MustGenerate(dataset.Uniform, n, int64(trial))
		ranges := partition(pts, geo.UnitRect, want, 1024)
		if len(ranges) > want {
			t.Fatalf("trial %d: %d ranges for S=%d", trial, len(ranges), want)
		}
		if ranges[0].Lo != 0 || ranges[len(ranges)-1].Hi != curve.MaxKey {
			t.Fatalf("trial %d: ranges do not span the key space: %v", trial, ranges)
		}
		for i := 1; i < len(ranges); i++ {
			if ranges[i].Lo != ranges[i-1].Hi+1 {
				t.Fatalf("trial %d: gap between ranges %d and %d: %v", trial, i-1, i, ranges)
			}
		}
	}
}

// TestPartitionSkewCollapses puts every point in one cell: colliding
// split keys must collapse to a single full-range shard instead of
// creating empty partitions.
func TestPartitionSkewCollapses(t *testing.T) {
	pts := make([]geo.Point, 500)
	for i := range pts {
		pts[i] = geo.Point{X: 0.5, Y: 0.5}
	}
	ranges := partition(pts, geo.UnitRect, 8, 1024)
	if len(ranges) != 1 {
		t.Fatalf("skewed data produced %d ranges, want 1: %v", len(ranges), ranges)
	}
}
