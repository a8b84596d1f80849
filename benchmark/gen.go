package main

import (
	"math"
	"math/rand"

	"elsi/internal/dataset"
	"elsi/internal/geo"
)

const (
	hotSpots    = 4096 // fits the 16,384-entry result cache
	zipfS       = 1.2
	hotKNN      = 8
	libKNN      = 64
	hotSigma    = 0.002 // scatter of served_hot_mix inserts round a centre
	driftSigma  = 0.004 // hot-spot radius of durable_drift inserts
	driftEpoch  = 1500  // inserts per client before the hot spot moves
	auditEveryN = 64    // 1-in-N window/kNN answers are kept for the audit
)

// op is one generated request. For point queries Want is the answer
// known by construction: 1 stored, 0 absent.
type op struct {
	Kind opKind
	Pt   geo.Point
	Win  geo.Rect
	K    int
	Want int8
	own  int // delete: position of Pt in the client's live list
}

// corpus is the seeded input shared by all client streams of one run:
// the data set elsid is started on (the child regenerates it from the
// same name, n and seed) and, once prepared, the fixed query shapes
// that make hot queries repeat byte-identically.
type corpus struct {
	W      workload
	Seed   int64
	Pts    []geo.Point
	stored map[geo.Point]struct{}

	hotMiss []geo.Point // per hot spot: a fixed absent point beside it
	hotWin  []geo.Rect  // per hot spot: a fixed small window round it
	libWin  []geo.Rect  // lib_elsi: windows of 0.05% to 0.5% selectivity
	centres []geo.Point // durable_drift: the hot spot's walk
}

// dataSeed generates every workload's scene — the initial data set and
// the fixed query shapes and hot-spot walk laid over it; the run's seed
// drives the request streams: which client asks what, in which order. The osm1 surrogate draws its cluster
// sizes and radii from the seed, and ZM's kNN cost follows the local
// density, so with a data set per seed the same code ran lib_elsi at
// 19,000 to 50,000 ops/s: seed-to-seed differences six times any bound.
// Likewise durable_drift: both clients insert round the same moving
// hot spot, and whether it sits inside one shard (their writes queue
// behind one lock) or across two decides the write latency, so a walk
// per seed moved p50_us by 60%. One scene, many request streams keeps
// runs comparable; a change still has to hold on streams it was not
// written against.
const dataSeed = 1

// newCorpus generates the data set: the part of the input that setting
// the system up needs, and that the first-answer check is made against.
func newCorpus(w workload, seed int64) (*corpus, error) {
	pts, err := dataset.Generate(w.Dataset, w.N, dataSeed)
	if err != nil {
		return nil, err
	}
	c := &corpus{W: w, Seed: seed, Pts: pts, stored: make(map[geo.Point]struct{}, len(pts))}
	for _, p := range pts {
		c.stored[p] = struct{}{}
	}
	return c, nil
}

// prepare derives the query shapes of the workload's streams. It is the
// generator's own work, so it runs after set-up has been timed.
//
// Windows are sized by how many points they return, not by area: on the
// clustered osm1 surrogate a fixed area holds anything from one point
// to a tenth of the data depending on where the seed put the clusters,
// and the cost of a run would be decided by that accident.
func (c *corpus) prepare() {
	rng := rand.New(rand.NewSource(dataSeed ^ 0x5eed))
	switch c.W.Name {
	case "served_hot_mix":
		g := newGrid(c.Pts)
		h := min(hotSpots, len(c.Pts))
		c.hotMiss = make([]geo.Point, h)
		c.hotWin = make([]geo.Rect, h)
		for i := 0; i < h; i++ {
			ctr := c.Pts[i]
			c.hotMiss[i] = c.absentNear(rng, ctr, 1e-4)
			// 4 to 48 points: under the cache's 64-point entry limit,
			// and never wider than the 1e-3 area it accepts
			c.hotWin[i] = g.windowHolding(ctr, 4+rng.Intn(45), math.Sqrt(1e-3)/2)
		}
		// an inserted point must never equal a fixed miss key
		for _, p := range c.hotMiss {
			c.stored[p] = struct{}{}
		}
	case "lib_elsi":
		g := newGrid(c.Pts)
		c.libWin = make([]geo.Rect, 4096)
		lo, hi := len(c.Pts)/2000, len(c.Pts)/200 // 0.05% and 0.5%
		for i := range c.libWin {
			ctr := c.Pts[rng.Intn(len(c.Pts))]
			c.libWin[i] = g.windowHolding(ctr, max(1, lo+rng.Intn(hi-lo+1)), 0.5)
		}
	case "durable_drift":
		c.centres = make([]geo.Point, 256)
		for i := range c.centres {
			c.centres[i] = geo.Point{X: 0.1 + 0.8*rng.Float64(), Y: 0.1 + 0.8*rng.Float64()}
		}
	}
}

// grid buckets the data set into cells so the generator can count the
// points of a candidate window without scanning all of them.
type grid struct {
	start []int32     // cell -> first index into pts
	pts   []geo.Point // the data set ordered by cell
}

const gridSide = 512

func gridCell(v float64) int { return min(gridSide-1, max(0, int(v*gridSide))) }

func newGrid(pts []geo.Point) *grid {
	g := &grid{start: make([]int32, gridSide*gridSide+1), pts: make([]geo.Point, len(pts))}
	for _, p := range pts {
		g.start[gridCell(p.Y)*gridSide+gridCell(p.X)+1]++
	}
	for i := 1; i < len(g.start); i++ {
		g.start[i] += g.start[i-1]
	}
	next := append([]int32(nil), g.start[:len(g.start)-1]...)
	for _, p := range pts {
		c := gridCell(p.Y)*gridSide + gridCell(p.X)
		g.pts[next[c]] = p
		next[c]++
	}
	return g
}

func (g *grid) count(w geo.Rect) int {
	n := 0
	for cy := gridCell(w.MinY); cy <= gridCell(w.MaxY); cy++ {
		row := cy * gridSide
		for _, p := range g.pts[g.start[row+gridCell(w.MinX)]:g.start[row+gridCell(w.MaxX)+1]] {
			if w.Contains(p) {
				n++
			}
		}
	}
	return n
}

// windowHolding returns the smallest square round ctr (to the precision
// of the search) that holds at least want points, its half side capped
// at maxHalf.
func (g *grid) windowHolding(ctr geo.Point, want int, maxHalf float64) geo.Rect {
	square := func(h float64) geo.Rect {
		return geo.Rect{MinX: ctr.X - h, MinY: ctr.Y - h, MaxX: ctr.X + h, MaxY: ctr.Y + h}
	}
	lo, hi := 0.0, maxHalf
	for i := 0; i < 24; i++ {
		mid := (lo + hi) / 2
		if g.count(square(mid)) >= want {
			hi = mid
		} else {
			lo = mid
		}
	}
	return square(hi)
}

// absentNear draws a point within r of ctr that is not stored.
func (c *corpus) absentNear(rng *rand.Rand, ctr geo.Point, r float64) geo.Point {
	for {
		p := geo.UnitRect.Clamp(geo.Point{X: ctr.X + r*(2*rng.Float64()-1), Y: ctr.Y + r*(2*rng.Float64()-1)})
		if _, ok := c.stored[p]; !ok {
			return p
		}
	}
}

// stream is one client's seeded request sequence. Each client owns the
// keys it inserts (the low mantissa bits of X carry the client number,
// so two clients never share a key) and deletes only those, which makes
// the answer to a point query on an own key known whatever the other
// clients do: read-your-writes.
type stream struct {
	c      *corpus
	client int
	rng    *rand.Rand
	zipf   *rand.Zipf
	total  int
	cum    [numKinds]int

	live    []geo.Point            // own inserts acknowledged and not deleted
	dead    []geo.Point            // own deletes acknowledged
	used    map[geo.Point]struct{} // every key this client ever offered for insert
	inserts int
}

func newStream(c *corpus, client, launch int) *stream {
	s := &stream{c: c, client: client, rng: rand.New(rand.NewSource(c.Seed*1000003 + int64(launch*8+client) + 1)), used: map[geo.Point]struct{}{}}
	for k, wgt := range c.W.Mix {
		s.total += wgt
		s.cum[k] = s.total
	}
	if len(c.hotWin) > 1 {
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(len(c.hotWin)-1))
	}
	return s
}

// freshStreams starts one stream per client from the beginning. Each
// launch of a run gets streams of its own, so a run's launches do not
// repeat one another.
func freshStreams(c *corpus, n, launch int) []*stream {
	sts := make([]*stream, n)
	for i := range sts {
		sts[i] = newStream(c, i, launch)
	}
	return sts
}

func (s *stream) kind() opKind {
	r := s.rng.Intn(s.total)
	for k := opKind(0); k < numKinds; k++ {
		if r < s.cum[k] {
			return k
		}
	}
	return opPoint
}

// next generates the following request. Deletes with no live own key
// to remove become inserts, so early in a run the write share is all
// inserts.
func (s *stream) next() op {
	k := s.kind()
	if k == opDelete && len(s.live) == 0 {
		k = opInsert
	}
	switch s.c.W.Name {
	case "served_hot_mix":
		return s.nextHot(k)
	case "durable_drift":
		return s.nextDrift(k)
	case "lib_elsi":
		return s.nextLib(k)
	}
	return s.basePoint()
}

// basePoint is a point query on the initial data: half stored points,
// half guaranteed misses. Initial points are never deleted by anyone.
func (s *stream) basePoint() op {
	if s.rng.Intn(2) == 0 {
		return op{Kind: opPoint, Pt: s.c.Pts[s.rng.Intn(len(s.c.Pts))], Want: 1}
	}
	for {
		p := s.tag(geo.Point{X: s.rng.Float64(), Y: s.rng.Float64()})
		if _, ok := s.c.stored[p]; !ok {
			return op{Kind: opPoint, Pt: p, Want: 0}
		}
	}
}

// ownPoint is a read-your-writes probe, when the client has own keys.
func (s *stream) ownPoint() (op, bool) {
	if len(s.live) > 0 && (len(s.dead) == 0 || s.rng.Intn(2) == 0) {
		return op{Kind: opPoint, Pt: s.live[s.rng.Intn(len(s.live))], Want: 1}, true
	}
	if len(s.dead) > 0 {
		return op{Kind: opPoint, Pt: s.dead[s.rng.Intn(len(s.dead))], Want: 0}, true
	}
	return op{}, false
}

// tag stamps the client number into the low three mantissa bits of X.
// The result cannot equal a stored or fixed-miss key of another client.
func (s *stream) tag(p geo.Point) geo.Point {
	p.X = math.Float64frombits(math.Float64bits(p.X)&^7 | uint64(s.client&7))
	return p
}

// fresh draws a point from a Gaussian round ctr that is inside the
// space, was never stored and was never drawn by this client before.
func (s *stream) fresh(ctr geo.Point, sigma float64) geo.Point {
	for {
		p := s.tag(geo.Point{X: ctr.X + sigma*s.rng.NormFloat64(), Y: ctr.Y + sigma*s.rng.NormFloat64()})
		if !(geo.Rect{MinX: 0.001, MinY: 0.001, MaxX: 0.999, MaxY: 0.999}).Contains(p) {
			continue
		}
		if _, ok := s.c.stored[p]; ok {
			continue
		}
		if _, ok := s.used[p]; !ok {
			s.used[p] = struct{}{}
			return p
		}
	}
}

func (s *stream) delete() op {
	i := s.rng.Intn(len(s.live))
	return op{Kind: opDelete, Pt: s.live[i], own: i}
}

func (s *stream) nextHot(k opKind) op {
	i := 0
	if s.zipf != nil {
		i = int(s.zipf.Uint64())
	}
	switch k {
	case opWindow:
		return op{Kind: opWindow, Win: s.c.hotWin[i]}
	case opKNN:
		return op{Kind: opKNN, Pt: s.c.Pts[i], K: hotKNN}
	case opInsert:
		return op{Kind: opInsert, Pt: s.fresh(s.c.Pts[i], hotSigma)}
	case opDelete:
		return s.delete()
	}
	switch r := s.rng.Intn(8); {
	case r == 0:
		if o, ok := s.ownPoint(); ok {
			return o
		}
	case r <= 2:
		return op{Kind: opPoint, Pt: s.c.hotMiss[i], Want: 0}
	}
	return op{Kind: opPoint, Pt: s.c.Pts[i], Want: 1}
}

func (s *stream) nextDrift(k opKind) op {
	switch k {
	case opInsert:
		ctr := s.c.centres[(s.inserts/driftEpoch)%len(s.c.centres)]
		return op{Kind: opInsert, Pt: s.fresh(ctr, driftSigma)}
	case opDelete:
		return s.delete()
	}
	if s.rng.Intn(3) > 0 {
		if o, ok := s.ownPoint(); ok {
			return o
		}
	}
	return s.basePoint()
}

func (s *stream) nextLib(k opKind) op {
	switch k {
	case opWindow:
		return op{Kind: opWindow, Win: s.c.libWin[s.rng.Intn(len(s.c.libWin))]}
	case opKNN:
		return op{Kind: opKNN, Pt: s.c.Pts[s.rng.Intn(len(s.c.Pts))], K: libKNN}
	}
	return s.basePoint()
}

// acked records an acknowledged update in the client's own-key sets.
func (s *stream) acked(o op) {
	switch o.Kind {
	case opInsert:
		s.live = append(s.live, o.Pt)
		s.inserts++
	case opDelete:
		s.live[o.own] = s.live[len(s.live)-1]
		s.live = s.live[:len(s.live)-1]
		s.dead = append(s.dead, o.Pt)
	}
}
