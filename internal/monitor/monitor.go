// Package monitor collects live workload statistics on the query path.
//
// A monitor.Stats sits next to a rebuild.Processor and is poked once per
// operation: query mix (point/window/kNN), window-area and k histograms,
// insert/delete rates, and a fixed-grid hot-region counter over coarse
// curve cells. Everything is a padded atomic counter — recording is
// lock-free and allocation-free (enforced with //elsi:noalloc) so the
// monitor can ride on the hottest paths without showing up in latency
// histograms.
//
// Readers call Snapshot, which is allowed to allocate; Snapshot.Sub
// yields the delta between two snapshots so consumers (the workload
// adapter, /stats) can reason about traffic windows rather than
// process-lifetime totals.
package monitor

import (
	"math"
	"math/bits"
	"sync/atomic"

	"elsi/internal/curve"
	"elsi/internal/geo"
)

// GridOrder is the resolution of the hot-region grid: the space is cut
// into 2^GridOrder × 2^GridOrder cells addressed by their Z-order key
// (the same interleaving the curve package uses at full precision, so a
// hot cell identifies a contiguous key range of the index). Order 5 is
// 1024 cells — 8 KiB of counters per shard, coarse enough that a skewed
// workload concentrates visibly and fine enough to localise it.
const GridOrder = 5

// GridCells is the number of cells in the hot-region grid.
const GridCells = 1 << (2 * GridOrder)

// AreaBuckets is the size of the window-area histogram. Bucket i holds
// windows whose area is in (2^-(i+1), 2^-i] of the monitored space;
// the last bucket absorbs everything smaller (including degenerate
// zero-area windows).
const AreaBuckets = 16

// KBuckets is the size of the kNN k histogram. Bucket i holds requests
// with k in (2^(i-1), 2^i]; bucket 0 is k ≤ 1 and the last bucket
// absorbs everything larger.
const KBuckets = 8

// TopCells is how many hot cells a Snapshot surfaces, hottest first.
const TopCells = 8

// counter is a cache-line padded atomic so that the high-rate counters
// (points, inserts, ...) on adjacent fields don't false-share.
type counter struct {
	v atomic.Int64
	_ [56]byte
}

// Stats accumulates workload counters for one shard. All Record*
// methods are safe for concurrent use and do not allocate or lock.
type Stats struct {
	space geo.Rect
	// Reciprocal extents for quantising coordinates into the grid
	// without dividing on the hot path.
	invW, invH float64
	invArea    float64

	points  counter
	windows counter
	knns    counter
	inserts counter
	deletes counter

	area [AreaBuckets]atomic.Int64
	k    [KBuckets]atomic.Int64

	// grid counts operations per coarse Z-order cell. Not padded:
	// with 1024 cells under a skewed workload, contention concentrates
	// on a handful of lines and padding would cost 64 KiB per shard.
	grid [GridCells]atomic.Int64
}

// New returns a Stats monitoring traffic over the given space. The
// space fixes the geometry of the hot-region grid and the normalisation
// of the window-area histogram.
func New(space geo.Rect) *Stats {
	s := &Stats{space: space}
	if w := space.Width(); w > 0 {
		s.invW = float64(1<<GridOrder) / w
	}
	if h := space.Height(); h > 0 {
		s.invH = float64(1<<GridOrder) / h
	}
	if a := space.Area(); a > 0 {
		s.invArea = 1 / a
	}
	return s
}

// cell maps a coordinate to its grid cell's Z-order key.
//
//elsi:noalloc
func (s *Stats) cell(x, y float64) uint64 {
	cx := int((x - s.space.MinX) * s.invW)
	cy := int((y - s.space.MinY) * s.invH)
	const max = (1 << GridOrder) - 1
	if cx < 0 {
		cx = 0
	} else if cx > max {
		cx = max
	}
	if cy < 0 {
		cy = 0
	} else if cy > max {
		cy = max
	}
	return curve.ZEncodeCell(uint32(cx), uint32(cy))
}

// touch credits an operation at (x, y) to its hot-region cell.
//
//elsi:noalloc
func (s *Stats) touch(x, y float64) {
	s.grid[s.cell(x, y)].Add(1)
}

// RecordPoint notes one point query.
//
//elsi:noalloc
func (s *Stats) RecordPoint(p geo.Point) {
	if s == nil {
		return
	}
	s.points.v.Add(1)
	s.touch(p.X, p.Y)
}

// RecordWindow notes one window query, crediting the window's center
// cell and its area bucket.
//
//elsi:noalloc
func (s *Stats) RecordWindow(win geo.Rect) {
	if s == nil {
		return
	}
	s.windows.v.Add(1)
	s.touch((win.MinX+win.MaxX)/2, (win.MinY+win.MaxY)/2)
	frac := win.Area() * s.invArea
	b := AreaBuckets - 1
	if frac > 0 {
		if lg := -math.Log2(frac); lg < float64(AreaBuckets-1) {
			if lg < 0 {
				lg = 0
			}
			b = int(lg)
		}
	}
	s.area[b].Add(1)
}

// RecordKNN notes one k-nearest-neighbour query.
//
//elsi:noalloc
func (s *Stats) RecordKNN(q geo.Point, k int) {
	if s == nil {
		return
	}
	s.knns.v.Add(1)
	s.touch(q.X, q.Y)
	if k < 1 {
		k = 1
	}
	b := bits.Len(uint(k - 1)) // 1→0, 2→1, 3..4→2, 5..8→3, ...
	if b > KBuckets-1 {
		b = KBuckets - 1
	}
	s.k[b].Add(1)
}

// RecordInsert notes one insert.
//
//elsi:noalloc
func (s *Stats) RecordInsert(p geo.Point) {
	if s == nil {
		return
	}
	s.inserts.v.Add(1)
	s.touch(p.X, p.Y)
}

// RecordDelete notes one delete.
//
//elsi:noalloc
func (s *Stats) RecordDelete(p geo.Point) {
	if s == nil {
		return
	}
	s.deletes.v.Add(1)
	s.touch(p.X, p.Y)
}

// HotCell is one entry of a Snapshot's hottest-cells list.
type HotCell struct {
	// CellX, CellY are grid coordinates (0 .. 2^GridOrder-1) in the
	// monitored space.
	CellX int   `json:"cx"`
	CellY int   `json:"cy"`
	Count int64 `json:"count"`
}

// Snapshot is a point-in-time copy of a Stats. Counters are read with
// atomic loads but not as a single transaction: a snapshot taken under
// load may be off by the handful of operations in flight, which is fine
// for the consumers (profile derivation, /stats).
type Snapshot struct {
	Points  int64 `json:"points"`
	Windows int64 `json:"windows"`
	KNNs    int64 `json:"knns"`
	Inserts int64 `json:"inserts"`
	Deletes int64 `json:"deletes"`

	WindowArea [AreaBuckets]int64 `json:"window_area"`
	KHist      [KBuckets]int64    `json:"k_hist"`

	// Hot lists up to TopCells grid cells by operation count, hottest
	// first; HotShare is the fraction of grid-credited operations that
	// landed in those cells (1.0 = perfectly concentrated).
	Hot      []HotCell `json:"hot,omitempty"`
	HotShare float64   `json:"hot_share"`

	// Grid is the raw per-cell histogram, indexed by Z-order cell key.
	// Kept out of JSON (1024 entries per shard); used by Sub.
	Grid []int64 `json:"-"`
}

// Snapshot copies the current counters. Safe to call concurrently with
// recording; allocates (the grid copy), so keep it off hot paths.
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	snap := Snapshot{
		Points:  s.points.v.Load(),
		Windows: s.windows.v.Load(),
		KNNs:    s.knns.v.Load(),
		Inserts: s.inserts.v.Load(),
		Deletes: s.deletes.v.Load(),
		Grid:    make([]int64, GridCells),
	}
	for i := range s.area {
		snap.WindowArea[i] = s.area[i].Load()
	}
	for i := range s.k {
		snap.KHist[i] = s.k[i].Load()
	}
	for i := range s.grid {
		snap.Grid[i] = s.grid[i].Load()
	}
	snap.fillHot()
	return snap
}

// Sub returns the traffic between prev and s (s - prev), recomputing
// the hot-cell list for the delta. prev must be an earlier snapshot of
// the same Stats (or the zero Snapshot).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		Points:  s.Points - prev.Points,
		Windows: s.Windows - prev.Windows,
		KNNs:    s.KNNs - prev.KNNs,
		Inserts: s.Inserts - prev.Inserts,
		Deletes: s.Deletes - prev.Deletes,
	}
	for i := range d.WindowArea {
		d.WindowArea[i] = s.WindowArea[i] - prev.WindowArea[i]
	}
	for i := range d.KHist {
		d.KHist[i] = s.KHist[i] - prev.KHist[i]
	}
	if len(s.Grid) == GridCells {
		d.Grid = make([]int64, GridCells)
		copy(d.Grid, s.Grid)
		if len(prev.Grid) == GridCells {
			for i := range d.Grid {
				d.Grid[i] -= prev.Grid[i]
			}
		}
	}
	d.fillHot()
	return d
}

// fillHot derives Hot and HotShare from Grid.
func (s *Snapshot) fillHot() {
	if len(s.Grid) != GridCells {
		return
	}
	var top [TopCells]struct {
		key uint64
		n   int64
	}
	var total int64
	for key, n := range s.Grid {
		if n <= 0 {
			continue
		}
		total += n
		if n <= top[TopCells-1].n {
			continue
		}
		i := TopCells - 1
		for i > 0 && top[i-1].n < n {
			top[i] = top[i-1]
			i--
		}
		top[i].key, top[i].n = uint64(key), n
	}
	if total == 0 {
		return
	}
	var inTop int64
	for _, t := range top {
		if t.n == 0 {
			break
		}
		cx, cy := curve.ZDecodeCell(t.key)
		s.Hot = append(s.Hot, HotCell{CellX: int(cx), CellY: int(cy), Count: t.n})
		inTop += t.n
	}
	s.HotShare = float64(inTop) / float64(total)
}
