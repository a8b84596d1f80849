// Package grid implements the traditional Grid index used as a
// baseline (Nievergelt et al.'s grid file, simplified as in the
// paper's experiments): a regular sqrt(n/B) x sqrt(n/B) grid where
// each cell stores an array of MBR-tagged data blocks of capacity B.
// Insertions choose the block whose MBR grows least and split full
// blocks, which is what makes Grid builds expensive on skewed data
// (Section VII-F).
package grid

import (
	"math"
	"sort"
	"sync"

	"elsi/internal/base"
	"elsi/internal/geo"
	"elsi/internal/index"
	"elsi/internal/store"
)

// Grid is the two-level grid index.
type Grid struct {
	space  geo.Rect
	nx, ny int
	cells  [][]*block
	size   int
}

type block struct {
	mbr geo.Rect
	pts []geo.Point
}

// New returns an empty Grid over space. The grid resolution is chosen
// at Build time from the data cardinality.
func New(space geo.Rect) *Grid {
	return &Grid{space: space}
}

// Name implements index.Index.
func (g *Grid) Name() string { return "Grid" }

// Len implements index.Index.
func (g *Grid) Len() int { return g.size }

// Build implements index.Index: it sizes the grid to sqrt(n/B) cells
// per dimension and inserts every point.
func (g *Grid) Build(pts []geo.Point) error {
	if err := base.ValidatePoints(pts); err != nil {
		return err
	}
	n := len(pts)
	side := int(math.Sqrt(float64(n) / float64(store.BlockSize)))
	if side < 1 {
		side = 1
	}
	g.nx, g.ny = side, side
	g.cells = make([][]*block, g.nx*g.ny)
	g.size = 0
	for _, p := range pts {
		g.Insert(p)
	}
	return nil
}

// cellOf returns the cell index for p, clamped into the grid.
//
//elsi:noalloc
func (g *Grid) cellOf(p geo.Point) int {
	cx := int((p.X - g.space.MinX) / g.space.Width() * float64(g.nx))
	cy := int((p.Y - g.space.MinY) / g.space.Height() * float64(g.ny))
	if cx < 0 {
		cx = 0
	}
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	return cy*g.nx + cx
}

// Insert implements index.Inserter. The point goes to the block in its
// cell whose MBR needs the least enlargement; a full block is split by
// its longer MBR dimension.
func (g *Grid) Insert(p geo.Point) {
	if g.cells == nil {
		// allow insert-before-build usage with a minimal grid
		g.nx, g.ny = 1, 1
		g.cells = make([][]*block, 1)
	}
	ci := g.cellOf(p)
	blocks := g.cells[ci]
	var best *block
	bestCost := math.Inf(1)
	pr := geo.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
	for _, b := range blocks {
		if len(b.pts) >= store.BlockSize {
			continue
		}
		cost := b.mbr.EnlargementArea(pr)
		if cost < bestCost {
			bestCost = cost
			best = b
		}
	}
	if best == nil {
		best = &block{mbr: geo.EmptyRect()}
		g.cells[ci] = append(g.cells[ci], best)
	}
	best.pts = append(best.pts, p)
	best.mbr = best.mbr.Extend(p)
	g.size++
	if len(best.pts) >= store.BlockSize {
		g.splitBlock(ci, best)
	}
}

// splitBlock splits b along the longer dimension of its MBR into two
// half-full blocks with recomputed (minimized) MBRs.
func (g *Grid) splitBlock(ci int, b *block) {
	pts := b.pts
	if b.mbr.Width() >= b.mbr.Height() {
		sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	} else {
		sort.Slice(pts, func(i, j int) bool { return pts[i].Y < pts[j].Y })
	}
	mid := len(pts) / 2
	right := &block{pts: append([]geo.Point(nil), pts[mid:]...)}
	b.pts = pts[:mid]
	b.mbr = geo.BoundingRect(b.pts)
	right.mbr = geo.BoundingRect(right.pts)
	g.cells[ci] = append(g.cells[ci], right)
}

// PointQuery implements index.Index.
//
//elsi:noalloc
func (g *Grid) PointQuery(p geo.Point) bool {
	if g.cells == nil {
		return false
	}
	for _, b := range g.cells[g.cellOf(p)] {
		if !b.mbr.Contains(p) {
			continue
		}
		for _, q := range b.pts {
			if q == p {
				return true
			}
		}
	}
	return false
}

// Delete implements index.Deleter.
func (g *Grid) Delete(p geo.Point) bool {
	if g.cells == nil {
		return false
	}
	for _, b := range g.cells[g.cellOf(p)] {
		if !b.mbr.Contains(p) {
			continue
		}
		for i, q := range b.pts {
			if q == p {
				b.pts[i] = b.pts[len(b.pts)-1]
				b.pts = b.pts[:len(b.pts)-1]
				b.mbr = geo.BoundingRect(b.pts)
				g.size--
				return true
			}
		}
	}
	return false
}

// WindowQuery implements index.Index (exact).
func (g *Grid) WindowQuery(win geo.Rect) []geo.Point {
	return g.WindowQueryAppend(win, nil)
}

// WindowQueryAppend implements index.WindowAppender.
//
//elsi:noalloc
func (g *Grid) WindowQueryAppend(win geo.Rect, out []geo.Point) []geo.Point {
	if g.cells == nil {
		return out
	}
	cx0, cy0 := g.cellCoords(geo.Point{X: win.MinX, Y: win.MinY})
	cx1, cy1 := g.cellCoords(geo.Point{X: win.MaxX, Y: win.MaxY})
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			for _, b := range g.cells[cy*g.nx+cx] {
				if !b.mbr.Intersects(win) {
					continue
				}
				for _, p := range b.pts {
					if win.Contains(p) {
						out = append(out, p)
					}
				}
			}
		}
	}
	return out
}

//elsi:noalloc
func (g *Grid) cellCoords(p geo.Point) (int, int) {
	ci := g.cellOf(p)
	return ci % g.nx, ci / g.nx
}

// KNN implements index.Index with an expanding ring search over cells:
// rings of cells are visited outward until every unvisited cell is
// provably farther than the current k-th nearest candidate.
func (g *Grid) KNN(q geo.Point, k int) []geo.Point {
	return g.KNNAppend(q, k, nil)
}

// knnScratch holds the ring candidate set and the per-ring selection;
// pooled so repeated kNN queries reuse one working set.
type knnScratch struct {
	cand []geo.Point
	sel  []geo.Point
}

var knnScratchPool = sync.Pool{New: func() interface{} { return new(knnScratch) }}

// KNNAppend implements index.KNNAppender; KNN delegates here, so both
// entry points return identical answers.
//
//elsi:noalloc
func (g *Grid) KNNAppend(q geo.Point, k int, out []geo.Point) []geo.Point {
	if g.cells == nil || k <= 0 || g.size == 0 {
		return out
	}
	s := knnScratchPool.Get().(*knnScratch)
	defer knnScratchPool.Put(s)
	s.cand = s.cand[:0]
	qcx, qcy := g.cellCoords(q)
	maxRing := g.nx + g.ny
	minSide := math.Min(g.space.Width()/float64(g.nx), g.space.Height()/float64(g.ny))
	for ring := 0; ring <= maxRing; ring++ {
		s.cand = g.collectRing(qcx, qcy, ring, s.cand)
		if len(s.cand) < k {
			continue
		}
		// Any cell at Chebyshev distance ring+1 lies at least
		// ring*minSide away from q (q may sit on its own cell's edge).
		s.sel = index.KNNScanAppend(s.cand, q, k, s.sel[:0])
		dk := math.Sqrt(s.sel[len(s.sel)-1].Dist2(q))
		if float64(ring)*minSide > dk {
			return append(out, s.sel...)
		}
	}
	s.sel = index.KNNScanAppend(s.cand, q, k, s.sel[:0])
	return append(out, s.sel...)
}

// collectRing appends all points in cells at Chebyshev distance ring
// from (qcx, qcy) to cand and returns the extended slice. The cell
// visits go through appendCell rather than a visit closure so the
// per-ring walk carries its state on the call stack.
//
//elsi:noalloc
func (g *Grid) collectRing(qcx, qcy, ring int, cand []geo.Point) []geo.Point {
	if ring == 0 {
		return g.appendCell(qcx, qcy, cand)
	}
	for d := -ring; d <= ring; d++ {
		cand = g.appendCell(qcx+d, qcy-ring, cand)
		cand = g.appendCell(qcx+d, qcy+ring, cand)
	}
	for d := -ring + 1; d < ring; d++ {
		cand = g.appendCell(qcx-ring, qcy+d, cand)
		cand = g.appendCell(qcx+ring, qcy+d, cand)
	}
	return cand
}

// appendCell appends the points of cell (cx, cy) to cand, ignoring
// out-of-range coordinates (ring walks run past the grid edges).
//
//elsi:noalloc
func (g *Grid) appendCell(cx, cy int, cand []geo.Point) []geo.Point {
	if cx < 0 || cx >= g.nx || cy < 0 || cy >= g.ny {
		return cand
	}
	for _, b := range g.cells[cy*g.nx+cx] {
		cand = append(cand, b.pts...)
	}
	return cand
}
