// Package quadtree implements the recursive 2^d space partitioning of
// Algorithm 2 (get_RS): the data space is split into four quadrants
// until every leaf holds at most beta points. The RS index-building
// method selects one representative per non-empty leaf; the package
// also serves as a standalone query structure for tests.
package quadtree

import (
	"elsi/internal/geo"
)

// Tree is a point quadtree over a fixed data space.
type Tree struct {
	root *node
}

type node struct {
	bounds   geo.Rect
	pts      []geo.Point // leaf payload; nil for internal nodes
	children *[4]*node   // nil for leaves
}

// New builds a quadtree over space containing pts, splitting any node
// holding more than beta points (beta >= 1).
func New(pts []geo.Point, space geo.Rect, beta int) *Tree {
	if beta < 1 {
		beta = 1
	}
	t := &Tree{}
	buf := append([]geo.Point(nil), pts...)
	t.root = build(buf, space, beta)
	return t
}

// build constructs the subtree for pts within bounds. It reuses the
// pts slice for leaf storage.
func build(pts []geo.Point, bounds geo.Rect, beta int) *node {
	n := &node{bounds: bounds}
	if len(pts) <= beta || !canSplit(bounds) {
		n.pts = pts
		return n
	}
	mx := (bounds.MinX + bounds.MaxX) / 2
	my := (bounds.MinY + bounds.MaxY) / 2
	var quads [4][]geo.Point
	for _, p := range pts {
		quads[quadrant(p, mx, my)] = append(quads[quadrant(p, mx, my)], p)
	}
	n.children = &[4]*node{}
	for i := 0; i < 4; i++ {
		n.children[i] = build(quads[i], childBounds(bounds, mx, my, i), beta)
	}
	return n
}

// canSplit guards against infinite recursion on duplicate points: once
// the cell is at floating-point resolution, stop splitting.
func canSplit(b geo.Rect) bool {
	mx := (b.MinX + b.MaxX) / 2
	my := (b.MinY + b.MaxY) / 2
	return mx > b.MinX && mx < b.MaxX && my > b.MinY && my < b.MaxY
}

// quadrant returns the child slot of p: 0=SW, 1=SE, 2=NW, 3=NE.
func quadrant(p geo.Point, mx, my float64) int {
	q := 0
	if p.X >= mx {
		q |= 1
	}
	if p.Y >= my {
		q |= 2
	}
	return q
}

func childBounds(b geo.Rect, mx, my float64, quad int) geo.Rect {
	out := b
	if quad&1 == 0 {
		out.MaxX = mx
	} else {
		out.MinX = mx
	}
	if quad&2 == 0 {
		out.MaxY = my
	} else {
		out.MinY = my
	}
	return out
}

// Leaves visits every leaf, passing its bounds and points (possibly
// empty). The RS build method uses this to collect one representative
// per non-empty leaf.
func (t *Tree) Leaves(fn func(bounds geo.Rect, pts []geo.Point)) {
	var walk func(*node)
	walk = func(n *node) {
		if n.children == nil {
			fn(n.bounds, n.pts)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
}

// Depth returns the height of the tree (a single leaf has depth 1).
func (t *Tree) Depth() int {
	var walk func(*node) int
	walk = func(n *node) int {
		if n.children == nil {
			return 1
		}
		d := 0
		for _, c := range n.children {
			if cd := walk(c); cd > d {
				d = cd
			}
		}
		return d + 1
	}
	return walk(t.root)
}

// WindowQuery returns all stored points inside win.
func (t *Tree) WindowQuery(win geo.Rect) []geo.Point {
	var out []geo.Point
	var walk func(*node)
	walk = func(n *node) {
		if !win.Intersects(n.bounds) {
			return
		}
		if n.children == nil {
			for _, p := range n.pts {
				if win.Contains(p) {
					out = append(out, p)
				}
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}
