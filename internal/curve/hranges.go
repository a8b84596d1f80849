package curve

import (
	"elsi/internal/geo"
)

// HRangesAppend decomposes a query window into Hilbert-key ranges that
// together cover every grid cell intersecting the window, mirroring
// ZRanges for the Hilbert curve. It subdivides the space quadrant by
// quadrant; a quadrant fully inside the window is emitted as one range,
// and recursion stops at maxDepth by over-approximating with the
// quadrant's full range. The returned ranges are sorted and merged.
//
// The sharded router uses the decomposition to prune window scatter:
// a shard whose key range intersects none of the window's ranges
// cannot hold a point inside the window.
//
// The ranges are appended to out (which may hold unrelated leading
// entries) and the extended slice is returned. Query hot paths pass a
// reused buffer so the decomposition allocates nothing once the buffer
// has warmed up.
//
//elsi:noalloc
func HRangesAppend(window geo.Rect, space geo.Rect, maxDepth int, out []KeyRange) []KeyRange {
	if !window.Intersects(space) {
		return out
	}
	if maxDepth > Order {
		maxDepth = Order
	}
	h := hranger{window: window, maxDepth: maxDepth, out: out}
	start := len(out)
	h.rec(0, 0, 0, space)
	merged := MergeRanges(h.out[start:])
	return h.out[:start+len(merged)]
}

// hranger carries the recursion state of the Hilbert decomposition; a
// struct keeps the recursion allocation-free (see zranger).
type hranger struct {
	window   geo.Rect
	maxDepth int
	out      []KeyRange
}

// rec visits the quadrant with coordinates (cx, cy) at the given
// level. The Hilbert curve visits every aligned quadrant contiguously,
// so the quadrant's keys are the aligned block of 4^(Order-level) keys
// containing the key of any of its cells — no rotation bookkeeping is
// needed, one HEncodeCell call per emitted quadrant suffices. Unlike
// the Z curve the block's base is not a simple bit prefix of the cell
// coordinates, so the emitted ranges arrive out of key order and the
// MergeRanges sort above is essential, not defensive.
//
//elsi:noalloc
func (h *hranger) rec(cx, cy uint32, level int, cell geo.Rect) {
	if !h.window.Intersects(cell) {
		return
	}
	if h.window.ContainsRect(cell) || level >= h.maxDepth {
		shift := uint(2 * (Order - level))
		span := uint64(1)<<shift - 1
		lo := HEncodeCell(cx<<(Order-level), cy<<(Order-level)) &^ span
		h.out = append(h.out, KeyRange{lo, lo + span})
		return
	}
	mx := (cell.MinX + cell.MaxX) / 2
	my := (cell.MinY + cell.MaxY) / 2
	h.rec(cx*2, cy*2, level+1, geo.Rect{MinX: cell.MinX, MinY: cell.MinY, MaxX: mx, MaxY: my})
	h.rec(cx*2+1, cy*2, level+1, geo.Rect{MinX: mx, MinY: cell.MinY, MaxX: cell.MaxX, MaxY: my})
	h.rec(cx*2, cy*2+1, level+1, geo.Rect{MinX: cell.MinX, MinY: my, MaxX: mx, MaxY: cell.MaxY})
	h.rec(cx*2+1, cy*2+1, level+1, geo.Rect{MinX: mx, MinY: my, MaxX: cell.MaxX, MaxY: cell.MaxY})
}

// HRangeMBR returns a rectangle covering every grid cell whose Hilbert
// key lies in r, by descending the quadrant tree and unioning the
// quadrants whose key blocks intersect r; recursion stops at maxDepth,
// over-approximating with the whole quadrant. The result is an outer
// bound of the key range's region — safe for MINDIST pruning, which
// only ever under-estimates distances through it.
func HRangeMBR(r KeyRange, space geo.Rect, maxDepth int) geo.Rect {
	if maxDepth > Order {
		maxDepth = Order
	}
	m := geo.EmptyRect()
	hrangeMBR(&m, r, 0, 0, 0, space, maxDepth)
	return m
}

func hrangeMBR(acc *geo.Rect, r KeyRange, cx, cy uint32, level int, cell geo.Rect, maxDepth int) {
	shift := uint(2 * (Order - level))
	span := uint64(1)<<shift - 1
	lo := HEncodeCell(cx<<(Order-level), cy<<(Order-level)) &^ span
	hi := lo + span
	if hi < r.Lo || lo > r.Hi {
		return
	}
	if (lo >= r.Lo && hi <= r.Hi) || level >= maxDepth {
		*acc = acc.Union(cell)
		return
	}
	mx := (cell.MinX + cell.MaxX) / 2
	my := (cell.MinY + cell.MaxY) / 2
	hrangeMBR(acc, r, cx*2, cy*2, level+1, geo.Rect{MinX: cell.MinX, MinY: cell.MinY, MaxX: mx, MaxY: my}, maxDepth)
	hrangeMBR(acc, r, cx*2+1, cy*2, level+1, geo.Rect{MinX: mx, MinY: cell.MinY, MaxX: cell.MaxX, MaxY: my}, maxDepth)
	hrangeMBR(acc, r, cx*2, cy*2+1, level+1, geo.Rect{MinX: cell.MinX, MinY: my, MaxX: mx, MaxY: cell.MaxY}, maxDepth)
	hrangeMBR(acc, r, cx*2+1, cy*2+1, level+1, geo.Rect{MinX: mx, MinY: my, MaxX: cell.MaxX, MaxY: cell.MaxY}, maxDepth)
}
