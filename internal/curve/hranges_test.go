package curve

import (
	"math/rand"
	"testing"

	"elsi/internal/geo"
)

// cellWindow returns the float window spanning cells [cx1, cx2] x
// [cy1, cy2] of the unit square, shrunk inward by a quarter cell so it
// touches exactly those cells (closed-rect intersection would otherwise
// pull in the neighbouring row and column).
func cellWindow(cx1, cy1, cx2, cy2 uint32) geo.Rect {
	const cw = 1.0 / cells
	return geo.Rect{
		MinX: float64(cx1)*cw + cw/4, MinY: float64(cy1)*cw + cw/4,
		MaxX: float64(cx2+1)*cw - cw/4, MaxY: float64(cy2+1)*cw - cw/4,
	}
}

// TestHRangesExactCoverFullDepth checks the exact-cover property at
// full depth on small cell-aligned windows: the decomposed ranges
// contain the key of every cell intersecting the window, and nothing
// else (total range length equals the window's cell count).
func TestHRangesExactCoverFullDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		cx := uint32(rng.Intn(cells - 70))
		cy := uint32(rng.Intn(cells - 70))
		w := uint32(rng.Intn(24))
		h := uint32(rng.Intn(24))
		win := cellWindow(cx, cy, cx+w, cy+h)
		ranges := HRangesAppend(win, geo.UnitRect, Order, nil)

		var total uint64
		for _, r := range ranges {
			total += r.Hi - r.Lo + 1
		}
		want := uint64(w+1) * uint64(h+1)
		if total != want {
			t.Fatalf("trial %d: ranges cover %d keys, want exactly %d (window %v)", trial, total, want, win)
		}
		for x := cx; x <= cx+w; x++ {
			for y := cy; y <= cy+h; y++ {
				if !rangesCover(ranges, HEncodeCell(x, y)) {
					t.Fatalf("trial %d: cell (%d,%d) in window not covered", trial, x, y)
				}
			}
		}
	}
}

// TestHRangesDepthCappedCoverage checks the safe direction of the
// depth-capped decomposition: over-approximation is allowed, missing a
// window point's key is not.
func TestHRangesDepthCappedCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		x, y := rng.Float64(), rng.Float64()
		win := geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*0.3, MaxY: y + rng.Float64()*0.3}
		ranges := HRangesAppend(win, geo.UnitRect, 8, nil)
		for i := 1; i < len(ranges); i++ {
			if ranges[i].Lo <= ranges[i-1].Hi {
				t.Fatalf("trial %d: overlapping/unsorted ranges %v", trial, ranges)
			}
		}
		for probe := 0; probe < 20; probe++ {
			p := geo.Point{
				X: win.MinX + rng.Float64()*(win.MaxX-win.MinX),
				Y: win.MinY + rng.Float64()*(win.MaxY-win.MinY),
			}
			if !win.Contains(p) {
				continue
			}
			if !rangesCover(ranges, HEncode(p, geo.UnitRect)) {
				t.Fatalf("trial %d: key of window point %v not covered", trial, p)
			}
		}
	}
}

// TestHRangesAppendPreservesPrefix checks the append contract: leading
// entries stay untouched and the decomposition lands after them.
func TestHRangesAppendPreservesPrefix(t *testing.T) {
	prefix := KeyRange{Lo: 1, Hi: 2}
	win := geo.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}
	out := HRangesAppend(win, geo.UnitRect, 6, []KeyRange{prefix})
	if len(out) < 2 || out[0] != prefix {
		t.Fatalf("prefix clobbered: %v", out)
	}
	want := HRangesAppend(win, geo.UnitRect, 6, nil)
	got := out[1:]
	if len(got) != len(want) {
		t.Fatalf("append form diverged: %d ranges vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("append form diverged at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestHRangeMBRContainsRangeCells samples keys from random ranges and
// checks their cells' rectangles lie inside the computed MBR.
func TestHRangeMBRContainsRangeCells(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		lo := rng.Uint64() % MaxKey
		hi := lo + rng.Uint64()%(MaxKey-lo+1)
		r := KeyRange{Lo: lo, Hi: hi}
		mbr := HRangeMBR(r, geo.UnitRect, 8)
		for probe := 0; probe < 50; probe++ {
			k := lo + rng.Uint64()%(hi-lo+1)
			cx, cy := HDecodeCell(k)
			cellRect := geo.Rect{
				MinX: dequantize(cx, 0, 1), MinY: dequantize(cy, 0, 1),
				MaxX: dequantize(cx+1, 0, 1), MaxY: dequantize(cy+1, 0, 1),
			}
			if !mbr.ContainsRect(cellRect) {
				t.Fatalf("trial %d: cell of key %d (%v) outside MBR %v of range [%d,%d]",
					trial, k, cellRect, mbr, lo, hi)
			}
		}
	}
}

// TestHRangeMBRFullRange sanity-checks the extremes: the full key range
// covers the space, an empty-ish single-key range covers one cell.
func TestHRangeMBRFullRange(t *testing.T) {
	full := HRangeMBR(KeyRange{Lo: 0, Hi: MaxKey}, geo.UnitRect, 6)
	if !full.ContainsRect(geo.UnitRect) {
		t.Fatalf("full-range MBR %v does not cover the space", full)
	}
	one := HRangeMBR(KeyRange{Lo: 12345, Hi: 12345}, geo.UnitRect, Order)
	cx, cy := HDecodeCell(12345)
	p := geo.Point{X: dequantize(cx, 0, 1), Y: dequantize(cy, 0, 1)}
	if !one.Contains(p) {
		t.Fatalf("single-key MBR %v misses its cell corner %v", one, p)
	}
	if one.Width() > 2.0/cells || one.Height() > 2.0/cells {
		t.Fatalf("single-key MBR %v wider than one cell", one)
	}
}

// FuzzHRangesCoverage is the satellite fuzz property: on cell-aligned
// windows small enough to enumerate, the full-depth decomposition
// covers exactly the window's cells — every intersecting cell's key is
// in some range and the total range length equals the cell count.
func FuzzHRangesCoverage(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(5), uint32(5))
	f.Add(uint32(cells-8), uint32(cells-8), uint32(7), uint32(7))
	f.Add(uint32(12345), uint32(54321), uint32(0), uint32(31))
	f.Fuzz(func(t *testing.T, cx, cy, w, h uint32) {
		w %= 32
		h %= 32
		cx %= cells - w - 1
		cy %= cells - h - 1
		win := cellWindow(cx, cy, cx+w, cy+h)
		ranges := HRangesAppend(win, geo.UnitRect, Order, nil)

		for i := 1; i < len(ranges); i++ {
			if ranges[i].Lo <= ranges[i-1].Hi {
				t.Fatalf("overlapping/unsorted ranges: %v", ranges)
			}
		}
		var total uint64
		for _, r := range ranges {
			total += r.Hi - r.Lo + 1
		}
		if want := uint64(w+1) * uint64(h+1); total != want {
			t.Fatalf("ranges cover %d keys, want exactly %d (cells [%d,%d]x[%d,%d])",
				total, want, cx, cx+w, cy, cy+h)
		}
		for x := cx; x <= cx+w; x++ {
			for y := cy; y <= cy+h; y++ {
				if !rangesCover(ranges, HEncodeCell(x, y)) {
					t.Fatalf("cell (%d,%d) not covered", x, y)
				}
			}
		}
	})
}
