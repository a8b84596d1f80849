package monitor

import (
	"sync"
	"testing"

	"elsi/internal/geo"
	"elsi/internal/indextest"
)

func unitSpace() geo.Rect {
	return geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
}

func TestCounters(t *testing.T) {
	s := New(unitSpace())
	for i := 0; i < 5; i++ {
		s.RecordPoint(geo.Point{X: 0.5, Y: 0.5})
	}
	s.RecordWindow(geo.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2})
	s.RecordKNN(geo.Point{X: 0.9, Y: 0.9}, 10)
	s.RecordInsert(geo.Point{X: 0.3, Y: 0.3})
	s.RecordInsert(geo.Point{X: 0.3, Y: 0.3})
	s.RecordDelete(geo.Point{X: 0.3, Y: 0.3})

	snap := s.Snapshot()
	if snap.Points != 5 || snap.Windows != 1 || snap.KNNs != 1 || snap.Inserts != 2 || snap.Deletes != 1 {
		t.Fatalf("counters = %+v", snap)
	}
}

func TestAreaHistogram(t *testing.T) {
	s := New(unitSpace())
	// Area 0.25 of a unit space: frac 2^-2 → bucket 1 boundary. Use a
	// clearly interior fraction instead: 0.1 x 0.1 = 1e-2, -log2 ≈ 6.64
	// → bucket 6.
	s.RecordWindow(geo.Rect{MinX: 0, MinY: 0, MaxX: 0.1, MaxY: 0.1})
	// Degenerate window → last bucket.
	s.RecordWindow(geo.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5})
	// Whole space → bucket 0.
	s.RecordWindow(unitSpace())

	snap := s.Snapshot()
	if snap.WindowArea[6] != 1 {
		t.Errorf("bucket 6 = %d, want 1 (hist %v)", snap.WindowArea[6], snap.WindowArea)
	}
	if snap.WindowArea[AreaBuckets-1] != 1 {
		t.Errorf("last bucket = %d, want 1 (hist %v)", snap.WindowArea[AreaBuckets-1], snap.WindowArea)
	}
	if snap.WindowArea[0] != 1 {
		t.Errorf("bucket 0 = %d, want 1 (hist %v)", snap.WindowArea[0], snap.WindowArea)
	}
}

func TestKHistogram(t *testing.T) {
	s := New(unitSpace())
	q := geo.Point{X: 0.5, Y: 0.5}
	for _, k := range []int{1, 2, 3, 4, 8, 9, 1 << 20} {
		s.RecordKNN(q, k)
	}
	snap := s.Snapshot()
	// Buckets: k=1→0, k=2→1, k∈(2,4]→2, k∈(4,8]→3, k∈(8,16]→4, huge→last.
	want := [KBuckets]int64{0: 1, 1: 1, 2: 2, 3: 1, 4: 1, KBuckets - 1: 1}
	if snap.KHist != want {
		t.Errorf("KHist = %v, want %v", snap.KHist, want)
	}
}

func TestHotCells(t *testing.T) {
	s := New(unitSpace())
	// Hammer one corner, sprinkle the opposite one.
	for i := 0; i < 100; i++ {
		s.RecordPoint(geo.Point{X: 0.01, Y: 0.01})
	}
	s.RecordPoint(geo.Point{X: 0.99, Y: 0.99})

	snap := s.Snapshot()
	if len(snap.Hot) != 2 {
		t.Fatalf("Hot = %v, want 2 cells", snap.Hot)
	}
	if snap.Hot[0].CellX != 0 || snap.Hot[0].CellY != 0 || snap.Hot[0].Count != 100 {
		t.Errorf("hottest = %+v, want cell (0,0) count 100", snap.Hot[0])
	}
	max := (1 << GridOrder) - 1
	if snap.Hot[1].CellX != max || snap.Hot[1].CellY != max {
		t.Errorf("second = %+v, want cell (%d,%d)", snap.Hot[1], max, max)
	}
	if snap.HotShare != 1 {
		t.Errorf("HotShare = %v, want 1 (all traffic in top cells)", snap.HotShare)
	}
}

// TestOutOfSpaceClamped checks that coordinates outside the monitored
// space land in the border cells instead of out-of-range indices.
func TestOutOfSpaceClamped(t *testing.T) {
	s := New(unitSpace())
	s.RecordPoint(geo.Point{X: -5, Y: -5})
	s.RecordPoint(geo.Point{X: 5, Y: 5})
	snap := s.Snapshot()
	if snap.Points != 2 || len(snap.Hot) != 2 {
		t.Fatalf("snap = %+v", snap)
	}
}

func TestSub(t *testing.T) {
	s := New(unitSpace())
	s.RecordPoint(geo.Point{X: 0.1, Y: 0.1})
	s.RecordInsert(geo.Point{X: 0.1, Y: 0.1})
	first := s.Snapshot()

	for i := 0; i < 10; i++ {
		s.RecordPoint(geo.Point{X: 0.9, Y: 0.9})
	}
	d := s.Snapshot().Sub(first)
	if d.Points != 10 || d.Inserts != 0 {
		t.Fatalf("delta = %+v, want 10 points, 0 inserts", d)
	}
	// The delta's hot list must reflect only the new traffic.
	if len(d.Hot) != 1 {
		t.Fatalf("delta Hot = %v, want exactly the new cell", d.Hot)
	}
	if d.Hot[0].Count != 10 {
		t.Errorf("delta hot count = %d, want 10", d.Hot[0].Count)
	}
}

func TestNilSafe(t *testing.T) {
	var s *Stats
	s.RecordPoint(geo.Point{})
	s.RecordWindow(geo.Rect{})
	s.RecordKNN(geo.Point{}, 3)
	s.RecordInsert(geo.Point{})
	s.RecordDelete(geo.Point{})
	if snap := s.Snapshot(); snap.Points+snap.Windows+snap.KNNs+snap.Inserts+snap.Deletes != 0 {
		t.Fatalf("nil snapshot = %+v", snap)
	}
}

func TestRecordConcurrent(t *testing.T) {
	s := New(unitSpace())
	const G, each = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := geo.Point{X: float64(g) / G, Y: 0.5}
			for i := 0; i < each; i++ {
				s.RecordPoint(p)
				s.RecordInsert(p)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			s.Snapshot() // racing reader must be safe
		}
	}()
	wg.Wait()
	<-done
	snap := s.Snapshot()
	if snap.Points != G*each || snap.Inserts != G*each {
		t.Fatalf("lost updates: %+v", snap)
	}
}

func TestRecordZeroAllocs(t *testing.T) {
	s := New(unitSpace())
	p := geo.Point{X: 0.25, Y: 0.75}
	win := geo.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.3, MaxY: 0.3}
	indextest.AssertZeroAllocs(t, "monitor.Record*", func() {
		s.RecordPoint(p)
		s.RecordWindow(win)
		s.RecordKNN(p, 8)
		s.RecordInsert(p)
		s.RecordDelete(p)
	})
}
