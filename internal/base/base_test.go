package base

import (
	"context"
	"sort"
	"testing"
	"time"

	"elsi/internal/geo"
	"elsi/internal/rmi"
)

func xMap(p geo.Point) float64 { return p.X }

func TestPrepareSortsByKey(t *testing.T) {
	pts := []geo.Point{{X: 3, Y: 1}, {X: 1, Y: 2}, {X: 2, Y: 3}}
	d := Prepare(pts, geo.UnitRect, xMap)
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	if !sort.Float64sAreSorted(d.Keys) {
		t.Fatal("keys not sorted")
	}
	for i, k := range d.Keys {
		if d.Pts[i].X != k {
			t.Fatalf("point %d not aligned with key %v", i, k)
		}
	}
	if d.Map(geo.Point{X: 7}) != 7 {
		t.Error("Map not preserved")
	}
	if d.Space != geo.UnitRect {
		t.Error("Space not preserved")
	}
}

func TestPrepareEmpty(t *testing.T) {
	d := Prepare(nil, geo.UnitRect, xMap)
	if d.Len() != 0 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestDirectBuildsAndBounds(t *testing.T) {
	pts := make([]geo.Point, 100)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) / 100}
	}
	d := Prepare(pts, geo.UnitRect, xMap)
	b := &Direct{Trainer: rmi.LinearTrainer()}
	if b.Name() != "OG" {
		t.Errorf("Name = %s", b.Name())
	}
	m, stats, err := b.BuildModel(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Method != "OG" || stats.TrainSetSize != 100 {
		t.Errorf("stats = %+v", stats)
	}
	for i, k := range d.Keys {
		lo, hi := m.SearchRange(k)
		if i < lo || i >= hi {
			t.Fatalf("key %d outside range", i)
		}
	}
}

func TestFromKeysStats(t *testing.T) {
	pts := make([]geo.Point, 50)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i)}
	}
	d := Prepare(pts, geo.UnitRect, xMap)
	train := []float64{0, 10, 20, 30, 40, 49}
	reduceTime := 5 * time.Millisecond
	m, stats, err := FromKeysCtx(context.Background(), "SP", rmi.LinearTrainer(), train, d, reduceTime, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Method != "SP" {
		t.Errorf("Method = %s", stats.Method)
	}
	if stats.TrainSetSize != len(train) {
		t.Errorf("TrainSetSize = %d", stats.TrainSetSize)
	}
	if stats.ReduceTime != reduceTime {
		t.Errorf("ReduceTime = %v", stats.ReduceTime)
	}
	if stats.ErrWidth != m.ErrLo+m.ErrHi {
		t.Errorf("ErrWidth mismatch")
	}
}
