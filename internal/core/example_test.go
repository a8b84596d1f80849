package core_test

import (
	"context"
	"fmt"

	"elsi/internal/base"
	"elsi/internal/core"
	"elsi/internal/curve"
	"elsi/internal/dataset"
	"elsi/internal/geo"
	"elsi/internal/methods"
	"elsi/internal/rmi"
)

// A fixed-method ELSI system runs Algorithm 1 with one chosen index
// building method (here RS): the reduced set is a tiny fraction of the
// data, yet every point stays inside its predicted scan range.
func ExampleSystem_fixedMethod() {
	sys := core.MustNewSystem(core.Config{
		Trainer:  rmi.PiecewiseTrainer(1.0 / 256),
		Selector: core.SelectorFixed,
		Fixed:    methods.NameRS,
	})

	pts := dataset.MustGenerate(dataset.OSM1, 20000, 1)
	d := base.Prepare(pts, geo.UnitRect, func(p geo.Point) float64 {
		return float64(curve.ZEncode(p, geo.UnitRect))
	})
	model, stats, err := sys.BuildModel(context.Background(), d)
	if err != nil {
		fmt.Println(err)
		return
	}

	misses := 0
	for i, k := range d.Keys {
		lo, hi := model.SearchRange(k)
		if i < lo || i >= hi {
			misses++
		}
	}
	fmt.Printf("method=%s reduced %d -> %d keys, misses=%d\n",
		stats.Method, d.Len(), stats.TrainSetSize, misses)
	// Output:
	// method=RS reduced 20000 -> 1135 keys, misses=0
}

// The LISA method pool excludes the point-synthesizing methods.
func ExamplePoolForIndex() {
	fmt.Println(core.PoolForIndex("LISA"))
	// Output:
	// [SP MR RS OG]
}
