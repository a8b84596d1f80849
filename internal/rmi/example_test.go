package rmi_test

import (
	"context"
	"fmt"

	"elsi/internal/rmi"
)

// The heart of predict-and-scan: a rank model trained on a REDUCED key
// set still answers exactly, because the error bounds are computed
// over the full set.
func ExampleNewBounded() {
	full := make([]float64, 10000)
	for i := range full {
		u := float64(i) / 10000
		full[i] = u * u // skewed CDF
	}
	// train on every 100th key only (the SP method's output)
	var reduced []float64
	for i := 0; i < len(full); i += 100 {
		reduced = append(reduced, full[i])
	}
	m, err := rmi.NewBounded(context.Background(), rmi.PiecewiseTrainer(1.0/64), reduced, full, 0)
	if err != nil {
		fmt.Println(err)
		return
	}

	// every stored key is inside its predicted scan range
	misses := 0
	for i, k := range full {
		lo, hi := m.SearchRange(k)
		if i < lo || i >= hi {
			misses++
		}
	}
	fmt.Printf("trained on %d of %d keys, misses: %d\n", len(reduced), len(full), misses)
	// Output:
	// trained on 100 of 10000 keys, misses: 0
}

func ExamplePiecewiseTrainer() {
	keys := make([]float64, 1000)
	for i := range keys {
		keys[i] = float64(i) / 1000
	}
	m := rmi.PiecewiseTrainer(1.0 / 32)(keys).(*rmi.PiecewiseModel)
	// uniform keys need a single linear piece
	fmt.Println("segments:", m.Segments())
	fmt.Printf("cdf(0.25) ~ %.2f\n", m.PredictCDF(0.25))
	// Output:
	// segments: 1
	// cdf(0.25) ~ 0.25
}
