// Package stats provides the summary statistics the benchmark harness
// reports: mean, standard deviation, and percentiles of latency
// samples. Averages alone hide the tail behaviour that predict-and-
// scan indices exhibit when a model's error bounds blow up on a
// region, so the extension experiments report P50/P95/P99 as well.
package stats

import (
	"math"
	"sort"
	"time"
)

// Summary aggregates a latency sample.
type Summary struct {
	Count         int
	Mean          time.Duration
	StdDev        time.Duration
	Min, Max      time.Duration
	P50, P95, P99 time.Duration
}

// Summarize computes a Summary of samples (which it sorts in place).
func Summarize(samples []time.Duration) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum float64
	for _, s := range samples {
		sum += float64(s)
	}
	mean := sum / float64(n)
	var varSum float64
	for _, s := range samples {
		d := float64(s) - mean
		varSum += d * d
	}
	return Summary{
		Count:  n,
		Mean:   time.Duration(mean),
		StdDev: time.Duration(math.Sqrt(varSum / float64(n))),
		Min:    samples[0],
		Max:    samples[n-1],
		P50:    Percentile(samples, 0.50),
		P95:    Percentile(samples, 0.95),
		P99:    Percentile(samples, 0.99),
	}
}

// Percentile returns the p-quantile (0 <= p <= 1) of sorted samples
// using the nearest-rank method.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}
