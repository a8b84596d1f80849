package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestSummarizeBasic(t *testing.T) {
	samples := []time.Duration{5000, 1000, 3000, 2000, 4000}
	s := Summarize(samples)
	if s.Count != 5 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.Mean != 3000 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.Min != 1000 || s.Max != 5000 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.P50 != 3000 {
		t.Errorf("P50 = %v", s.P50)
	}
	// population stddev of {1..5}k is sqrt(2)*1000; Duration truncates
	if math.Abs(float64(s.StdDev)-math.Sqrt2*1000) > 1 {
		t.Errorf("StdDev = %v", s.StdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 || s.P99 != 0 {
		t.Errorf("empty Summary = %+v", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i + 1)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{{0, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile")
	}
}

func TestPercentileOrderingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]time.Duration, 500)
	for i := range samples {
		samples[i] = time.Duration(rng.Intn(100000))
	}
	s := Summarize(samples)
	if !(s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Errorf("percentiles out of order: %+v", s)
	}
}
