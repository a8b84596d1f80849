package kstest

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func sortedUniform(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	sort.Float64s(v)
	return v
}

func TestDistanceIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := sortedUniform(rng, 1000)
	if got := Distance(d, d); got != 0 {
		t.Errorf("Distance(d,d) = %v, want 0", got)
	}
}

func TestDistanceDisjoint(t *testing.T) {
	a := []float64{0, 0.1, 0.2}
	b := []float64{10, 11, 12}
	if got := Distance(a, b); got != 1 {
		t.Errorf("Distance of disjoint supports = %v, want 1", got)
	}
}

func TestDistanceEmpty(t *testing.T) {
	if got := Distance(nil, nil); got != 0 {
		t.Errorf("Distance(nil,nil) = %v, want 0", got)
	}
	if got := Distance(nil, []float64{1}); got != 1 {
		t.Errorf("Distance(nil, x) = %v, want 1", got)
	}
}

func TestDistanceKnown(t *testing.T) {
	// ds = {0.5}: its CDF is a step at 0.5. d = {0,1}: CDF steps of 1/2
	// at 0 and 1. At x just below 0.5: |0 - 0.5| = 0.5. At 0.5: |1 - 0.5|
	// = 0.5. KS distance is 0.5.
	ds := []float64{0.5}
	d := []float64{0, 1}
	if got := Distance(ds, d); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Distance = %v, want 0.5", got)
	}
}

func TestDistanceMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		ns := 1 + rng.Intn(50)
		n := 1 + rng.Intn(500)
		ds := sortedUniform(rng, ns)
		d := sortedUniform(rng, n)
		a := Distance(ds, d)
		b := DistanceMerge(ds, d)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("trial %d: Distance=%v DistanceMerge=%v", trial, a, b)
		}
	}
}

func TestDistanceWithTies(t *testing.T) {
	ds := []float64{1, 1, 1, 2}
	d := []float64{1, 2, 2, 2}
	a := Distance(ds, d)
	b := DistanceMerge(ds, d)
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("tied values: Distance=%v DistanceMerge=%v", a, b)
	}
	// CDFs: ds jumps to 3/4 at 1 and 1 at 2; d jumps to 1/4 at 1 and 1
	// at 2. Max gap = |3/4 - 1/4| = 0.5.
	if math.Abs(a-0.5) > 1e-12 {
		t.Errorf("tied Distance = %v, want 0.5", a)
	}
}

func TestQuickDistanceSymmetryAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func() bool {
		ds := sortedUniform(rng, 1+rng.Intn(30))
		d := sortedUniform(rng, 1+rng.Intn(300))
		v := Distance(ds, d)
		if v < 0 || v > 1 {
			return false
		}
		// KS distance is symmetric in its arguments.
		return math.Abs(v-DistanceMerge(d, ds)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDistanceToUniform(t *testing.T) {
	// A perfectly regular grid over [0,1) is as uniform as a sample can
	// be: distance should be about 1/n.
	n := 1000
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = (float64(i) + 0.5) / float64(n)
	}
	if got := DistanceToUniform(keys, 0, 1); got > 2.0/float64(n) {
		t.Errorf("uniform grid DistanceToUniform = %v, want <= %v", got, 2.0/float64(n))
	}
	// A point mass at 0 has distance ~1.
	mass := make([]float64, n)
	if got := DistanceToUniform(mass, 0, 1); got < 0.99 {
		t.Errorf("point-mass DistanceToUniform = %v, want ~1", got)
	}
}

func TestDistanceToUniformSkew(t *testing.T) {
	// keys = u^4 concentrates near 0: sup |F_emp - u| is attained where
	// x = u^4 -> F_emp(x) = x^(1/4); gap g(u) = u^(1/4) - u maximized at
	// u = (1/4)^(4/3) ~ 0.157 -> g ~ 0.47.
	n := 20000
	keys := make([]float64, n)
	for i := range keys {
		u := (float64(i) + 0.5) / float64(n)
		keys[i] = u * u * u * u
	}
	got := DistanceToUniform(keys, 0, 1)
	if math.Abs(got-0.4724) > 0.01 {
		t.Errorf("skewed DistanceToUniform = %v, want ~0.472", got)
	}
}

func BenchmarkDistanceBinarySearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ds := sortedUniform(rng, 1000)
	d := sortedUniform(rng, 1000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Distance(ds, d)
	}
}

func BenchmarkDistanceMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ds := sortedUniform(rng, 1000)
	d := sortedUniform(rng, 1000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DistanceMerge(ds, d)
	}
}
