package rmi

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"elsi/internal/snapshot"
)

func trainKeys(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	sort.Float64s(keys)
	return keys
}

// roundtripModel encodes m, decodes it back, and checks the two
// predict identically over probe keys (byte-identical re-encoding is
// checked too — the decode must lose nothing).
func roundtripModel(t *testing.T, m Model) {
	t.Helper()
	b, err := AppendModel(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	d := snapshot.NewDec(b)
	got, err := DecodeModel(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := AppendModel(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("re-encoded model differs: %d vs %d bytes", len(b), len(b2))
	}
	for k := -0.25; k <= 1.25; k += 0.01 {
		a, bb := m.PredictCDF(k), got.PredictCDF(k)
		if a != bb && !(math.IsNaN(a) && math.IsNaN(bb)) {
			t.Fatalf("PredictCDF(%g): %g vs %g", k, a, bb)
		}
	}
}

func TestModelCodecRoundtrip(t *testing.T) {
	keys := trainKeys(2000, 1)
	trainers := map[string]Trainer{
		"linear":      LinearTrainer(),
		"piecewise":   PiecewiseTrainer(1.0 / 128),
		"ffn":         FFNTrainer(FFNConfig{Hidden: 16, Epochs: 120, Seed: 1}),
		"radixspline": RadixSplineTrainer(1.0/128, 8),
	}
	for name, tr := range trainers {
		t.Run(name, func(t *testing.T) {
			roundtripModel(t, tr(keys))
		})
	}
	t.Run("const", func(t *testing.T) {
		// Degenerate input trains the constant fallback model.
		roundtripModel(t, LinearTrainer()([]float64{0.5, 0.5, 0.5}))
	})
}

func TestBoundedCodecRoundtrip(t *testing.T) {
	keys := trainKeys(3000, 2)
	b := bounded(t, PiecewiseTrainer(1.0/64), keys, keys)
	enc, err := AppendBounded(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	d := snapshot.NewDec(enc)
	got, err := DecodeBounded(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got.ErrLo != b.ErrLo || got.ErrHi != b.ErrHi {
		t.Fatalf("bounds %d/%d, want %d/%d", got.ErrLo, got.ErrHi, b.ErrLo, b.ErrHi)
	}
	for _, k := range trainKeys(100, 3) {
		alo, ahi := b.SearchRange(k)
		blo, bhi := got.SearchRange(k)
		if alo != blo || ahi != bhi {
			t.Fatalf("SearchRange(%g): [%d,%d] vs [%d,%d]", k, alo, ahi, blo, bhi)
		}
	}

	// nil Bounded roundtrips to nil (absent optional model).
	encNil, err := AppendBounded(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	dn := snapshot.NewDec(encNil)
	gotNil, err := DecodeBounded(dn)
	if err != nil || gotNil != nil {
		t.Fatalf("nil roundtrip: %v %v", gotNil, err)
	}
}

func TestStagedCodecRoundtrip(t *testing.T) {
	keys := trainKeys(5000, 4)
	st := staged(t, keys, 8, LinearTrainer(), PiecewiseTrainer(1.0/64))
	enc, err := AppendStaged(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	d := snapshot.NewDec(enc)
	got, err := DecodeStaged(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, k := range trainKeys(200, 5) {
		alo, ahi := st.SearchRange(k)
		blo, bhi := got.SearchRange(k)
		if alo != blo || ahi != bhi {
			t.Fatalf("SearchRange(%g): [%d,%d] vs [%d,%d]", k, alo, ahi, blo, bhi)
		}
	}
}

func TestModelCodecHostileInput(t *testing.T) {
	keys := trainKeys(500, 6)
	enc, err := AppendModel(nil, PiecewiseTrainer(1.0/64)(keys))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
		d := snapshot.NewDec(enc[:cut])
		if _, err := DecodeModel(d); err == nil {
			if err := d.Close(); err == nil {
				t.Fatalf("truncation to %d bytes accepted", cut)
			}
		}
	}
	// An unregistered tag must be rejected, not misdecoded.
	bogus := append([]byte(nil), enc...)
	bogus[0] = 0xFD
	d := snapshot.NewDec(bogus)
	if _, err := DecodeModel(d); err == nil {
		t.Fatal("unknown model tag accepted")
	}
}
