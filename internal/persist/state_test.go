package persist

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"elsi/internal/base"
	"elsi/internal/geo"
	"elsi/internal/index"
	"elsi/internal/rmi"
	"elsi/internal/snapshot"
	"elsi/internal/zm"
)

// stateFamilies enumerates the 2-D index families elsid can persist
// (-index zm|brute) with a constructor closure, so the roundtrip
// property below runs against each of them with one body. Each call
// returns a fresh, unbuilt instance of the same configuration —
// exactly how recovery constructs the index it overlays the persisted
// state onto.
func stateFamilies() map[string]func() index.Index {
	return map[string]func() index.Index{
		"zm": func() index.Index {
			builder := &base.Direct{Trainer: rmi.PiecewiseTrainer(1.0 / 64)}
			return zm.New(zm.Config{Space: geo.UnitRect, Builder: builder, Fanout: 4})
		},
		"brute": func() index.Index { return index.NewBruteForce() },
	}
}

func statePoints(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

func sortPts(ps []geo.Point) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].X != ps[j].X {
			return ps[i].X < ps[j].X
		}
		return ps[i].Y < ps[j].Y
	})
}

func samePts(a, b []geo.Point) bool {
	if len(a) != len(b) {
		return false
	}
	sortPts(a)
	sortPts(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStaterRoundtripAllFamilies is the central persistence property:
// for every persistable family, build → serialize → restore onto a
// fresh instance yields an index whose serialized state and query
// answers are identical to the original's, with zero model training
// on restore.
func TestStaterRoundtripAllFamilies(t *testing.T) {
	pts := statePoints(3000, 42)
	qrng := rand.New(rand.NewSource(7))
	wins := make([]geo.Rect, 20)
	for i := range wins {
		x, y := qrng.Float64()*0.9, qrng.Float64()*0.9
		wins[i] = geo.Rect{MinX: x, MinY: y, MaxX: x + 0.08, MaxY: y + 0.08}
	}
	qpts := statePoints(30, 99)

	for name, mk := range stateFamilies() {
		t.Run(name, func(t *testing.T) {
			orig := mk()
			if err := orig.Build(pts); err != nil {
				t.Fatal(err)
			}
			st, ok := orig.(snapshot.Stater)
			if !ok {
				t.Fatalf("%s does not implement snapshot.Stater", name)
			}
			blob, err := st.StateAppend(nil)
			if err != nil {
				t.Fatal(err)
			}

			restored := mk()
			before := rmi.Trainings()
			if err := restored.(snapshot.Stater).RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			if got := rmi.Trainings(); got != before {
				t.Fatalf("restore trained %d models", got-before)
			}

			if restored.Len() != orig.Len() {
				t.Fatalf("Len %d, want %d", restored.Len(), orig.Len())
			}
			// Re-serializing the restored index must reproduce the
			// exact bytes: nothing was lost or reordered.
			blob2, err := restored.(snapshot.Stater).StateAppend(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatalf("re-encoded state differs: %d vs %d bytes", len(blob), len(blob2))
			}

			for i, p := range pts[:200] {
				if !restored.PointQuery(p) {
					t.Fatalf("stored point %d missing after restore", i)
				}
			}
			for i, w := range wins {
				if !samePts(orig.WindowQuery(w), restored.WindowQuery(w)) {
					t.Fatalf("window %d differs after restore", i)
				}
			}
			for i, q := range qpts {
				a, b := orig.KNN(q, 10), restored.KNN(q, 10)
				if !samePts(a, b) {
					t.Fatalf("kNN %d differs after restore", i)
				}
			}
		})
	}
}

// TestStaterHostileInput feeds damaged state blobs to every
// persistable family's RestoreState: truncations must fail with an
// error and bit flips must never panic (they may decode to a valid
// different state, but any structural inconsistency — unsorted keys,
// dangling counts — must be rejected, not trusted).
func TestStaterHostileInput(t *testing.T) {
	pts := statePoints(800, 11)
	for name, mk := range stateFamilies() {
		t.Run(name, func(t *testing.T) {
			orig := mk()
			if err := orig.Build(pts); err != nil {
				t.Fatal(err)
			}
			blob, err := orig.(snapshot.Stater).StateAppend(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []float64{0, 0.1, 0.5, 0.9, 0.999} {
				cut := int(float64(len(blob)) * frac)
				if cut >= len(blob) {
					cut = len(blob) - 1
				}
				if err := mk().(snapshot.Stater).RestoreState(blob[:cut]); err == nil {
					t.Fatalf("truncation to %d/%d bytes accepted", cut, len(blob))
				}
			}
			// Trailing garbage must be rejected too.
			if err := mk().(snapshot.Stater).RestoreState(append(append([]byte(nil), blob...), 0xEE)); err == nil {
				t.Fatal("trailing garbage accepted")
			}
			// Bit flips: every outcome except a panic is acceptable.
			step := len(blob)/97 + 1
			for off := 0; off < len(blob); off += step {
				mut := append([]byte(nil), blob...)
				mut[off] ^= 0x20
				_ = mk().(snapshot.Stater).RestoreState(mut)
			}
		})
	}
}
