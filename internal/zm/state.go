package zm

import (
	"fmt"

	"elsi/internal/base"
	"elsi/internal/geo"
	"elsi/internal/rmi"
	"elsi/internal/snapshot"
	"elsi/internal/store"
)

// stateVersion is the on-disk version of the ZM state encoding.
const stateVersion = 1

// StateAppend implements snapshot.Stater: the sorted key/point columns
// plus the trained model(s). Config (space, builder, fanout) is not
// serialized — a restored index must be constructed with the same
// Config before RestoreState.
func (ix *Index) StateAppend(b []byte) ([]byte, error) {
	b = snapshot.AppendU8(b, stateVersion)
	built := ix.st != nil
	b = snapshot.AppendBool(b, built)
	if !built {
		return b, nil
	}
	b = snapshot.AppendF64s(b, ix.st.Keys())
	b = snapshot.AppendPoints(b, ix.st.Points())
	var err error
	if b, err = rmi.AppendStaged(b, ix.staged); err != nil {
		return nil, err
	}
	if b, err = rmi.AppendBounded(b, ix.single); err != nil {
		return nil, err
	}
	return base.AppendBuildStatsSlice(b, ix.stats), nil
}

// RestoreState implements snapshot.Stater. The input is untrusted
// snapshot payload: every structural invariant the query paths rely on
// (parallel columns, ascending keys, exactly one model form) is
// checked before any field is mutated — store.NewSortedColumns panics
// on unsorted keys, so the order check must come first.
func (ix *Index) RestoreState(data []byte) error {
	d := snapshot.NewDec(data)
	if v := d.U8(); d.Err() == nil && v != stateVersion {
		return fmt.Errorf("zm: unsupported state version %d", v)
	}
	built := d.Bool()
	if err := d.Err(); err != nil {
		return fmt.Errorf("zm: decode state: %w", err)
	}
	if !built {
		if err := d.Close(); err != nil {
			return fmt.Errorf("zm: decode state: %w", err)
		}
		ix.st, ix.staged, ix.single, ix.stats = nil, nil, nil, nil
		return nil
	}
	keys := d.F64s()
	pts := d.Points()
	if err := d.Err(); err != nil {
		return fmt.Errorf("zm: decode state: %w", err)
	}
	if err := validateColumns(keys, pts); err != nil {
		return fmt.Errorf("zm: %w", err)
	}
	staged, err := rmi.DecodeStaged(d)
	if err != nil {
		return fmt.Errorf("zm: decode staged model: %w", err)
	}
	single, err := rmi.DecodeBounded(d)
	if err != nil {
		return fmt.Errorf("zm: decode single model: %w", err)
	}
	stats := base.DecodeBuildStatsSlice(d)
	if err := d.Close(); err != nil {
		return fmt.Errorf("zm: decode state: %w", err)
	}
	if (staged == nil) == (single == nil) {
		return fmt.Errorf("zm: built state needs exactly one of staged/single model")
	}
	ix.st = store.NewSortedColumns(keys, pts)
	ix.staged = staged
	ix.single = single
	ix.stats = stats
	return nil
}

// validateColumns checks the parallel-column invariants a sorted store
// requires: equal lengths and ascending keys. RestoreState checks them
// itself because store.NewSortedColumns enforces the same invariants
// by panicking.
func validateColumns(keys []float64, pts []geo.Point) error {
	if len(keys) != len(pts) {
		return fmt.Errorf("key/point columns mismatch: %d vs %d", len(keys), len(pts))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return fmt.Errorf("keys not sorted at %d", i)
		}
	}
	return nil
}
