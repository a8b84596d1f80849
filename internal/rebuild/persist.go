package rebuild

import (
	"fmt"

	"elsi/internal/delta"
	"elsi/internal/geo"
	"elsi/internal/index"
	"elsi/internal/snapshot"
)

// State is a consistent cut of a Processor's update-path state: the
// source-of-truth point set, the build summary the rebuild predictor
// consults, and the pending delta records. Together with the wrapped
// index's own serialized state it is everything recovery needs to
// reconstruct the processor without retraining a single model.
type State struct {
	NextID      int64
	BuiltN      int
	BuiltDist   float64
	UpdatesSeen int
	Rebuilds    int
	BuiltKeys   []float64
	Pts         []geo.Point
	Delta       []delta.Record
}

// CaptureState snapshots the processor under the read lock and encodes
// the wrapped index through encodeIdx while the lock is held, so the
// index bytes and the delta records describe the same instant.
//
// When a background rebuild is in flight the capture describes the
// serving state: the old index plus the frozen view merged with the
// live overlay (overlay deletions cancel the frozen insertions they
// target, mirroring the failed-rebuild restore path). A recovered
// processor starts with no rebuild in flight and all pending updates
// in its live delta list, which serves identical query answers.
func (p *Processor) CaptureState(encodeIdx func(idx Rebuildable) ([]byte, error)) (State, []byte, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	idxBytes, err := encodeIdx(p.idx)
	if err != nil {
		return State{}, nil, err
	}
	st := State{
		NextID:      p.nextID,
		BuiltN:      p.builtN,
		BuiltDist:   p.builtDist,
		UpdatesSeen: p.updatesSeen,
		Rebuilds:    p.rebuilds,
		BuiltKeys:   append([]float64(nil), p.builtKeys...),
		Pts:         append([]geo.Point(nil), p.pts...),
	}
	if p.frozen == nil {
		st.Delta = p.deltaList.Records()
		return st, idxBytes, nil
	}
	var merged delta.List
	for _, r := range p.frozen.Records() {
		merged.Adopt(r)
	}
	for _, r := range p.deltaList.Records() {
		if r.Op == delta.Deleted && merged.RemoveInsertedPoint(r.Point) {
			continue
		}
		merged.Adopt(r)
	}
	st.Delta = merged.Records()
	return st, idxBytes, nil
}

// RestoreProcessor reconstructs a Processor around an index that was
// already restored from its serialized state. No Build runs — that is
// the point of snapshot recovery — so idx must already hold the data
// the State describes.
func RestoreProcessor(idx Rebuildable, pred *Predictor, mapKey func(geo.Point) float64, fu int, st State) *Processor {
	p := &Processor{idx: idx, pred: pred, Fu: fu, MapKey: mapKey}
	if p.Fu <= 0 {
		p.Fu = 1024
	}
	p.nextID = st.NextID
	p.builtN = st.BuiltN
	p.builtDist = st.BuiltDist
	p.updatesSeen = st.UpdatesSeen
	p.rebuilds = st.Rebuilds
	p.builtKeys = st.BuiltKeys
	p.pts = st.Pts
	for _, r := range st.Delta {
		p.deltaList.Adopt(r)
	}
	return p
}

// ReplayInsert applies a WAL insert record during recovery: the same
// routing as Insert — including the UseBuiltin path — minus the
// rebuild trigger, so replay never trains a model and never waits for
// the predictor's training. It reports whether the insert applied
// (false mirrors Insert's duplicate no-op).
func (p *Processor) ReplayInsert(pt geo.Point) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pointLiveLocked(pt) {
		return false
	}
	p.pts = append(p.pts, pt)
	if ins, ok := p.idx.(index.Inserter); ok && p.UseBuiltin {
		ins.Insert(pt)
	} else {
		p.nextID++
		p.deltaList.Insert(p.nextID, pt)
	}
	p.updatesSeen++
	return true
}

// ReplayDelete applies a WAL delete record during recovery, mirroring
// Delete minus the rebuild trigger.
func (p *Processor) ReplayDelete(pt geo.Point) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	removed := false
	for i := len(p.pts) - 1; i >= 0; i-- {
		if p.pts[i] == pt {
			p.pts[i] = p.pts[len(p.pts)-1]
			p.pts = p.pts[:len(p.pts)-1]
			removed = true
		}
	}
	if !removed {
		return false
	}
	if !p.deltaList.RemoveInsertedPoint(pt) {
		if del, ok := p.idx.(index.Deleter); ok && p.UseBuiltin && del.Delete(pt) {
			// removed through the index's own deletion path
		} else {
			p.nextID++
			p.deltaList.Delete(p.nextID, pt)
		}
	}
	p.updatesSeen++
	return true
}

// --- State codec ------------------------------------------------------

// stateVersion versions the processor-state encoding inside snapshots.
const stateVersion = 1

// AppendState serializes st.
func AppendState(b []byte, st State) []byte {
	b = snapshot.AppendU8(b, stateVersion)
	b = snapshot.AppendVarint(b, st.NextID)
	b = snapshot.AppendInt(b, st.BuiltN)
	b = snapshot.AppendF64(b, st.BuiltDist)
	b = snapshot.AppendInt(b, st.UpdatesSeen)
	b = snapshot.AppendInt(b, st.Rebuilds)
	b = snapshot.AppendF64s(b, st.BuiltKeys)
	b = snapshot.AppendPoints(b, st.Pts)
	b = snapshot.AppendUvarint(b, uint64(len(st.Delta)))
	for _, r := range st.Delta {
		b = snapshot.AppendVarint(b, r.ID)
		b = snapshot.AppendU8(b, uint8(r.Op))
		b = snapshot.AppendPoint(b, r.Point)
	}
	return b
}

// DecodeState reads a State off d, validating counters and record ops.
func DecodeState(d *snapshot.Dec) (State, error) {
	var st State
	if v := d.U8(); d.Err() == nil && v != stateVersion {
		return st, fmt.Errorf("rebuild: unsupported processor state version %d", v)
	}
	st.NextID = d.Varint()
	st.BuiltN = d.Int()
	st.BuiltDist = d.F64()
	st.UpdatesSeen = d.Int()
	st.Rebuilds = d.Int()
	st.BuiltKeys = d.F64s()
	st.Pts = d.Points()
	n := d.Count(18)
	if err := d.Err(); err != nil {
		return st, fmt.Errorf("rebuild: decode processor state: %w", err)
	}
	if st.BuiltN < 0 || st.UpdatesSeen < 0 || st.Rebuilds < 0 || st.NextID < 0 {
		return st, fmt.Errorf("rebuild: negative processor counters")
	}
	st.Delta = make([]delta.Record, n)
	for i := range st.Delta {
		id := d.Varint()
		op := d.U8()
		pt := d.Point()
		if err := d.Err(); err != nil {
			return st, fmt.Errorf("rebuild: decode delta record %d: %w", i, err)
		}
		if op > uint8(delta.Deleted) {
			return st, fmt.Errorf("rebuild: delta record %d has unknown op %d", i, op)
		}
		st.Delta[i] = delta.Record{ID: id, Op: delta.Op(op), Point: pt}
	}
	if err := d.Err(); err != nil {
		return st, fmt.Errorf("rebuild: decode processor state: %w", err)
	}
	return st, nil
}
