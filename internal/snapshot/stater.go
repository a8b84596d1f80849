package snapshot

// Stater is implemented by the index families a persistent store can
// hold: zm.Index and index.BruteForce, the two elsid serves. The other
// families are built in memory by the experiment harness and are never
// persisted, so they carry no codec. StateAppend serializes the
// family's full post-build state — SoA columns, trained model
// parameters, build stats — onto b using this package's Append
// primitives; RestoreState rebuilds that state on a freshly
// constructed (same-configuration) instance WITHOUT any training.
//
// The configuration itself (space, builders, fanout — anything that
// holds functions) is never serialized: restore goes through the same
// factory that built the original, then overlays the trained state.
// RestoreState must validate hostile input: any structural
// inconsistency returns an error and leaves the receiver unusable
// rather than silently wrong.
type Stater interface {
	StateAppend(b []byte) ([]byte, error)
	RestoreState(data []byte) error
}
