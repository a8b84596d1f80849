package main

import (
	"context"
	"testing"
	"time"

	"elsi/internal/dataset"
	"elsi/internal/engine"
	"elsi/internal/faults"
	"elsi/internal/geo"
	"elsi/internal/persist"
	"elsi/internal/rmi"
)

// heldBoot starts the learners with the predictor's training held at
// the "rebuild/train" fault point until ctx is cancelled, then builds
// the durable two-shard backend over dir. A boot that waits for the
// training fails the test instead of hanging it.
func heldBoot(t *testing.T, ctx context.Context, pts []geo.Point, dir string) (engine.Backend, func() error) {
	t.Helper()
	faults.Enable("rebuild/train", faults.Fault{Mode: faults.ModeBudget, Times: 1})
	type booted struct {
		be    engine.Backend
		close func() error
		err   error
	}
	done := make(chan booted, 1)
	go func() {
		pred, sc, err := startLearners(ctx, 1, false)
		if err != nil {
			done <- booted{err: err}
			return
		}
		be, closeBE, err := buildBackend("zm", pts, pred, sc, 400, 2, 0, dir, "always")
		done <- booted{be, closeBE, err}
	}()
	select {
	case b := <-done:
		if b.err != nil {
			t.Fatal(b.err)
		}
		if b.close == nil {
			t.Fatal("a durable backend came without a closer")
		}
		return b.be, b.close
	case <-time.After(30 * time.Second):
		t.Fatal("the boot waited for the predictor's training")
	}
	return nil, nil
}

// heldAtHold waits until the predictor's training has reached its hold,
// which it leaves only when its context is cancelled.
func heldAtHold(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); faults.Hits("rebuild/train") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the predictor's training never reached its hold")
		}
	}
}

// TestBuildBackendServesBeforeTrainingAndRecovers boots the durable
// backend twice over one data directory, the way elsid does: once to
// create it, once to recover it. Both boots answer reads while the
// rebuild predictor's training is held; the recovered one answers the
// first boot's acknowledged updates and trains no index model.
func TestBuildBackendServesBeforeTrainingAndRecovers(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	n := 4000
	if testing.Short() {
		n = 1500
	}
	pts, err := dataset.Generate(dataset.Uniform, n, 1)
	if err != nil {
		t.Fatal(err)
	}

	// first boot: create the store while the predictor's training is held
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	be, _ := heldBoot(t, ctx, pts, dir)
	for i, ok := range be.PointBatch(pts[:50], nil) {
		if !ok {
			t.Fatalf("point %d missed while training was held", i)
		}
	}
	heldAtHold(t)
	cancel() // training ends cancelled; trigger checks stop waiting for it

	inserted := []geo.Point{{X: 0.1234, Y: 0.5678}, {X: 0.9, Y: 0.01}, {X: 0.31, Y: 0.41}}
	deleted := pts[100:103]
	for _, p := range inserted {
		be.Insert(p)
	}
	for _, p := range deleted {
		be.Delete(p)
	}
	be.(*persist.Store).Kill() // a crash: recovery replays the WAL tail
	faults.Reset()

	// second boot: recover, again with the training held
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	trainings := rmi.Trainings()
	be2, closeBE2 := heldBoot(t, ctx2, nil, dir)
	if got := be2.(*persist.Store).Recovery().Shards; len(got) != 2 {
		t.Fatalf("recovered %d shards, want 2", len(got))
	}
	for i, ok := range be2.PointBatch(inserted, nil) {
		if !ok {
			t.Errorf("acknowledged insert %v lost across recovery", inserted[i])
		}
	}
	for i, ok := range be2.PointBatch(deleted, nil) {
		if ok {
			t.Errorf("acknowledged delete %v undone by recovery", deleted[i])
		}
	}
	for i, ok := range be2.PointBatch(pts[200:250], nil) {
		if !ok {
			t.Errorf("built point %v lost across recovery", pts[200+i])
		}
	}
	if got := rmi.Trainings(); got != trainings {
		t.Errorf("recovery trained %d index models", got-trainings)
	}
	heldAtHold(t)
	if st := be2.BackendStats(); st.Len != n+len(inserted)-len(deleted) {
		t.Errorf("recovered Len = %d, want %d", st.Len, n+len(inserted)-len(deleted))
	}
	cancel2()
	if err := closeBE2(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildBackendRejectsAdaptiveBrute(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pred, sc, err := startLearners(ctx, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := dataset.Generate(dataset.Uniform, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := buildBackend("brute", pts, pred, sc, 20, 1, 0, "", ""); err == nil {
		t.Fatal("-adaptive over the brute family was accepted")
	}
}
