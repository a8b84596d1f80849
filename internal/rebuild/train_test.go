package rebuild

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"elsi/internal/dataset"
	"elsi/internal/faults"
	"elsi/internal/geo"
	"elsi/internal/nn"
)

// heldPredictor starts a predictor whose training is held at the
// "rebuild/train" fault point until ctx is cancelled.
func heldPredictor(t *testing.T, ctx context.Context) *Predictor {
	t.Helper()
	faults.Enable("rebuild/train", faults.Fault{Mode: faults.ModeBudget, Times: 1})
	pred, err := TrainPredictorCtx(ctx, HeuristicSamples(rand.New(rand.NewSource(1)), 200), PredictorConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

func isReady(p *Predictor) bool {
	select {
	case <-p.ready:
		return true
	default:
		return false
	}
}

func TestTrainPredictorCtxWeightsMatchTrainPredictor(t *testing.T) {
	samples := HeuristicSamples(rand.New(rand.NewSource(9)), 500)
	cfg := PredictorConfig{Epochs: 60, Seed: 9}
	trained, err := TrainPredictor(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	async, err := TrainPredictorCtx(context.Background(), samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	async.Wait()
	a, err := trained.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := async.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("TrainPredictorCtx + Wait weights differ from TrainPredictor's")
	}
	if _, err := TrainPredictorCtx(context.Background(), nil, cfg); err == nil {
		t.Error("TrainPredictorCtx accepted an empty sample set")
	}
}

// updateDecisions drives a seeded drifting update stream through an
// inline-rebuild processor and returns the update indices at which a
// rebuild fired.
func updateDecisions(t *testing.T, pred *Predictor) []int {
	t.Helper()
	pts := dataset.MustGenerate(dataset.Uniform, 2000, 6)
	ix := testIndex()
	p, err := NewProcessor(ix, pred, pts, zmMapKey(ix), 250)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var fired []int
	for i := 0; i < 6000; i++ {
		var rebuilt bool
		if i%5 == 4 {
			rebuilt = p.Delete(pts[rng.Intn(len(pts))])
		} else {
			c := float64(i) / 6000
			rebuilt = p.Insert(geo.Point{X: c + rng.Float64()*0.01, Y: c + rng.Float64()*0.01})
		}
		if rebuilt {
			fired = append(fired, i)
		}
	}
	return fired
}

func TestHeldPredictorDecidesLikeSyncPredictor(t *testing.T) {
	defer faults.Reset()
	samples := HeuristicSamples(rand.New(rand.NewSource(5)), 800)
	cfg := PredictorConfig{Seed: 1}
	trained, err := TrainPredictor(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := updateDecisions(t, trained)
	if len(want) == 0 {
		t.Fatal("the drifting stream fired no rebuild; the comparison would be vacuous")
	}

	// hold the training for a while, then let it run to the end: the
	// first update arrives while it is still held
	faults.Enable("rebuild/train", faults.Fault{Mode: faults.ModeDelay, Times: 1, Delay: 50 * time.Millisecond})
	held, err := TrainPredictorCtx(context.Background(), samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := updateDecisions(t, held); !equalInts(got, want) {
		t.Fatalf("rebuilds fired at %v with a held predictor, at %v with a synchronous one", got, want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReadsAnswerWhileTrainingHeld(t *testing.T) {
	defer faults.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pred := heldPredictor(t, ctx)
	pts := dataset.MustGenerate(dataset.Uniform, 2000, 2)
	ix := testIndex()
	p, err := NewProcessor(ix, pred, pts, zmMapKey(ix), 100)
	if err != nil {
		t.Fatal(err)
	}
	q := pts[17]
	if !p.PointQuery(q) {
		t.Error("point query missed a built point while training was held")
	}
	win := geo.Rect{MinX: q.X - 1e-9, MinY: q.Y - 1e-9, MaxX: q.X + 1e-9, MaxY: q.Y + 1e-9}
	if got := p.WindowQuery(win); len(got) != 1 || got[0] != q {
		t.Errorf("window query = %v while training was held, want [%v]", got, q)
	}
	if got := p.KNN(q, 1); len(got) != 1 || got[0] != q {
		t.Errorf("kNN = %v while training was held, want [%v]", got, q)
	}
	if isReady(pred) {
		t.Fatal("training was not held: the predictor is already ready")
	}
}

func TestInsertWaitsForTrainingOutsideLock(t *testing.T) {
	defer faults.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pred := heldPredictor(t, ctx)
	pts := dataset.MustGenerate(dataset.Uniform, 1000, 3)
	ix := testIndex()
	p, err := NewProcessor(ix, pred, pts, zmMapKey(ix), 2)
	if err != nil {
		t.Fatal(err)
	}

	// the first update is no trigger check: it does not wait
	first := make(chan bool, 1)
	go func() { first <- p.Insert(geo.Point{X: 0.75, Y: 0.25}) }()
	select {
	case <-first:
	case <-time.After(10 * time.Second):
		t.Fatal("an insert with no trigger check waited for training")
	}

	// the second is: it applies, then waits with the lock released
	np := geo.Point{X: 0.25, Y: 0.75}
	inserted := make(chan bool, 1)
	go func() { inserted <- p.Insert(np) }()
	time.Sleep(20 * time.Millisecond) // let the insert reach its wait

	// a reader finishes while the insert waits: the wait holds no lock
	read := make(chan bool, 1)
	go func() { read <- p.PointQuery(np) }()
	select {
	case <-read:
	case <-time.After(10 * time.Second):
		t.Fatal("a reader blocked behind an insert waiting for training")
	}
	select {
	case <-inserted:
		t.Fatal("Insert returned from its trigger check while training was held")
	default:
	}

	cancel() // training ends cancelled: the check runs, no rebuild
	if <-inserted {
		t.Error("a cancelled predictor triggered a rebuild")
	}
	if !p.PointQuery(np) || p.Len() != len(pts)+2 {
		t.Errorf("after the released insert: visible=%v Len=%d, want true and %d", p.PointQuery(np), p.Len(), len(pts)+2)
	}
}

func TestCancelledPredictorNeverRebuilds(t *testing.T) {
	defer faults.Reset()
	stormy := Features{N: 100000, Dist: 0.8, Depth: 12, UpdateRatio: 5, Sim: 0.2}
	samples := HeuristicSamples(rand.New(rand.NewSource(3)), 800)
	before := runtime.NumGoroutine()

	// cancelled while held at the fault point, and cancelled before the
	// first epoch of nn.Train
	ctx, cancel := context.WithCancel(context.Background())
	held := heldPredictor(t, ctx)
	cancel()
	held.Wait() // disarm only once the hold has been hit
	faults.Reset()
	early, err := TrainPredictorCtx(ctx, samples, PredictorConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, pred := range map[string]*Predictor{"held": held, "early": early} {
		pred.Wait()
		if !isReady(pred) {
			t.Fatalf("%s: Wait returned with the ready channel open", name)
		}
		if pred.ShouldRebuild(stormy) {
			t.Errorf("%s: a cancelled predictor asked for a rebuild", name)
		}
		if _, err := pred.MarshalBinary(); err == nil {
			t.Errorf("%s: a cancelled predictor was serialized", name)
		}
		pts := dataset.MustGenerate(dataset.Uniform, 1000, 4)
		ix := testIndex()
		p, err := NewProcessor(ix, pred, pts, zmMapKey(ix), 50)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 3000; i++ {
			if p.Insert(geo.Point{X: rng.Float64() * 0.01, Y: rng.Float64() * 0.01}) {
				t.Fatalf("%s: insert %d triggered a rebuild", name, i)
			}
		}
		if p.Rebuilds() != 0 {
			t.Errorf("%s: %d rebuilds", name, p.Rebuilds())
		}
	}
	if !errors.Is(held.err, context.Canceled) {
		t.Errorf("held: training error %v, want context.Canceled", held.err)
	}
	if !errors.Is(early.err, nn.ErrCancelled) {
		t.Errorf("early: training error %v, want nn.ErrCancelled", early.err)
	}

	// no training goroutine outlives its predictor
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after cancelled training, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWaitIsNilSafe(t *testing.T) {
	var p *Predictor
	p.Wait()
	loaded := new(Predictor)
	loaded.Wait() // a loaded predictor has no training to wait for
}
