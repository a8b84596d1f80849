package scorer

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"elsi/internal/floats"
	"elsi/internal/methods"
)

func TestTrainCtxWeightsMatchTrain(t *testing.T) {
	samples := syntheticSamples(rand.New(rand.NewSource(4)))
	cfg := Config{Epochs: 40, Seed: 4}
	trained, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	async, err := TrainCtx(context.Background(), samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// PredictSpeedups waits for the training; it must not read the nets
	// before they are final
	b1, q1 := trained.PredictSpeedups(methods.NameMR, 10000, 0.3)
	b2, q2 := async.PredictSpeedups(methods.NameMR, 10000, 0.3)
	if !floats.Eq(b1, b2) || !floats.Eq(q1, q2) {
		t.Errorf("TrainCtx predicts (%v, %v), Train (%v, %v)", b2, q2, b1, q1)
	}
	a, err := trained.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := async.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("TrainCtx weights differ from Train's")
	}
	if _, err := TrainCtx(context.Background(), nil, cfg); err == nil {
		t.Error("TrainCtx accepted an empty sample set")
	}
}

func TestCancelledScorerIsNotSerialized(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc, err := TrainCtx(ctx, syntheticSamples(rand.New(rand.NewSource(5))), Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.MarshalBinary(); err == nil {
		t.Error("a scorer whose training was cancelled was serialized")
	}
	sc.PredictSpeedups(methods.NameOG, 1000, 0.5) // returns: the training has ended
}
