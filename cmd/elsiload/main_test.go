package main

import (
	"context"
	"testing"
	"time"

	"elsi/internal/dataset"
	"elsi/internal/engine"
	"elsi/internal/geo"
	"elsi/internal/index"
	"elsi/internal/rebuild"
	"elsi/internal/server"
)

// startServer serves a uniform data set drawn with seed on ephemeral
// localhost ports, the way elsid serves its default -dataset: the
// mixer's hotspot pool is a prefix of the same points.
func startServer(t *testing.T, seed int64) *server.Server {
	t.Helper()
	pts := dataset.MustGenerate(dataset.Uniform, 2000, seed)
	proc, err := rebuild.NewProcessor(index.NewBruteForce(), nil, pts, func(p geo.Point) float64 { return p.X }, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(engine.NewWithBackend(engine.NewSingle(proc, 0), nil, engine.Config{}))
	if err := srv.Start(context.Background(), "127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv
}

// TestRunLoadBothTransports drives a short Zipf-skewed five-part mix
// over each transport: every operation kind is sampled, none fails,
// and the server's own counters come back with the report.
func TestRunLoadBothTransports(t *testing.T) {
	const seed = 1
	srv := startServer(t, seed)
	targets := map[string]string{
		"tcp":  "tcp://" + srv.TCPAddr(),
		"http": "http://" + srv.HTTPAddr(),
	}
	for transport, target := range targets {
		t.Run(transport, func(t *testing.T) {
			mx, err := newMixer("30:20:20:15:15", 1.2, 64, seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runLoad(target, 200, 300*time.Millisecond, 0, 4, seed, mx)
			if err != nil {
				t.Fatal(err)
			}
			if res.Transport != transport || res.Target != target {
				t.Fatalf("report names %s %s, want %s %s", res.Transport, res.Target, transport, target)
			}
			if res.Overall.Errors != 0 || res.Overall.Overloaded != 0 {
				t.Fatalf("%d errors, %d overloaded over %d requests", res.Overall.Errors, res.Overall.Overloaded, res.Overall.Count)
			}
			for _, op := range []string{"point", "window", "knn", "insert", "delete"} {
				if res.PerOp[op].Count == 0 {
					t.Errorf("no %s samples in %d requests", op, res.Overall.Count)
				}
			}
			if res.ServerStats == nil {
				t.Error("report carries no server stats")
			}
		})
	}
}

func TestNewMixerRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mix      string
		zipf     float64
		hotspots int
	}{
		{"four parts", "1:1:1:1", 0, 128},
		{"not a number", "1:x:1", 0, 128},
		{"negative weight", "1:-1:1", 0, 128},
		{"all weights zero", "0:0:0:0:0", 0, 128},
		{"zipf exponent one", "1:1:1", 1, 128},
		{"zipf exponent below one", "1:1:1", 0.5, 128},
		{"no hotspots", "1:1:1", 1.2, 0},
	} {
		if _, err := newMixer(tc.mix, tc.zipf, tc.hotspots, 1); err == nil {
			t.Errorf("%s: newMixer(%q, %v, %d) accepted", tc.name, tc.mix, tc.zipf, tc.hotspots)
		}
	}
	if _, err := newMixer("40:10:15:20:15", 1.2, 128, 1); err != nil {
		t.Errorf("default five-part mix with -zipf 1.2 rejected: %v", err)
	}
}
