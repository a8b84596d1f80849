package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"elsi/internal/client"
	"elsi/internal/floats"
)

// The contract file and the code's registry must say the same thing.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(file.Command, want) {
		t.Errorf("command = %v, want %v", file.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(file.Paths, want) {
		t.Errorf("paths = %v, want %v", file.Paths, want)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the registry", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, registry has %q: %q", i, got, w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json     %+v\n registry %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json     %+v\n registry %+v", file.PerLayer, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
}

// checkLine asserts the result line carries every declared metric of
// its mode exactly once, each with its unit, and nothing else.
func checkLine(t *testing.T, res *runResult) {
	t.Helper()
	line, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   *bool `json:"correct"`
		Attempted int   `json:"attempted"`
		Failed    int   `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	want := declared(res.Trace)
	if len(out.Metrics) != len(want) {
		t.Errorf("%s trace=%v: %d metrics on the line, %d declared", res.Workload, res.Trace, len(out.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := out.Metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit || d.Unit == "" {
			t.Errorf("%s trace=%v: metric %s missing or without its unit %q: %+v", res.Workload, res.Trace, d.Name, d.Unit, m)
		}
	}
	if out.Attempted < 1 || out.Failed != 0 || out.Correct == nil || !*out.Correct {
		t.Errorf("%s trace=%v: attempted=%d failed=%d first error: %s", res.Workload, res.Trace, out.Attempted, out.Failed, res.Notes["first_error"])
	}
}

// Every workload, both modes, small and short: the harness runs end to
// end, emits what it declares, and loses no acknowledged write.
func TestSmoke(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	for _, w := range workloads {
		w.N = 5000
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()                               // nothing here asserts a time
			res, err := runEndToEnd(ctx, w, 7, 0.3, 1) // one launch
			if err != nil {
				t.Fatal(err)
			}
			checkLine(t, res)
			for _, d := range endToEnd {
				if res.Metrics[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name])
				}
			}
			if w.Durable {
				if n, _ := strconv.Atoi(res.Notes["acked_writes_checked"]); n == 0 {
					t.Error("the kill-and-recover check verified no write")
				}
			}
			res, err = runTraced(ctx, w, 7, 0.6, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkLine(t, res)
			// a layer is measured where it is on the path and marked
			// where it is not, never reported as a 0 it did not measure
			onPath := map[string]bool{
				"zm.point_ns":            true,
				"qcache.hit_ratio":       w.Cache,
				"engine.self_us":         !w.Lib,
				"shard.route_ns":         w.Shards > 1,
				"qserve.batch1_ns":       w.Shards == 1 && !w.Lib,
				"wal.append_us":          w.Durable,
				"persist.recovery_ms":    w.Durable,
				"rebuild.insert_ns":      !w.readOnly(),
				"trace.overhead_ratio":   true,
				"protocol.req_encode_ns": !w.Lib,
			}
			for name, on := range onPath {
				if v := res.Metrics[name]; on == floats.Eq(v, offPath) {
					t.Errorf("%s = %v, on the workload's path: %v", name, v, on)
				}
			}
		})
	}
}

// The in-process stack of stack.go is a copy of cmd/elsid's wiring, one
// branch per deployment: engine.Single, the sharded router with cache
// and adaptivity, and the durable store. On each, both must give the
// same answers to the same 1,000 requests, byte for byte, or the traced
// run measures a different system.
func TestInProcessStackMatchesElsid(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildElsid(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if w.Lib {
			continue // no elsid to compare with
		}
		w.N = 5000
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			c, err := newCorpus(w, 11)
			if err != nil {
				t.Fatal(err)
			}
			c.prepare()
			tmp := t.TempDir()

			child, err := startElsid(ctx, bin, w, tmp, filepath.Join(tmp, "elsid-data"))
			if err != nil {
				t.Fatal(err)
			}
			defer child.stop()
			st, err := newStack(ctx, c, newTracer(), tmp)
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()

			// the two systems are independent, so they are asked at once
			answers := func(addr string, out *[]string, failed *error) {
				conn, err := client.DialTCP(addr)
				if err != nil {
					*failed = err
					return
				}
				defer conn.Close()
				s := newStream(c, 0, 0)
				for i := 0; i < 1000; i++ {
					o := s.next()
					var v any
					switch o.Kind {
					case opPoint:
						v, err = conn.PointQuery(o.Pt)
					case opWindow:
						v, err = conn.WindowQuery(o.Win)
					case opKNN:
						v, err = conn.KNN(o.Pt, o.K)
					case opInsert:
						v, err = conn.Insert(o.Pt)
					case opDelete:
						v, err = conn.Delete(o.Pt)
					}
					if err != nil {
						*failed = fmt.Errorf("%s: op %d %+v: %w", addr, i, o, err)
						return
					}
					s.acked(o)
					*out = append(*out, fmt.Sprintf("%s %v", kindNames[o.Kind], v))
				}
			}
			var want, got []string
			var wantErr, gotErr error
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); answers(child.addr, &want, &wantErr) }()
			go func() { defer wg.Done(); answers(st.srv.TCPAddr(), &got, &gotErr) }()
			wg.Wait()
			if wantErr != nil || gotErr != nil {
				t.Fatal(wantErr, gotErr)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("op %d: elsid answered %q, the in-process stack %q", i, want[i], got[i])
				}
			}
		})
	}
}
