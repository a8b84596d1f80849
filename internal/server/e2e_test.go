package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"elsi/internal/client"
	"elsi/internal/dataset"
	"elsi/internal/engine"
	"elsi/internal/geo"
	"elsi/internal/index"
	"elsi/internal/rebuild"
	"elsi/internal/server"
)

func xKey(p geo.Point) float64 { return p.X }

// gatedBuild blocks Build on a gate, holding a background rebuild in
// flight while the test drives traffic through the server.
type gatedBuild struct {
	*index.BruteForce
	gate chan struct{}
}

func (g *gatedBuild) Build(pts []geo.Point) error {
	<-g.gate
	return g.BruteForce.Build(pts)
}

// gatedQuery blocks point queries on a gate, pinning requests inside
// the engine for the overload test.
type gatedQuery struct {
	*index.BruteForce
	gate chan struct{}
}

func (g *gatedQuery) PointQuery(p geo.Point) bool {
	<-g.gate
	return g.BruteForce.PointQuery(p)
}

// startServer stands up a full stack on ephemeral localhost ports.
func startServer(t *testing.T, proc *rebuild.Processor, cfg engine.Config) (*server.Server, *engine.Engine) {
	t.Helper()
	eng := engine.NewWithBackend(engine.NewSingle(proc, cfg.Workers), nil, cfg)
	srv := server.New(eng)
	if err := srv.Start(context.Background(), "127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv, eng
}

func newProcessor(t *testing.T, n int, seed int64) (*rebuild.Processor, []geo.Point) {
	t.Helper()
	pts := dataset.MustGenerate(dataset.Uniform, n, seed)
	proc, err := rebuild.NewProcessor(index.NewBruteForce(), nil, pts, xKey, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return proc, pts
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func samePoints(a, b []geo.Point) bool {
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

// TestMixedTransportsE2E is the end-to-end serving test: HTTP and TCP
// clients hammer one server concurrently — first against a static
// store (answers checked against the in-process engine), then with
// concurrent inserts/deletes while a background rebuild is held in
// flight, and finally a settled-state sweep must agree across both
// transports and the in-process view.
func TestMixedTransportsE2E(t *testing.T) {
	proc, pts := newProcessor(t, 2000, 53)
	gate := make(chan struct{})
	proc.Factory = func() rebuild.Rebuildable {
		return &gatedBuild{BruteForce: index.NewBruteForce(), gate: gate}
	}
	srv, eng := startServer(t, proc, engine.Config{MaxBatch: 8, FlushInterval: 500 * time.Microsecond})

	hc := &client.HTTP{Base: "http://" + srv.HTTPAddr()}
	tc, err := client.DialTCP(srv.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	// --- phase A: static equivalence across transports ---
	type queryClient interface {
		PointQuery(pt geo.Point) (bool, error)
		WindowQuery(win geo.Rect) ([]geo.Point, error)
		KNN(q geo.Point, k int) ([]geo.Point, error)
	}
	tc2, err := client.DialTCP(srv.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc2.Close()
	clients := []queryClient{hc, tc, hc, tc2}

	var wg sync.WaitGroup
	for ci, qc := range clients {
		ci, qc := ci, qc
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + ci)))
			for i := 0; i < 40; i++ {
				q := geo.Point{X: rng.Float64(), Y: rng.Float64()}
				switch rng.Intn(3) {
				case 0:
					want := proc.PointQuery(q)
					got, err := qc.PointQuery(q)
					if err != nil {
						t.Errorf("client %d: PointQuery: %v", ci, err)
					} else if got != want {
						t.Errorf("client %d: PointQuery(%v) = %v, want %v", ci, q, got, want)
					}
				case 1:
					win := geo.Rect{MinX: q.X, MinY: q.Y, MaxX: q.X + 0.2, MaxY: q.Y + 0.2}
					want := proc.WindowQuery(win)
					got, err := qc.WindowQuery(win)
					if err != nil {
						t.Errorf("client %d: WindowQuery: %v", ci, err)
					} else if !samePoints(got, want) {
						t.Errorf("client %d: WindowQuery(%v) returned %d pts, want %d", ci, win, len(got), len(want))
					}
				default:
					k := rng.Intn(15)
					want := proc.KNN(q, k)
					got, err := qc.KNN(q, k)
					if err != nil {
						t.Errorf("client %d: KNN: %v", ci, err)
					} else if !samePoints(got, want) {
						t.Errorf("client %d: KNN(%v, %d) returned %d pts, want %d", ci, q, k, len(got), len(want))
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		close(gate)
		t.FailNow()
	}

	// --- phase B: updates through both transports with a rebuild in
	// flight ---
	proc.Rebuild()
	waitUntil(t, "rebuild in flight", proc.Rebuilding)

	type updateClient interface {
		queryClient
		Insert(pt geo.Point) (bool, error)
		Delete(pt geo.Point) (bool, error)
	}
	writers := []updateClient{hc, tc}
	for ci, uc := range writers {
		ci, uc := ci, uc
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + ci)))
			for i := 0; i < 60; i++ {
				q := geo.Point{X: rng.Float64(), Y: rng.Float64()}
				switch rng.Intn(4) {
				case 0:
					if _, err := uc.Insert(q); err != nil {
						t.Errorf("writer %d: Insert: %v", ci, err)
						return
					}
				case 1:
					if _, err := uc.Delete(pts[rng.Intn(len(pts))]); err != nil {
						t.Errorf("writer %d: Delete: %v", ci, err)
						return
					}
				case 2:
					if _, err := uc.PointQuery(q); err != nil {
						t.Errorf("writer %d: PointQuery: %v", ci, err)
						return
					}
				default:
					if _, err := uc.KNN(q, 5); err != nil {
						t.Errorf("writer %d: KNN: %v", ci, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if !proc.Rebuilding() {
		t.Error("rebuild finished before the churn did; the gate is broken")
	}
	close(gate)
	proc.WaitRebuild()

	// --- phase C: settled state must agree everywhere ---
	want := proc.WindowQuery(geo.UnitRect)
	gotHTTP, err := hc.WindowQuery(geo.UnitRect)
	if err != nil {
		t.Fatal(err)
	}
	gotTCP, err := tc.WindowQuery(geo.UnitRect)
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(gotHTTP, want) || !samePoints(gotTCP, want) {
		t.Errorf("settled sweep diverged: HTTP %d pts, TCP %d pts, in-process %d pts",
			len(gotHTTP), len(gotTCP), len(want))
	}

	// stats flow over both transports and reflect the run
	stHTTP, err := hc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	stTCP, err := tc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]engine.Stats{"HTTP": stHTTP, "TCP": stTCP} {
		if st.Len != proc.Len() {
			t.Errorf("%s stats: Len = %d, want %d", name, st.Len, proc.Len())
		}
		if st.Rebuilds < 1 {
			t.Errorf("%s stats: Rebuilds = %d, want >= 1", name, st.Rebuilds)
		}
		if st.Inserts == 0 || st.Deletes == 0 || st.PointQueries == 0 {
			t.Errorf("%s stats: counters did not move: %+v", name, st)
		}
	}
	_ = eng
}

// TestServerDegenerateInputs drives the hostile inputs of the
// degenerate-hardening checklist through real network handlers:
// inverted and zero-area windows, k <= 0 and k beyond the
// cardinality, infinite coordinates on the binary path, malformed
// JSON, unknown binary ops, and a frame with an oversize length
// prefix — none may panic the server, and well-formed degenerate
// queries must answer exactly like the in-process engine.
func TestServerDegenerateInputs(t *testing.T) {
	proc, _ := newProcessor(t, 800, 59)
	srv, _ := startServer(t, proc, engine.Config{})

	hc := &client.HTTP{Base: "http://" + srv.HTTPAddr()}
	tc, err := client.DialTCP(srv.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	wins := []geo.Rect{
		{MinX: 0.8, MinY: 0.8, MaxX: 0.2, MaxY: 0.2},     // fully inverted
		{MinX: 0.2, MinY: 0.8, MaxX: 0.8, MaxY: 0.2},     // inverted on y
		{MinX: 0.5, MinY: 0.1, MaxX: 0.5, MaxY: 0.9},     // zero width
		{MinX: 0.25, MinY: 0.25, MaxX: 0.25, MaxY: 0.25}, // zero area
		{MinX: 3, MinY: 3, MaxX: 4, MaxY: 4},             // outside the space
	}
	for _, win := range wins {
		want := proc.WindowQuery(win)
		for name, got := range map[string]func() ([]geo.Point, error){
			"HTTP": func() ([]geo.Point, error) { return hc.WindowQuery(win) },
			"TCP":  func() ([]geo.Point, error) { return tc.WindowQuery(win) },
		} {
			pts, err := got()
			if err != nil {
				t.Errorf("%s WindowQuery(%v): %v", name, win, err)
			} else if !samePoints(pts, want) {
				t.Errorf("%s WindowQuery(%v) returned %d pts, want %d", name, win, len(pts), len(want))
			}
		}
	}
	// the JSON transport cannot carry ±Inf; the binary one can, and
	// the server must answer it like the in-process engine
	infWin := geo.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}
	wantInf := proc.WindowQuery(infWin)
	if pts, err := tc.WindowQuery(infWin); err != nil {
		t.Errorf("TCP WindowQuery(inf): %v", err)
	} else if !samePoints(pts, wantInf) {
		t.Errorf("TCP WindowQuery(inf) returned %d pts, want %d", len(pts), len(wantInf))
	}

	q := geo.Point{X: 0.5, Y: 0.5}
	for _, k := range []int{-7, 0, 1, 800, 5000} {
		want := proc.KNN(q, k)
		for name, got := range map[string]func() ([]geo.Point, error){
			"HTTP": func() ([]geo.Point, error) { return hc.KNN(q, k) },
			"TCP":  func() ([]geo.Point, error) { return tc.KNN(q, k) },
		} {
			pts, err := got()
			if err != nil {
				t.Errorf("%s KNN(k=%d): %v", name, k, err)
			} else if !samePoints(pts, want) {
				t.Errorf("%s KNN(k=%d) returned %d pts, want %d", name, k, len(pts), len(want))
			}
		}
	}

	// malformed JSON -> 400, wrong method -> 405
	resp, err := http.Post("http://"+srv.HTTPAddr()+"/query/point", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get("http://" + srv.HTTPAddr() + "/query/point")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST route: status = %d, want 405", resp.StatusCode)
	}

	// unknown binary op -> error frame on a still-usable connection;
	// oversize length prefix -> connection closed, server unharmed
	raw, err := net.Dial("tcp", srv.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{0, 0, 0, 1, 0xee}); err != nil { // 1-byte body, unknown op
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	hdr := make([]byte, 4)
	if _, err := readFull(raw, hdr); err != nil {
		t.Fatalf("reading error-frame header: %v", err)
	}
	if _, err := raw.Write([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		// read the rest of the error frame, then expect EOF after the
		// hostile prefix
		body := make([]byte, int(uint32(hdr[0])<<24|uint32(hdr[1])<<16|uint32(hdr[2])<<8|uint32(hdr[3])))
		if _, err := readFull(raw, body); err != nil {
			t.Fatalf("reading error-frame body: %v", err)
		}
		if body[0] != 1 { // protocol.StatusError
			t.Errorf("unknown op: status byte = %d, want StatusError", body[0])
		}
		one := make([]byte, 1)
		if _, err := raw.Read(one); err == nil {
			t.Error("server kept the connection open after an oversize length prefix")
		}
	}

	// the server survived all of it: a fresh connection still works
	tc2, err := client.DialTCP(srv.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc2.Close()
	if _, err := tc2.PointQuery(q); err != nil {
		t.Errorf("fresh connection after hostile traffic: %v", err)
	}
	var st engine.Stats
	if err := getJSON("http://"+srv.HTTPAddr()+"/stats", &st); err != nil {
		t.Fatal(err)
	}
	if st.Len != proc.Len() {
		t.Errorf("/stats Len = %d, want %d", st.Len, proc.Len())
	}
}

func readFull(c net.Conn, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := c.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestServerOverloadBackpressure pins the admission control end to
// end: with the single in-flight slot held by a gated request, both
// transports must shed load with their typed signal — HTTP 429 and
// the protocol's overloaded status, both mapping back to
// engine.ErrOverloaded in the clients.
func TestServerOverloadBackpressure(t *testing.T) {
	pts := dataset.MustGenerate(dataset.Uniform, 200, 61)
	gate := make(chan struct{})
	gq := &gatedQuery{BruteForce: index.NewBruteForce(), gate: gate}
	proc, err := rebuild.NewProcessor(gq, nil, pts, xKey, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	srv, eng := startServer(t, proc, engine.Config{MaxBatch: 1, MaxInFlight: 1})

	hc := &client.HTTP{Base: "http://" + srv.HTTPAddr()}
	tc, err := client.DialTCP(srv.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := tc.PointQuery(geo.Point{X: 0.5, Y: 0.5}); err != nil {
			t.Errorf("gated PointQuery: %v", err)
		}
	}()
	waitUntil(t, "slot occupied", func() bool { return eng.Stats().InFlight == 1 })

	if _, err := hc.PointQuery(geo.Point{X: 0.1, Y: 0.1}); !errors.Is(err, engine.ErrOverloaded) {
		t.Errorf("HTTP under overload: err = %v, want engine.ErrOverloaded", err)
	}
	tc2, err := client.DialTCP(srv.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc2.Close()
	if _, err := tc2.PointQuery(geo.Point{X: 0.1, Y: 0.1}); !errors.Is(err, engine.ErrOverloaded) {
		t.Errorf("TCP under overload: err = %v, want engine.ErrOverloaded", err)
	}

	close(gate)
	wg.Wait()
	if st := eng.Stats(); st.Overloads < 2 {
		t.Errorf("Overloads = %d, want >= 2", st.Overloads)
	}
}

// TestGracefulShutdownDrains parks requests from both transports in
// the engine's accumulator with a far-off flush deadline, then closes
// the server: every parked request must receive its correct answer
// via the shutdown flush (not the timer), and the ports must be dead
// afterwards.
func TestGracefulShutdownDrains(t *testing.T) {
	proc, _ := newProcessor(t, 500, 67)
	srv, eng := startServer(t, proc, engine.Config{MaxBatch: 100, FlushInterval: time.Minute})

	hc := &client.HTTP{Base: "http://" + srv.HTTPAddr()}
	win := geo.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.6, MaxY: 0.6}
	want := proc.WindowQuery(win)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := hc.WindowQuery(win)
			if err != nil {
				t.Errorf("parked HTTP WindowQuery: %v", err)
			} else if !samePoints(got, want) {
				t.Errorf("parked HTTP WindowQuery returned %d pts, want %d", len(got), len(want))
			}
		}()
		tci, err := client.DialTCP(srv.TCPAddr())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tci.Close()
			got, err := tci.WindowQuery(win)
			if err != nil {
				t.Errorf("parked TCP WindowQuery: %v", err)
			} else if !samePoints(got, want) {
				t.Errorf("parked TCP WindowQuery returned %d pts, want %d", len(got), len(want))
			}
		}()
	}
	waitUntil(t, "4 queries parked", func() bool { return eng.Stats().Queued == 4 })

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("drain took %v; the shutdown flush did not fire", elapsed)
	}

	st := eng.Stats()
	if st.FlushByClose < 1 {
		t.Errorf("FlushByClose = %d, want >= 1", st.FlushByClose)
	}
	if st.FlushByTimer != 0 {
		t.Errorf("FlushByTimer = %d, want 0 (the drain must not ride the timer)", st.FlushByTimer)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("after drain: InFlight = %d, Queued = %d, want 0, 0", st.InFlight, st.Queued)
	}

	// both ports are dead
	if _, err := hc.PointQuery(geo.Point{}); err == nil {
		t.Error("HTTP port still answering after Close")
	}
	if c, err := client.DialTCP(srv.TCPAddr()); err == nil {
		if _, qerr := c.PointQuery(geo.Point{}); qerr == nil {
			t.Error("TCP port still answering after Close")
		}
		c.Close()
	}
}
