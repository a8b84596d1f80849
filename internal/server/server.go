// Package server serves an engine.Engine over two transports sharing
// one request path: an HTTP+JSON API for interoperability and a
// length-prefixed binary TCP protocol (internal/protocol) for
// throughput. Both funnel into the engine, so concurrently arriving
// queries from either transport end up in the same qserve batches and
// the same admission control applies: an overloaded engine turns into
// HTTP 429 or the protocol's overloaded status, never an unbounded
// queue.
//
// Close is graceful: listeners stop accepting, the HTTP server drains
// its active requests, the engine flushes its accumulated batches and
// waits for every admitted request, and only then are idle TCP
// connections unblocked and reaped. A request that was admitted
// before Close began always receives its response.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"elsi/internal/engine"
	"elsi/internal/geo"
	"elsi/internal/protocol"
)

// JSON wire bodies, shared with internal/client.

// PointBody is a point payload ({"x":..,"y":..}).
type PointBody struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// WindowBody is a window-query payload.
type WindowBody struct {
	MinX float64 `json:"minx"`
	MinY float64 `json:"miny"`
	MaxX float64 `json:"maxx"`
	MaxY float64 `json:"maxy"`
}

// KNNBody is a kNN-query payload.
type KNNBody struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	K int     `json:"k"`
}

// FoundBody answers a point query.
type FoundBody struct {
	Found bool `json:"found"`
}

// RebuildBody answers an update: whether it triggered a rebuild.
type RebuildBody struct {
	Rebuild bool `json:"rebuild"`
}

// PointsBody answers a window or kNN query.
type PointsBody struct {
	Points []PointBody `json:"points"`
}

// ErrorBody carries a handler error.
type ErrorBody struct {
	Error string `json:"error"`
}

// maxPointsPerFrame is the largest point count a binary response
// frame can carry within protocol.MaxFrame.
const maxPointsPerFrame = (protocol.MaxFrame - 2) / 16

// Server serves one engine over HTTP and/or TCP.
type Server struct {
	eng     *engine.Engine
	httpSrv *http.Server
	httpLn  net.Listener
	tcpLn   net.Listener

	// mu guards closed and conns. It is a leaf lock: nothing blocks
	// while holding it — Shutdown drains the engine and waits for
	// handlers only after releasing it (see the ordering comment
	// there), which is exactly what the lockorder analyzer checks.
	//elsi:lockorder
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}

	wg sync.WaitGroup // accept loops + TCP connection handlers
}

// New wraps eng. Call Start (or wire Handler/ServeTCP yourself), then
// Close to drain.
func New(eng *engine.Engine) *Server {
	return &Server{eng: eng, conns: make(map[net.Conn]struct{})}
}

// Start listens and serves on the given addresses (":0" picks an
// ephemeral port; "" disables that transport). It returns once both
// listeners are up; serving continues until Shutdown/Close. The
// context bounds listener setup and becomes the base context of every
// HTTP request, so cancelling it after Start reaches in-flight
// handlers; it does not by itself stop the server — call Shutdown.
func (s *Server) Start(ctx context.Context, httpAddr, tcpAddr string) error {
	var lc net.ListenConfig
	if httpAddr != "" {
		ln, err := lc.Listen(ctx, "tcp", httpAddr)
		if err != nil {
			return err
		}
		s.httpLn = ln
		s.httpSrv = &http.Server{
			Handler:     s.Handler(),
			BaseContext: func(net.Listener) context.Context { return ctx },
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				_ = err // listener torn down; nothing to surface
			}
		}()
	}
	if tcpAddr != "" {
		ln, err := lc.Listen(ctx, "tcp", tcpAddr)
		if err != nil {
			if s.httpLn != nil {
				s.httpLn.Close()
			}
			return err
		}
		s.tcpLn = ln
		s.wg.Add(1)
		go s.acceptLoop(ln)
	}
	return nil
}

// HTTPAddr returns the bound HTTP address ("" when disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// TCPAddr returns the bound binary-protocol address ("" when disabled).
func (s *Server) TCPAddr() string {
	if s.tcpLn == nil {
		return ""
	}
	return s.tcpLn.Addr().String()
}

// Shutdown drains and shuts down: stop accepting, drain the engine,
// wait for HTTP handlers, then unblock idle TCP connections and wait
// for every handler to exit. The context bounds only the HTTP
// response-drain phase — admitted work is always flushed through the
// engine. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if already {
		s.wg.Wait()
		return nil
	}
	// 1. stop accepting on both transports
	if s.tcpLn != nil {
		s.tcpLn.Close()
	}
	if s.httpLn != nil {
		s.httpLn.Close()
	}
	// 2. drain the engine FIRST: it flushes the accumulated batches and
	// waits for every admitted request, releasing the HTTP and TCP
	// handlers parked inside it. (The reverse order would deadlock:
	// http.Server.Shutdown waits for handlers that are waiting for an
	// engine flush.) Handlers that reach the engine from here on get
	// ErrClosed and answer 503 / an error frame.
	s.eng.Close()
	// 3. wait for the HTTP handlers to finish writing their responses
	if s.httpSrv != nil {
		_ = s.httpSrv.Shutdown(ctx)
	}
	// 4. in-flight TCP requests have finished inside the engine; their
	// handlers may still be writing responses. An expired read
	// deadline unblocks only the idle readers — a handler mid-write
	// completes its frame before the next read fails.
	s.mu.Lock()
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// --- HTTP transport -----------------------------------------------------

// Handler returns the HTTP API:
//
//	POST /query/point   {"x","y"}         -> {"found"}
//	POST /query/window  {"minx",...}      -> {"points":[{"x","y"},...]}
//	POST /query/knn     {"x","y","k"}     -> {"points":[...]}
//	POST /insert        {"x","y"}         -> {"rebuild"}
//	POST /delete        {"x","y"}         -> {"rebuild"}
//	GET  /stats                           -> engine.Stats
//
// Engine backpressure maps to 429, a closed engine to 503, malformed
// bodies to 400.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query/point", s.handlePoint)
	mux.HandleFunc("POST /query/window", s.handleWindow)
	mux.HandleFunc("POST /query/knn", s.handleKNN)
	mux.HandleFunc("POST /insert", s.handleInsert)
	mux.HandleFunc("POST /delete", s.handleDelete)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	var in PointBody
	if !decodeJSON(w, r, &in) {
		return
	}
	found, err := s.eng.PointQuery(geo.Point{X: in.X, Y: in.Y})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, FoundBody{Found: found})
}

func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request) {
	var in WindowBody
	if !decodeJSON(w, r, &in) {
		return
	}
	pts, err := s.eng.WindowQuery(geo.Rect{MinX: in.MinX, MinY: in.MinY, MaxX: in.MaxX, MaxY: in.MaxY})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toPointsBody(pts))
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	var in KNNBody
	if !decodeJSON(w, r, &in) {
		return
	}
	pts, err := s.eng.KNN(geo.Point{X: in.X, Y: in.Y}, in.K)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toPointsBody(pts))
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var in PointBody
	if !decodeJSON(w, r, &in) {
		return
	}
	trig, err := s.eng.Insert(geo.Point{X: in.X, Y: in.Y})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RebuildBody{Rebuild: trig})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var in PointBody
	if !decodeJSON(w, r, &in) {
		return
	}
	trig, err := s.eng.Delete(geo.Point{X: in.X, Y: in.Y})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RebuildBody{Rebuild: trig})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.Stats())
}

func toPointsBody(pts []geo.Point) PointsBody {
	out := PointsBody{Points: make([]PointBody, len(pts))}
	for i, pt := range pts {
		out.Points[i] = PointBody{X: pt.X, Y: pt.Y}
	}
	return out
}

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, protocol.MaxFrame)
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}

func writeEngineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrOverloaded):
		writeJSON(w, http.StatusTooManyRequests, ErrorBody{Error: err.Error()})
	case errors.Is(err, engine.ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorBody{Error: err.Error()})
	}
}

// --- binary TCP transport -----------------------------------------------

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// handleConn answers one frame at a time. A malformed request body
// gets an error response (the stream is still in sync); a framing
// violation — truncated stream, oversize length prefix — closes the
// connection, since resynchronization is impossible.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var respBuf []byte
	for {
		body, err := protocol.ReadFrame(br)
		if err != nil {
			return
		}
		var resp protocol.Response
		if req, err := protocol.DecodeRequest(body); err != nil {
			resp = protocol.Response{Status: protocol.StatusError, Kind: protocol.KindText, Text: err.Error()}
		} else {
			resp = s.dispatch(req)
		}
		respBuf = protocol.AppendResponse(respBuf[:0], resp)
		if err := protocol.WriteFrame(bw, respBuf); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(req protocol.Request) protocol.Response {
	switch req.Op {
	case protocol.OpPoint:
		found, err := s.eng.PointQuery(req.Pt)
		if err != nil {
			return errorResponse(err)
		}
		return protocol.Response{Status: protocol.StatusOK, Kind: protocol.KindBool, Bool: found}
	case protocol.OpWindow:
		pts, err := s.eng.WindowQuery(req.Win)
		if err != nil {
			return errorResponse(err)
		}
		return pointsResponse(pts)
	case protocol.OpKNN:
		pts, err := s.eng.KNN(req.Pt, req.K)
		if err != nil {
			return errorResponse(err)
		}
		return pointsResponse(pts)
	case protocol.OpInsert:
		trig, err := s.eng.Insert(req.Pt)
		if err != nil {
			return errorResponse(err)
		}
		return protocol.Response{Status: protocol.StatusOK, Kind: protocol.KindBool, Bool: trig}
	case protocol.OpDelete:
		trig, err := s.eng.Delete(req.Pt)
		if err != nil {
			return errorResponse(err)
		}
		return protocol.Response{Status: protocol.StatusOK, Kind: protocol.KindBool, Bool: trig}
	case protocol.OpStats:
		data, err := json.Marshal(s.eng.Stats())
		if err != nil {
			return errorResponse(err)
		}
		return protocol.Response{Status: protocol.StatusOK, Kind: protocol.KindText, Text: string(data)}
	default:
		return protocol.Response{Status: protocol.StatusError, Kind: protocol.KindText, Text: protocol.ErrBadOp.Error()}
	}
}

func pointsResponse(pts []geo.Point) protocol.Response {
	if len(pts) > maxPointsPerFrame {
		return protocol.Response{Status: protocol.StatusError, Kind: protocol.KindText, Text: "result exceeds the protocol frame cap; narrow the query"}
	}
	return protocol.Response{Status: protocol.StatusOK, Kind: protocol.KindPoints, Points: pts}
}

func errorResponse(err error) protocol.Response {
	if errors.Is(err, engine.ErrOverloaded) {
		return protocol.Response{Status: protocol.StatusOverloaded, Kind: protocol.KindNone}
	}
	return protocol.Response{Status: protocol.StatusError, Kind: protocol.KindText, Text: err.Error()}
}
