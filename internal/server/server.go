// Package server implements sqlsheetd's serving layer: TCP sessions speaking
// the internal/wire framed protocol, a bounded admission controller in front
// of the embedded engine, per-query timeouts backed by the engine's
// cancellation points, graceful drain, and an HTTP metrics endpoint.
//
// Admission policy: at most MaxInFlight queries execute concurrently; up to
// MaxQueue more may wait, each for at most QueueWait. A query that finds the
// queue full — or waits out its deadline — receives a typed SERVER_BUSY error
// immediately instead of stalling the connection, so overload degrades to
// fast rejections rather than collapse.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"sqlsheet"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/wire"
)

// Config tunes a Server. Zero values take the documented defaults.
type Config struct {
	Addr         string        // TCP listen address (default "127.0.0.1:0")
	MetricsAddr  string        // HTTP /metrics, /healthz and /debug/pprof/ address ("" disables); no access control, so loopback or a trusted network only
	MaxInFlight  int           // concurrent executing queries (default 8)
	MaxQueue     int           // admission wait-queue length (default 16)
	QueueWait    time.Duration // max admission wait (default 1s)
	QueryTimeout time.Duration // per-query deadline (0 = none)
}

// Server owns the listener, the sessions, and the admission controller.
type Server struct {
	db  *sqlsheet.DB
	cfg Config

	ln      net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	Metrics Metrics

	admit    chan struct{} // in-flight semaphore (capacity MaxInFlight)
	waiting  atomic.Int64  // queries currently queued for admission
	draining atomic.Bool

	baseCtx    context.Context // canceled to hard-stop in-flight queries
	baseCancel context.CancelFunc

	wg    sync.WaitGroup // live connection handlers
	conns struct {
		sync.Mutex
		m map[net.Conn]*connState
	}
}

// connState tracks whether a session is mid-request, so drain can close idle
// connections (parked in a frame read) immediately while busy ones finish
// their current query.
type connState struct {
	busy atomic.Bool
}

// New wraps db in an unstarted server.
func New(db *sqlsheet.DB, cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 8
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 16
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		db:         db,
		cfg:        cfg,
		admit:      make(chan struct{}, cfg.MaxInFlight),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.conns.m = make(map[net.Conn]*connState)
	return s
}

// Start begins listening and serving. It returns once the listeners are
// bound; sessions are handled on background goroutines.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	if s.cfg.MetricsAddr != "" {
		hln, err := net.Listen("tcp", s.cfg.MetricsAddr)
		if err != nil {
			ln.Close()
			return err
		}
		s.httpLn = hln
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", s.handleMetrics)
		mux.HandleFunc("/healthz", s.handleHealthz)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		s.httpSrv = &http.Server{Handler: mux}
		go s.httpSrv.Serve(hln)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound query-protocol address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// MetricsAddr returns the bound metrics address ("" when disabled).
func (s *Server) MetricsAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Shutdown drains gracefully: stop accepting, fail new queries with
// SHUTDOWN, let in-flight queries finish until ctx expires, then cancel
// them through the engine's cancellation points and wait for the sessions
// to unwind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.ln.Close()
	if s.httpSrv != nil {
		defer s.httpSrv.Close()
	}
	// Idle sessions are parked in a frame read and will never see the drain
	// flag; close them now. Busy ones finish their current request (the
	// handler exits after responding once draining is set).
	s.conns.Lock()
	for c, st := range s.conns.m {
		if !st.busy.Load() {
			c.Close()
		}
	}
	s.conns.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Hard phase: cancel in-flight work and snap idle sessions.
		s.baseCancel()
		s.conns.Lock()
		for c := range s.conns.m {
			c.Close()
		}
		s.conns.Unlock()
		<-done
	}
	s.baseCancel()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (Shutdown)
		}
		st := &connState{}
		s.conns.Lock()
		s.conns.m[conn] = st
		s.conns.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn, st)
	}
}

// handleConn runs one session: a loop of framed requests, each answered with
// exactly one framed response. Requests are read through a per-session
// buffer, so a small request costs one read; every frame goes out in one
// write (wire.WriteFrame). A protocol-level fault gets an ERR
// PROTOCOL_ERROR response when the transport still works, then the session
// closes. Panics are contained to the session.
func (s *Server) handleConn(conn net.Conn, st *connState) {
	s.Metrics.ConnectionsTotal.Add(1)
	s.Metrics.ConnectionsActive.Add(1)
	defer func() {
		if r := recover(); r != nil {
			// A panic must never take the server down; the session dies,
			// the connection closes, everyone else is unaffected.
			s.Metrics.ProtocolErrors.Add(1)
		}
		s.conns.Lock()
		delete(s.conns.m, conn)
		s.conns.Unlock()
		conn.Close()
		s.Metrics.ConnectionsActive.Add(-1)
		s.wg.Done()
	}()

	br := bufio.NewReader(conn)
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			// Clean close, torn frame, or oversized length: if the error was
			// a policy rejection (not an I/O failure) try to say so first.
			if !isIOError(err) {
				s.Metrics.ProtocolErrors.Add(1)
				wire.WriteFrame(conn, wire.EncodeError(&wire.Error{
					Code: wire.CodeProtocolError, Msg: err.Error(),
				}))
			}
			return
		}
		st.busy.Store(true)
		kind, body, err := wire.DecodeRequest(payload)
		if err != nil {
			s.Metrics.ProtocolErrors.Add(1)
			wire.WriteFrame(conn, wire.EncodeError(&wire.Error{
				Code: wire.CodeProtocolError, Msg: err.Error(),
			}))
			return
		}
		switch kind {
		case wire.ReqPing:
			if wire.WriteFrame(conn, wire.EncodePong()) != nil {
				return
			}
		case wire.ReqQuit:
			wire.WriteFrame(conn, wire.EncodeBye())
			return
		case wire.ReqQuery:
			resp := s.runQuery(body)
			if wire.WriteFrame(conn, resp) != nil {
				return
			}
		}
		st.busy.Store(false)
		// During drain the current request was answered; end the session
		// instead of parking in another read that only a close can end.
		if s.draining.Load() {
			return
		}
	}
}

// isIOError distinguishes transport failures (nothing to be written back)
// from protocol policy errors (peer is still reachable; tell it what broke).
func isIOError(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// runQuery admits, executes, and encodes one query. Always returns a
// response frame payload; a result-cache hit returns the reply stored with
// the result (sqlsheet.Result.Reply).
func (s *Server) runQuery(sql string) []byte {
	if s.draining.Load() {
		return wire.EncodeError(&wire.Error{Code: wire.CodeShutdown, Msg: "server is shutting down"})
	}
	if err := s.admitQuery(); err != nil {
		s.Metrics.AdmissionRejected.Add(1)
		return wire.EncodeError(err)
	}
	defer func() { <-s.admit }()

	s.Metrics.QueriesTotal.Add(1)
	s.Metrics.InFlight.Add(1)
	defer s.Metrics.InFlight.Add(-1)

	ctx := s.baseCtx
	var cancel context.CancelFunc
	if s.cfg.QueryTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	start := time.Now()
	res, err := s.db.ExecContext(ctx, sql)
	s.Metrics.observe(time.Since(start))
	if err != nil {
		return wire.EncodeError(s.classify(err))
	}
	if res == nil {
		return wire.EncodeReply(nil, nil)
	}
	return res.Reply()
}

// admitQuery implements the bounded-queue admission policy.
func (s *Server) admitQuery() *wire.Error {
	select {
	case s.admit <- struct{}{}:
		return nil
	default:
	}
	// Contended: join the bounded queue.
	if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
		s.waiting.Add(-1)
		return &wire.Error{Code: wire.CodeServerBusy,
			Msg: fmt.Sprintf("admission queue full (%d waiting)", s.cfg.MaxQueue)}
	}
	s.Metrics.Queued.Add(1)
	defer func() {
		s.Metrics.Queued.Add(-1)
		s.waiting.Add(-1)
	}()
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case s.admit <- struct{}{}:
		return nil
	case <-t.C:
		return &wire.Error{Code: wire.CodeServerBusy,
			Msg: fmt.Sprintf("no execution slot within %v", s.cfg.QueueWait)}
	case <-s.baseCtx.Done():
		return &wire.Error{Code: wire.CodeShutdown, Msg: "server is shutting down"}
	}
}

// classify maps an engine error onto a typed wire error and bumps the
// matching counter.
func (s *Server) classify(err error) *wire.Error {
	var pe *parser.Error
	switch {
	case errors.As(err, &pe):
		s.Metrics.ParseErrors.Add(1)
		return &wire.Error{Code: wire.CodeParseError, Msg: pe.Msg,
			HasPos: true, Line: pe.Line, Col: pe.Col, Token: pe.Token}
	case errors.Is(err, context.DeadlineExceeded):
		s.Metrics.QueryTimeouts.Add(1)
		return &wire.Error{Code: wire.CodeTimeout,
			Msg: fmt.Sprintf("query exceeded %v", s.cfg.QueryTimeout)}
	case errors.Is(err, context.Canceled):
		s.Metrics.QueriesCanceled.Add(1)
		if s.draining.Load() {
			return &wire.Error{Code: wire.CodeShutdown, Msg: "canceled by server shutdown"}
		}
		return &wire.Error{Code: wire.CodeCanceled, Msg: "query canceled"}
	}
	s.Metrics.ExecErrors.Add(1)
	return &wire.Error{Code: wire.CodeExecError, Msg: err.Error()}
}

// --- HTTP endpoints ---

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.Metrics.snapshot()
	snap.Cache = CacheSnapshot(s.db.CacheCounters())
	snap.Images = ImagesSnapshot(s.db.ImageCounters())
	if wc, ok := s.db.WALCounters(); ok {
		ws := WALSnapshot(wc)
		snap.WAL = &ws
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}
