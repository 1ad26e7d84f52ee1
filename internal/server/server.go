package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	rferrors "rfview/errors"
	"rfview/internal/engine"
	"rfview/internal/metrics"
)

// ErrServerClosed is returned by Serve after Shutdown begins.
var ErrServerClosed = errors.New("server: closed")

// maxLineBytes bounds one request line; a longer line is answered with one
// bad_request error and the connection closes before it can buffer unbounded
// input.
const maxLineBytes = 1 << 20

// Session is the per-connection state: identity and counters. It is created
// at accept time and lives until the connection closes.
type Session struct {
	ID         uint64
	RemoteAddr string
	Started    time.Time

	conn     net.Conn
	requests atomic.Uint64
	queries  atomic.Uint64 // "query" and "explain" requests
	execs    atomic.Uint64 // "exec" requests

	// db is the engine session this connection's statements run through; it
	// holds the connection's open transaction (if any), so BEGIN/COMMIT/
	// ROLLBACK work over the wire. Closed (rolling back) on disconnect.
	db *engine.Session
}

// Requests returns the number of requests this session has served.
func (s *Session) Requests() uint64 { return s.requests.Load() }

// Stats aggregates server-wide counters.
type Stats struct {
	Accepted uint64 // connections accepted over the server's lifetime
	Active   int    // connections open right now
	Requests uint64 // requests served
	Errors   uint64 // requests answered with ok=false
}

// Server serves an engine over TCP.
type Server struct {
	eng     *engine.Engine
	started time.Time

	mu         sync.Mutex
	lis        net.Listener
	sessions   map[*Session]struct{}
	nextSessID uint64

	wg         sync.WaitGroup
	inShutdown atomic.Bool

	accepted atomic.Uint64
	requests atomic.Uint64
	errors   atomic.Uint64

	// opSeconds times each protocol op; inFlight counts requests currently
	// being dispatched. Both live on the engine's registry so one scrape
	// covers engine, WAL, and server.
	opSeconds *metrics.HistogramVec
	inFlight  *metrics.Gauge
}

// New wraps an engine in a server.
func New(eng *engine.Engine) *Server {
	s := &Server{eng: eng, started: time.Now(), sessions: make(map[*Session]struct{})}
	reg := eng.Metrics()
	s.opSeconds = reg.HistogramVec("rfview_server_op_seconds",
		"Server-side request latency, by protocol op.", "op", metrics.DefBuckets)
	s.inFlight = reg.Gauge("rfview_server_in_flight_requests",
		"Requests currently being dispatched.")
	reg.GaugeFunc("rfview_server_active_sessions",
		"Connections open right now.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.sessions))
		})
	return s
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	active := len(s.sessions)
	s.mu.Unlock()
	return Stats{
		Accepted: s.accepted.Load(),
		Active:   active,
		Requests: s.requests.Load(),
		Errors:   s.errors.Load(),
	}
}

// Addr returns the listener address, once serving.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// ListenAndServe listens on addr ("host:port") and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Serve accepts connections on lis, one goroutine per connection, until
// Shutdown. It returns ErrServerClosed after a clean shutdown.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.inShutdown.Load() {
		s.mu.Unlock()
		lis.Close()
		return ErrServerClosed
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.inShutdown.Load() {
				return ErrServerClosed
			}
			return err
		}
		s.accepted.Add(1)
		sess := &Session{RemoteAddr: conn.RemoteAddr().String(), Started: time.Now(), conn: conn, db: s.eng.NewSession()}
		s.mu.Lock()
		s.nextSessID++
		sess.ID = s.nextSessID
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(sess)
	}
}

// Shutdown stops accepting connections and drains in-flight requests: every
// request already read off a socket gets its response, then connections
// close. If ctx expires first, remaining connections are closed forcibly and
// the context error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.inShutdown.Store(true)
	s.mu.Lock()
	if s.lis != nil {
		s.lis.Close()
	}
	// Wake sessions blocked reading their next request. Sessions that are
	// mid-request keep going: the deadline only gates future reads, and the
	// handler checks inShutdown after responding.
	for sess := range s.sessions {
		sess.conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (s *Server) serveConn(sess *Session) {
	defer s.wg.Done()
	defer func() {
		sess.db.Close() // roll back any transaction left open by a vanished client
		sess.conn.Close()
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
	}()
	sc := bufio.NewScanner(sess.conn)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	w := bufio.NewWriterSize(sess.conn, 64<<10)
	for {
		if !sc.Scan() {
			if errors.Is(sc.Err(), bufio.ErrTooLong) {
				s.rejectOversized(sess, w)
			}
			// EOF, shutdown wake-up, or broken pipe: close quietly.
			return
		}
		line := sc.Bytes()
		var req Request
		var resp Response
		if err := json.Unmarshal(line, &req); err != nil {
			resp = Response{Session: sess.ID, Code: string(rferrors.CodeBadRequest), Error: fmt.Sprintf("bad request: %v", err)}
		} else {
			resp = s.dispatch(sess, &req)
		}
		s.requests.Add(1)
		sess.requests.Add(1)
		if !resp.OK {
			s.errors.Add(1)
		}
		if writeResponse(w, &resp) != nil {
			return
		}
		if s.inShutdown.Load() {
			return // drained: the response above was this session's last
		}
	}
}

// rejectOversized answers a request line over maxLineBytes with the one
// response the session will get before it closes.
func (s *Server) rejectOversized(sess *Session, w *bufio.Writer) {
	s.requests.Add(1)
	s.errors.Add(1)
	err := writeResponse(w, &Response{Session: sess.ID, Code: string(rferrors.CodeBadRequest),
		Error: fmt.Sprintf("bad request: line exceeds the %d MiB limit", maxLineBytes>>20)})
	if err != nil {
		return
	}
	// Swallow the rest of the line, bounded in bytes and time: closing with
	// unread input resets the connection, which can discard the response
	// before the client reads it. Whatever ends the read, the session closes.
	sess.conn.SetReadDeadline(time.Now().Add(time.Second))
	rest := bufio.NewReaderSize(io.LimitReader(sess.conn, 8*maxLineBytes), 64<<10)
	for err = bufio.ErrBufferFull; err == bufio.ErrBufferFull; {
		_, err = rest.ReadSlice('\n')
	}
}

// writeResponse writes one response line and flushes it.
func writeResponse(w *bufio.Writer, resp *Response) error {
	line := append(appendResponse(w.AvailableBuffer(), resp), '\n')
	if _, err := w.Write(line); err != nil {
		return err
	}
	return w.Flush()
}

// dispatch executes one request against the engine.
func (s *Server) dispatch(sess *Session, req *Request) Response {
	resp := Response{ID: req.ID, Session: sess.ID}
	start := time.Now()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	switch req.Op {
	case "ping":
		resp.OK = true
	case "stats":
		resp.OK = true
		resp.Stats = s.statsReply(sess)
	case "metrics":
		resp.OK = true
		resp.Metrics = s.eng.Metrics().Expose()
	case "query", "exec", "explain":
		sql := req.SQL
		if req.Op == "exec" {
			sess.execs.Add(1)
		} else {
			sess.queries.Add(1)
		}
		if req.Op == "explain" {
			if req.Analyze {
				sql = "EXPLAIN ANALYZE " + sql
			} else {
				sql = "EXPLAIN " + sql
			}
		}
		ctx := context.Background()
		if req.TimeoutMs > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
			defer cancel()
		}
		var opts []engine.ExecOption
		if req.Analyze && req.Op != "explain" {
			opts = append(opts, engine.WithAnalyze())
		}
		res, err := sess.db.ExecContext(ctx, sql, opts...)
		if err == nil && req.Op != "explain" {
			resp.result, err = encodeResult(res)
		}
		if err != nil {
			resp.fail(err)
			break
		}
		resp.OK = true
		resp.Rewritten = res.Rewritten
		if req.Op == "explain" {
			resp.Affected = res.Affected
			resp.Plan = res.Plan
		} else {
			resp.Plan = res.Analyzed
		}
	default:
		resp.Error = fmt.Sprintf("unknown op %q", req.Op)
		resp.Code = string(rferrors.CodeUnsupported)
	}
	resp.ElapsedUs = time.Since(start).Microseconds()
	// Unknown ops share one label value: client-controlled strings must not
	// mint unbounded series.
	op := req.Op
	switch op {
	case "ping", "stats", "metrics", "query", "exec", "explain":
	default:
		op = "unknown"
	}
	s.opSeconds.With(op).ObserveDuration(time.Since(start))
	return resp
}

// bufferPoolStats converts the engine's pool snapshot to wire form.
func bufferPoolStats(eng *engine.Engine) BufferPoolStats {
	ps := eng.StorageStats()
	return BufferPoolStats{
		PageSize:    ps.PageSize,
		PagesCached: ps.PagesCached,
		PagesPinned: ps.PagesPinned,
		PagesDirty:  ps.PagesDirty,
		Hits:        ps.Hits,
		Misses:      ps.Misses,
		Evictions:   ps.Evictions,
		Writebacks:  ps.Writebacks,
		HitRatio:    ps.HitRatio(),
	}
}

// statsReply assembles the "stats" payload for one asking session.
func (s *Server) statsReply(sess *Session) *StatsReply {
	st := s.Stats()
	cs := s.eng.PlanCacheStats()
	ts := s.eng.TxnStats()
	par := s.eng.Opts.WindowParallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return &StatsReply{
		UptimeSec:      int64(time.Since(s.started).Seconds()),
		Accepted:       st.Accepted,
		ActiveSessions: st.Active,
		Requests:       st.Requests,
		Errors:         st.Errors,
		SessionID:      sess.ID,
		SessionQueries: sess.queries.Load(),
		SessionExecs:   sess.execs.Load(),
		SessionInTxn:   sess.db.InTxn(),
		PlanCache: CacheStats{
			Len: cs.Len, Capacity: cs.Capacity,
			Hits: cs.Hits, Misses: cs.Misses,
			Evictions: cs.Evictions, Invalidations: cs.Invalidations,
		},
		WindowParallelism: par,
		Spill: SpillStats{
			BudgetBytes:     s.eng.SpillBudget().Limit(),
			BudgetUsedBytes: s.eng.SpillBudget().Used(),
			Runs:            s.eng.SpillStats().Runs.Load(),
			RunBytes:        s.eng.SpillStats().RunBytes.Load(),
			Merges:          s.eng.SpillStats().Merges.Load(),
			Operators:       s.eng.SpillStats().Spills.Load(),
		},
		BufferPool: bufferPoolStats(s.eng),
		Maintenance: MaintenanceStats{
			DeltaApplied:  s.eng.Views.Stats().DeltaApplied.Load(),
			FullRefreshes: s.eng.Views.Stats().FullRefreshes.Load(),
		},
		Txn: TxnStats{
			Begins:            ts.Begins,
			Commits:           ts.Commits,
			Rollbacks:         ts.Rollbacks,
			ConflictAborts:    ts.ConflictAborts,
			VersionsReclaimed: ts.VersionsReclaimed,
			DeadVersions:      ts.DeadVersions,
			HorizonLag:        ts.HorizonLag,
		},
	}
}
