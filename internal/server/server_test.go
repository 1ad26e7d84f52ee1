package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rfview/internal/client"
	"rfview/internal/engine"
	"rfview/internal/server"
)

// startServer serves a fresh engine on an ephemeral port and returns the
// address plus a channel carrying Serve's return value.
func startServer(t *testing.T) (*server.Server, *engine.Engine, string, chan error) {
	t.Helper()
	return serveEngine(t, engine.New(engine.DefaultOptions()))
}

// serveEngine is startServer over an engine the caller built.
func serveEngine(t *testing.T, e *engine.Engine) (*server.Server, *engine.Engine, string, chan error) {
	t.Helper()
	srv := server.New(e)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		select {
		case <-errc:
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after Shutdown")
		}
	})
	return srv, e, lis.Addr().String(), errc
}

func TestServerRoundTrip(t *testing.T) {
	srv, _, addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if _, err := c.Exec(`CREATE TABLE seq (pos INTEGER, val INTEGER)`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(`INSERT INTO seq (pos, val) VALUES (1, 10), (2, 20), (3, 30)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 3 {
		t.Fatalf("affected = %d, want 3", res.Affected)
	}
	res, err = c.Query(`SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[1] != "s" || len(res.Rows) != 3 {
		t.Fatalf("result = %+v", res)
	}
	// JSON numbers decode as float64 on the client side.
	if res.Rows[1][1].(float64) != 60 {
		t.Fatalf("middle window sum = %v, want 60", res.Rows[1][1])
	}
	plan, err := c.Explain(`SELECT pos, val FROM seq`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "SeqScan") {
		t.Fatalf("explain plan = %q", plan)
	}
	// Errors come back as ok=false, not connection teardown.
	if _, err := c.Query(`SELECT nope FROM missing`); err == nil {
		t.Fatal("query against missing table must error")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection must survive a statement error: %v", err)
	}
	st := srv.Stats()
	if st.Accepted != 1 || st.Requests < 6 || st.Errors != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServerMalformedRequest: a non-JSON line gets an error response and the
// connection stays usable.
func TestServerMalformedRequest(t *testing.T) {
	_, _, addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	line, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp server.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != "bad_request" || !strings.Contains(resp.Error, "bad request") {
		t.Fatalf("response = %+v", resp)
	}
	// Unknown ops are also answered in-band.
	if _, err := conn.Write([]byte(`{"id":2,"op":"shrug"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	line, err = r.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "unknown op") || resp.ID != 2 {
		t.Fatalf("response = %+v", resp)
	}
}

// TestServerOversizedRequest: a request line over the 1 MiB cap is answered
// with one typed error before the connection closes — not a bare EOF.
func TestServerOversizedRequest(t *testing.T) {
	_, _, addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	big := `{"id":1,"op":"query","sql":"` + strings.Repeat("x", 2<<20) + `"}` + "\n"
	go conn.Write([]byte(big)) // may fail part-way once the server hangs up
	r := bufio.NewReader(conn)
	line, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("no response to an oversized request: %v", err)
	}
	var resp server.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != "bad_request" || !strings.Contains(resp.Error, "1 MiB") {
		t.Fatalf("response = %+v", resp)
	}
	if _, err := r.ReadBytes('\n'); err == nil {
		t.Fatal("connection stayed open after an oversized request")
	}
}

// TestServerConcurrentClients: parallel sessions all make progress; reads
// from different connections interleave under the engine's shared lock.
func TestServerConcurrentClients(t *testing.T) {
	srv, e, addr, _ := startServer(t)
	if _, err := e.ExecAll(`CREATE TABLE seq (pos INTEGER, val INTEGER);
	  INSERT INTO seq (pos, val) VALUES (1, 1), (2, 1), (3, 1), (4, 1), (5, 1);`); err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 4, 50
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				res, err := c.Query(`SELECT pos, val FROM seq`)
				if err != nil {
					errc <- err
					return
				}
				if len(res.Rows) != 5 {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := srv.Stats()
	if st.Accepted != clients || st.Requests != clients*perClient {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServerCachedAnswerConcurrent: connections hitting one cached statement
// at once each get their own id and session around identical row bytes, and
// after an UPDATE the cached answer carries the new values.
func TestServerCachedAnswerConcurrent(t *testing.T) {
	_, e, addr, _ := startServer(t)
	const q = `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq`
	if _, err := e.ExecAll(`CREATE TABLE seq (pos INTEGER, val INTEGER);
	  INSERT INTO seq (pos, val) VALUES (1, 1), (2, 2), (3, 3), (4, 4);`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(q); err != nil { // cache the result: every wire request below is a hit
		t.Fatal(err)
	}
	const conns, perConn = 8, 25
	type answer struct {
		session uint64
		rows    string // the raw "columns", "rows" and "affected" members
	}
	answers := make([][]answer, conns)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i := 0; i < perConn; i++ {
				id := uint64(1000*k + i)
				req, _ := json.Marshal(server.Request{ID: id, Op: "query", SQL: q})
				if _, err := conn.Write(append(req, '\n')); err != nil {
					t.Error(err)
					return
				}
				line, err := r.ReadBytes('\n')
				if err != nil {
					t.Error(err)
					return
				}
				var m map[string]json.RawMessage
				var resp struct{ ID, Session uint64 }
				if err := json.Unmarshal(line, &m); err != nil || json.Unmarshal(line, &resp) != nil || resp.ID != id {
					t.Errorf("request %d: response %s (%v)", id, line, err)
					return
				}
				answers[k] = append(answers[k], answer{resp.Session, string(m["columns"]) + string(m["rows"]) + string(m["affected"])})
			}
		}()
	}
	wg.Wait()
	sessions := map[uint64]bool{}
	want := `["pos","s"][[1,3],[2,6],[3,9],[4,7]]4`
	for k, as := range answers {
		for _, a := range as {
			if a.session != as[0].session || a.rows != want {
				t.Fatalf("connection %d: answer %+v, want session %d around %s", k, a, as[0].session, want)
			}
		}
		if len(as) > 0 {
			if sessions[as[0].session] {
				t.Fatalf("connection %d shares session %d", k, as[0].session)
			}
			sessions[as[0].session] = true
		}
	}

	if _, err := e.Exec(`UPDATE seq SET val = 10 WHERE pos = 4`); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ { // executed, then a hit that encodes, then the stored bytes
		res, err := c.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(res.Rows); got != "[[1 3] [2 6] [3 15] [4 13]]" {
			t.Fatalf("run %d after UPDATE: rows %s", i, got)
		}
	}
}

// TestServerRewrittenOnHit: a derived statement's response names its
// derivation the same on the miss, on the hit that renders the text into the
// cache entry and on the hits that reuse it; a native statement's carries
// none either way.
func TestServerRewrittenOnHit(t *testing.T) {
	_, e, addr, _ := startServer(t)
	if _, err := e.ExecAll(`CREATE TABLE seq (pos INTEGER, val INTEGER);
	  INSERT INTO seq (pos, val) VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5);
	  CREATE MATERIALIZED VIEW mv AS
	    SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM seq;`); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct{ sql, want string }{
		{`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS w FROM seq`, "FROM mv (1,1) BY"},
		{`SELECT pos, val FROM seq`, ""},
	} {
		var first string
		for i := 0; i < 3; i++ {
			hits := e.PlanCacheStats().Hits
			res, err := c.Query(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if hit := e.PlanCacheStats().Hits > hits; hit != (i > 0) {
				t.Fatalf("%s run %d: cache hit %v", tc.sql, i, hit)
			}
			if i == 0 {
				first = res.Rewritten
			}
			if res.Rewritten != first || !strings.Contains(res.Rewritten, tc.want) || (tc.want == "") != (res.Rewritten == "") {
				t.Fatalf("%s run %d: rewritten %q, first %q, want it to hold %q", tc.sql, i, res.Rewritten, first, tc.want)
			}
		}
	}
}

// TestServerGracefulShutdown: Shutdown answers the in-flight request, then
// closes; Serve returns ErrServerClosed and new dials are refused.
func TestServerGracefulShutdown(t *testing.T) {
	e := engine.New(engine.DefaultOptions())
	srv := server.New(e)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-errc:
		if err != server.ErrServerClosed {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("dial after shutdown must fail")
	}
	if st := srv.Stats(); st.Active != 0 {
		t.Fatalf("connections must drain: %+v", st)
	}
}

// TestServerStatsOp: the "stats" request reports server, session, and cache
// counters that reflect the traffic that preceded it.
func TestServerStatsOp(t *testing.T) {
	_, e, addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec(`CREATE TABLE t (a INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO t VALUES (1), (2)`); err != nil {
		t.Fatal(err)
	}
	// The same SELECT twice: the second answer comes from the result cache.
	for i := 0; i < 2; i++ {
		if _, err := c.Query(`SELECT a FROM t`); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionID == 0 || st.ActiveSessions != 1 || st.Accepted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SessionExecs != 2 || st.SessionQueries != 2 {
		t.Fatalf("session counters = execs %d, queries %d; want 2, 2",
			st.SessionExecs, st.SessionQueries)
	}
	// Four statements preceded the stats call (it is counted after dispatch).
	if st.Requests < 4 {
		t.Fatalf("server requests = %d, want ≥ 4", st.Requests)
	}
	if st.PlanCache.Hits == 0 || st.PlanCache.Capacity == 0 {
		t.Fatalf("plan cache stats = %+v", st.PlanCache)
	}
	if st.WindowParallelism < 1 {
		t.Fatalf("resolved window parallelism = %d", st.WindowParallelism)
	}
	// The reply resolves "auto" (≤0) to a concrete worker count.
	if e.Opts.WindowParallelism <= 0 && st.WindowParallelism < 1 {
		t.Fatalf("auto parallelism not resolved: %d", st.WindowParallelism)
	}

	// Paged storage is on by default: the reply must carry live buffer-pool
	// numbers — the INSERTs above pinned the table's tail page.
	bp := st.BufferPool
	if bp.PageSize == 0 || bp.PagesCached == 0 {
		t.Fatalf("buffer pool stats missing: %+v", bp)
	}
	if bp.HitRatio <= 0 || bp.HitRatio > 1 {
		t.Fatalf("hit ratio = %v out of (0, 1]", bp.HitRatio)
	}

	// A second connection sees its own zeroed session counters.
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st2, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.SessionID == st.SessionID || st2.SessionExecs != 0 || st2.SessionQueries != 0 {
		t.Fatalf("second session stats = %+v", st2)
	}
	if st2.ActiveSessions != 2 {
		t.Fatalf("active sessions = %d, want 2", st2.ActiveSessions)
	}
}
