package server_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	rferrors "rfview/errors"
	"rfview/internal/client"
	"rfview/internal/engine"
	"rfview/internal/wal"
)

// TestMetricsOpAndHandler drives real traffic through the wire protocol, then
// scrapes the combined registry both in-band ("metrics" op) and over HTTP,
// checking the core series the CI gate also asserts on.
func TestMetricsOpAndHandler(t *testing.T) {
	_, eng, addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec(`CREATE TABLE seq (pos INTEGER, val INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO seq VALUES (1, 10), (2, 20), (3, 30)`); err != nil {
		t.Fatal(err)
	}
	q := `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS c FROM seq`
	for i := 0; i < 2; i++ { // second run hits the plan cache
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	text, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics op: %v", err)
	}
	for _, want := range []string{
		`rfview_queries_total{strategy="native"} 2`,
		"rfview_plan_cache_hit_ratio",
		"rfview_query_seconds_count 2",
		`rfview_server_op_seconds_count{op="query"} 2`,
		"rfview_server_active_sessions 1",
		"rfview_window_runs 1", // the repeat reused the cached result; no second window run
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics op exposition missing %q", want)
		}
	}

	// The HTTP handler (what -metrics-addr serves) renders the same registry.
	rec := httptest.NewRecorder()
	eng.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body, _ := io.ReadAll(rec.Result().Body)
	if !strings.Contains(string(body), `rfview_queries_total{strategy="native"} 2`) {
		t.Errorf("HTTP scrape missing query counter:\n%s", body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
}

// TestMetricsScrapeGate is the CI metrics gate: a durable engine behind the
// server answers one wire query, and an HTTP scrape missing any core series —
// engine, plan cache, WAL or server — fails.
func TestMetricsScrapeGate(t *testing.T) {
	mgr, err := wal.Open(wal.Options{Dir: t.TempDir(), Sync: wal.SyncAlways}, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := mgr.Close(); err != nil {
			t.Errorf("final checkpoint: %v", err)
		}
		if err := mgr.Engine().Close(); err != nil {
			t.Errorf("closing the engine: %v", err)
		}
	})
	_, eng, addr, _ := serveEngine(t, mgr.Engine())
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sql := range []string{
		`CREATE TABLE seq (pos INTEGER, val INTEGER)`,
		`INSERT INTO seq VALUES (1, 10), (2, 20), (3, 30)`,
	} {
		if _, err := c.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Query(`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	eng.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body, _ := io.ReadAll(rec.Result().Body)
	for _, series := range []string{
		"rfview_queries_total",
		"rfview_plan_cache_hit_ratio",
		"rfview_query_seconds_bucket",
		"rfview_wal_fsync_seconds_bucket",
		"rfview_server_op_seconds_bucket",
	} {
		if !strings.Contains("\n"+string(body), "\n"+series) {
			t.Errorf("metrics scrape missing series %s", series)
		}
	}
}

// TestWireErrorCodes checks the protocol's stable code field: server-side
// failures satisfy the same errors.Is sentinels as in-process ones.
func TestWireErrorCodes(t *testing.T) {
	_, _, addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cases := []struct {
		sql      string
		sentinel error
	}{
		{`SELECT pos FROM missing`, rferrors.ErrUnknownTable},
		{`SELECT FROM WHERE`, rferrors.ErrParse},
		{`REFRESH MATERIALIZED VIEW nothere`, rferrors.ErrUnknownView},
	}
	for _, cse := range cases {
		_, err := c.Query(cse.sql)
		if err == nil {
			t.Errorf("%q: no error", cse.sql)
			continue
		}
		if !errors.Is(err, cse.sentinel) {
			t.Errorf("%q: err %v does not match sentinel %v", cse.sql, err, cse.sentinel)
		}
	}
}

// TestServerNonFiniteResult: a result JSON cannot carry (a cumulative SUM
// overflowing to +Inf) is answered with code unsupported naming the cell —
// executed and again from the result cache — and the connection stays open.
func TestServerNonFiniteResult(t *testing.T) {
	_, _, addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sql := range []string{
		`CREATE TABLE f (pos INTEGER, val FLOAT)`,
		`INSERT INTO f VALUES (1, 1e308), (2, 1e308)`,
	} {
		if _, err := c.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		_, err := c.Query(`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s FROM f`)
		if !errors.Is(err, rferrors.ErrUnsupported) || !strings.Contains(err.Error(), `row 2, column "s"`) {
			t.Fatalf("run %d: err = %v, want unsupported naming row 2, column \"s\"", i, err)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("run %d: ping after a non-finite result: %v", i, err)
		}
	}
}

// crossJoinClient serves two 1200-row tables whose cross join (1.44M rows)
// runs far longer than a few milliseconds.
func crossJoinClient(t *testing.T) *client.Client {
	t.Helper()
	_, eng, addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := eng.ExecAll(`CREATE TABLE a (x INTEGER); CREATE TABLE b (y INTEGER)`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(`INSERT INTO a VALUES (0)`)
	for i := 1; i < 1200; i++ {
		fmt.Fprintf(&sb, ", (%d)", i)
	}
	if _, err := c.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(strings.Replace(sb.String(), "INTO a", "INTO b", 1)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWireTimeout bounds server-side execution with the request's timeout_ms
// and expects the cancellation sentinel back through the wire.
func TestWireTimeout(t *testing.T) {
	c := crossJoinClient(t)
	_, err := c.Query(`SELECT x, y FROM a, b`, client.WithTimeout(5*time.Millisecond))
	if err == nil {
		t.Fatalf("1.44M-row cross join finished inside 5ms?")
	}
	if !errors.Is(err, rferrors.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	// The connection survives the failed statement.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after timeout: %v", err)
	}
}

// TestWireSubMillisecondDeadline: a context deadline under 1 ms still bounds
// the statement — the wire's whole milliseconds round up, never down to the
// 0 that means no timeout.
func TestWireSubMillisecondDeadline(t *testing.T) {
	c := crossJoinClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 900*time.Microsecond)
	defer cancel()
	res, err := c.QueryContext(ctx, `SELECT x, y FROM a, b`)
	if !errors.Is(err, rferrors.ErrCancelled) {
		rows := 0
		if res != nil {
			rows = len(res.Rows)
		}
		t.Fatalf("err = %v after %d rows, want ErrCancelled", err, rows)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after timeout: %v", err)
	}
}

// TestExplainAnalyzeOverWire checks the explain op's analyze flag.
func TestExplainAnalyzeOverWire(t *testing.T) {
	_, _, addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE seq (pos INTEGER, val INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO seq VALUES (1, 10), (2, 20)`); err != nil {
		t.Fatal(err)
	}
	q := `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS c FROM seq`
	plain, err := c.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain, "rows=") {
		t.Errorf("plain EXPLAIN carries actuals:\n%s", plain)
	}
	analyzed, err := c.Explain(q, client.WithAnalyze())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"-- strategy: native", "rows=2", "time="} {
		if !strings.Contains(analyzed, want) {
			t.Errorf("analyzed plan missing %q:\n%s", want, analyzed)
		}
	}
}
