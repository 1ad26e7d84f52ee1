package engine

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"rfview/internal/paper"
)

// buildSeqView loads seq(pos,val), indexes it, and materializes the (2,1)
// sequence view the derivation tests run against.
func buildSeqView(t *testing.T, opts Options, n int) *Engine {
	t.Helper()
	e := New(opts)
	loadSeq(t, e, n, func(i int) int64 { return int64(i % 17) })
	mustExec(t, e, `CREATE UNIQUE INDEX seq_pk ON seq (pos)`)
	mustExec(t, e, `CREATE MATERIALIZED VIEW matseq AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq`)
	return e
}

// TestExplainAnalyzeDecoded: a Scan line carries decoded=N, the records the
// scan decoded because no cached page columns covered them — none on a warm
// resident scan, and some on a scan through a pool too small to keep its
// pages, which re-decodes each one it reads back.
func TestExplainAnalyzeDecoded(t *testing.T) {
	decoded := func(t *testing.T, e *Engine) int {
		t.Helper()
		plan := mustExec(t, e, `EXPLAIN ANALYZE SELECT pos, val FROM seq`).Plan
		m := regexp.MustCompile(`SeqScan seq \(slots=\d+ pages=\d+ hit_ratio=\S+ decoded=(\d+)`).FindStringSubmatch(plan)
		if m == nil {
			t.Fatalf("no decoded= on the Scan line:\n%s", plan)
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	// Unlimited budget and page cache, whatever the suite-wide test knobs say.
	opts := DefaultOptions()
	opts.MemoryBudgetBytes, opts.PageCacheBytes = -1, -1
	warm := New(opts)
	defer warm.Close()
	loadSeq(t, warm, 500, func(i int) int64 { return int64(i % 17) })
	mustExec(t, warm, `SELECT pos, val FROM seq`)
	if n := decoded(t, warm); n != 0 {
		t.Fatalf("warm resident scan decoded %d records, want 0", n)
	}
	tiny := newTinyPoolEngine(t, 4)
	loadSeq(t, tiny, 2000, func(i int) int64 { return int64(i % 17) })
	mustExec(t, tiny, `SELECT pos, val FROM seq`)
	if n := decoded(t, tiny); n == 0 {
		t.Fatal("a scan through a 4-page pool of a larger table decoded no records")
	}
}

// TestExplainAnalyzeStrategies runs EXPLAIN ANALYZE across every strategy
// label the engine can choose and checks the header (chosen strategy, Δl/Δh
// overlap factors, the DERIVE node as the rewritten text) and the
// per-operator actuals; running the query once then counts it under the same
// label. A derivation's label is the algorithm its Derive operator runs.
func TestExplainAnalyzeStrategies(t *testing.T) {
	const n = 20
	withView := func(ddl string) func(t *testing.T) *Engine {
		return func(t *testing.T) *Engine {
			e := newEngine(t)
			loadSeq(t, e, n, func(i int) int64 { return int64(i % 17) })
			mustExec(t, e, ddl)
			return e
		}
	}
	cases := []struct {
		name     string
		build    func(t *testing.T) *Engine
		query    string
		strategy string
		want     []string
	}{
		{
			name: "native",
			build: func(t *testing.T) *Engine {
				e := newEngine(t)
				loadSeq(t, e, n, func(i int) int64 { return int64(i) })
				return e
			},
			query:    `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
			strategy: "native",
			want:     []string{"-- strategy: native\n", "Window", "rows=20", "time="},
		},
		{
			// The Fig. 2 self join is SQL like any other: the engine runs
			// the rendered text as written, with no label of its own.
			name: "selfjoin",
			build: func(t *testing.T) *Engine {
				e := newEngine(t)
				loadSeq(t, e, n, func(i int) int64 { return int64(i) })
				return e
			},
			query:    fig2SQL(t, `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq`),
			strategy: "native",
			want:     []string{"-- strategy: native\n", "Join", "rows=20", "time="},
		},
		{
			name:     "exact",
			build:    func(t *testing.T) *Engine { return buildSeqView(t, DefaultOptions(), n) },
			query:    `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
			strategy: "exact",
			want: []string{"-- strategy: exact view=matseq Δl=0 Δh=0 wx=4\n",
				"-- rewritten: DERIVE pos, w AS SUM (2,1) FROM matseq (2,1) BY exact\n",
				"Derive view=matseq algo=exact Δl=0 Δh=0 Wx=4 parts=1 rows=23 slots=23 (rows=20 time=", "SeqScan __mv_matseq AS matseq"},
		},
		{
			// §4.2: MIN/MAX extend by the two covering shifted windows.
			name: "maxoa",
			build: withView(`CREATE MATERIALIZED VIEW mmax AS
			  SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq`),
			query:    `SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) AS w FROM seq`,
			strategy: "maxoa",
			want: []string{"-- strategy: maxoa view=mmax Δl=1 Δh=1 wx=4\n", "-- rewritten: DERIVE",
				"Derive view=mmax algo=MaxOA Δl=1 Δh=1 Wx=4 parts=1 rows=23 slots=23 (rows=20 time="},
		},
		{
			// (4,3) from the stored (2,1): Δl+Δh ≡ 0 (mod W_x), the residue
			// collision MinOA's SQL pattern cannot render and its linear form
			// derives like any other target.
			name:     "minoa",
			build:    func(t *testing.T) *Engine { return buildSeqView(t, DefaultOptions(), n) },
			query:    `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING AND 3 FOLLOWING) AS w FROM seq`,
			strategy: "minoa",
			want: []string{"-- strategy: minoa view=matseq Δl=2 Δh=2 wx=4\n", "-- rewritten: DERIVE",
				"Derive view=matseq algo=MinOA Δl=2 Δh=2 Wx=4 parts=1 rows=23 slots=23 (rows=20 time="},
		},
		{
			// Narrower than the stored window — only MinOA can do this.
			name:     "minoa-narrower",
			build:    func(t *testing.T) *Engine { return buildSeqView(t, DefaultOptions(), n) },
			query:    `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
			strategy: "minoa",
			want: []string{"-- strategy: minoa view=matseq", "-- rewritten: DERIVE",
				"Derive view=matseq algo=MinOA Δl=-1 Δh=0 Wx=4 parts=1 rows=23 slots=23 (rows=20 time="},
		},
		{
			// A partitioned query need not select its partition column: the
			// Derive operator partitions by the view's.
			name: "exact-unselected-partition",
			build: func(t *testing.T) *Engine {
				e := newEngine(t)
				mustExec(t, e, `CREATE TABLE pt (grp VARCHAR(8), pos INTEGER, val INTEGER)`)
				mustExec(t, e, `INSERT INTO pt VALUES ('a', 1, 1), ('a', 2, 2), ('a', 3, 3), ('b', 1, 7), ('b', 2, 9)`)
				mustExec(t, e, `CREATE MATERIALIZED VIEW pv AS
				  SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM pt`)
				return e
			},
			query:    `SELECT pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM pt`,
			strategy: "exact",
			want: []string{"-- strategy: exact view=pv Δl=0 Δh=0 wx=3\n",
				"-- rewritten: DERIVE pos, w AS SUM (1,1) FROM pv (1,1) BY exact\n",
				"Derive view=pv algo=exact Δl=0 Δh=0 Wx=3 parts=2 ", "(rows=5 time="},
		},
		{
			// §3.1: a sliding window from a cumulative view is labeled by the
			// algorithm that runs, not by a SQL pattern's name.
			name: "cumulative",
			build: withView(`CREATE MATERIALIZED VIEW cumseq AS
			  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS val FROM seq`),
			query:    `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
			strategy: "cumulative",
			want: []string{"-- strategy: cumulative view=cumseq Δl=0 Δh=0 wx=0\n",
				"-- rewritten: DERIVE pos, w AS SUM (3,1) FROM cumseq cumulative BY cumulative\n",
				"Derive view=cumseq algo=cumulative Δl=0 Δh=0 Wx=0 parts=1 rows=21 slots=21 (rows=20 time="},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := c.build(t)
			res, err := e.ExecContext(context.Background(), "EXPLAIN ANALYZE "+c.query)
			if err != nil {
				t.Fatalf("EXPLAIN ANALYZE: %v", err)
			}
			for _, w := range c.want {
				if !strings.Contains(res.Plan, w) {
					t.Errorf("plan missing %q:\n%s", w, res.Plan)
				}
			}
			if len(res.Rows) != 1 || len(res.Columns) != 1 || res.Columns[0] != "plan" {
				t.Errorf("EXPLAIN ANALYZE shape: cols=%v rows=%d", res.Columns, len(res.Rows))
			}
			mustExec(t, e, c.query)
			counter := `rfview_queries_total{strategy="` + c.strategy + `"}`
			if got := metricValue(t, e.Metrics().Expose(), counter); got != 1 {
				t.Errorf("%s = %v after one run, want 1", counter, got)
			}
		})
	}
}

// fig2SQL renders the Fig. 2 self-join simulation of a window query.
func fig2SQL(t *testing.T, sql string) string {
	t.Helper()
	sj, err := paper.SelfJoin(parseSelect(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	return sj.String()
}

// TestWithAnalyzeOption checks the API variant: the statement returns its
// normal rows and additionally carries the analyzed plan.
func TestWithAnalyzeOption(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 20, func(i int) int64 { return int64(i) })
	res, err := e.ExecContext(context.Background(),
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS c FROM seq`, WithAnalyze())
	if err != nil {
		t.Fatalf("ExecContext: %v", err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(res.Rows))
	}
	if !strings.Contains(res.Analyzed, "-- strategy: native") || !strings.Contains(res.Analyzed, "rows=20") {
		t.Fatalf("Analyzed missing annotations:\n%s", res.Analyzed)
	}
	// Without the option the hot path stays uninstrumented.
	res, err = e.ExecContext(context.Background(), `SELECT pos FROM seq`)
	if err != nil {
		t.Fatalf("ExecContext: %v", err)
	}
	if res.Analyzed != "" {
		t.Fatalf("unrequested Analyzed populated:\n%s", res.Analyzed)
	}
}

// TestExplainReplaysCachedPlan is the cache-annotation fix: once a statement's
// plan is cached, EXPLAIN must replay the cached rendering (marked as a cache
// hit), not an empty tree.
func TestExplainReplaysCachedPlan(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 10, func(i int) int64 { return int64(i) })
	q := `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq`
	mustExec(t, e, q) // populates the plan cache
	res, err := e.ExecContext(context.Background(), "EXPLAIN "+q)
	if err != nil {
		t.Fatalf("EXPLAIN: %v", err)
	}
	if !strings.Contains(res.Plan, "-- plan cache: hit") {
		t.Fatalf("EXPLAIN did not replay the cached plan:\n%s", res.Plan)
	}
	if !strings.Contains(res.Plan, "Window") {
		t.Fatalf("replayed plan lost its operator tree:\n%s", res.Plan)
	}
	// An analyzed cache hit re-executes instrumented and says so.
	ares, err := e.ExecContext(context.Background(), q, WithAnalyze())
	if err != nil {
		t.Fatalf("ExecContext analyze: %v", err)
	}
	if !ares.CacheHit || !strings.Contains(ares.Analyzed, "-- plan cache: hit") {
		t.Fatalf("analyzed re-run of cached statement: hit=%v\n%s", ares.CacheHit, ares.Analyzed)
	}
	if len(ares.Rows) != 10 {
		t.Fatalf("analyzed cached run rows = %d, want 10", len(ares.Rows))
	}
}

// TestDeriveExplainLabel: the Derive operator names its view, algorithm and
// coverage factors the same way wherever a plan is shown — a cold EXPLAIN, the
// replay of the cached plan (word for word the cold tree), EXPLAIN ANALYZE and
// the slow-query log, the last two with what the execution read.
func TestDeriveExplainLabel(t *testing.T) {
	e := buildSeqView(t, DefaultOptions(), 20)
	q := `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`
	const label = "Derive view=matseq algo=MinOA Δl=1 Δh=0 Wx=4"

	cold := mustExec(t, e, "EXPLAIN "+q).Plan
	if !strings.Contains(cold, label+"\n") || strings.Contains(cold, "plan cache") {
		t.Fatalf("cold EXPLAIN:\n%s", cold)
	}
	var slow []SlowQuery
	e.SetSlowQueryLog(time.Nanosecond, func(s SlowQuery) { slow = append(slow, s) })
	mustExec(t, e, q) // runs, caches the plan, and is slow
	e.SetSlowQueryLog(0, nil)
	if len(slow) != 1 || !strings.Contains(slow[0].Plan, label+" parts=1 rows=23 slots=23 (rows=20 time=") {
		t.Fatalf("slow-query log: %+v", slow)
	}
	replay := mustExec(t, e, "EXPLAIN "+q).Plan
	const hit = "-- plan cache: hit\n"
	if !strings.Contains(replay, hit) || strings.Replace(replay, hit, "", 1) != cold {
		t.Fatalf("replayed EXPLAIN differs from the cold one beyond the cache line:\n%s\ncold:\n%s", replay, cold)
	}
}

// TestQueryMetrics checks the per-strategy counters and the plan-cache gauges
// land in the exposition.
func TestQueryMetrics(t *testing.T) {
	e := buildSeqView(t, DefaultOptions(), 20)
	exact := `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq`
	native := `SELECT pos, val FROM seq`
	mustExec(t, e, exact)
	mustExec(t, e, native)
	mustExec(t, e, native) // second run: plan cache hit
	text := e.Metrics().Expose()
	for _, want := range []string{
		`rfview_queries_total{strategy="exact"} 1`,
		`rfview_queries_total{strategy="native"}`,
		"rfview_query_seconds_count",
		"rfview_plan_cache_hit_ratio",
		`rfview_view_staleness_seconds{view="matseq"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if st := e.PlanCacheStats(); st.Hits == 0 {
		t.Errorf("expected a plan cache hit after repeating %q", native)
	}
	// Errors count by code.
	if _, err := e.ExecContext(context.Background(), `SELECT nope FROM missing`); err == nil {
		t.Fatalf("query against missing table succeeded")
	}
	if !strings.Contains(e.Metrics().Expose(), `rfview_query_errors_total{code="unknown_table"} 1`) {
		t.Errorf("error counter missing:\n%s", e.Metrics().Expose())
	}
}

// TestSlowQueryLog arms the log with a zero-distance threshold so every query
// is slow, and checks the record carries the analyzed plan.
func TestSlowQueryLog(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 20, func(i int) int64 { return int64(i) })
	var got []SlowQuery
	e.SetSlowQueryLog(time.Nanosecond, func(q SlowQuery) { got = append(got, q) })
	q := `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS c FROM seq`
	mustExec(t, e, q)
	if len(got) != 1 {
		t.Fatalf("slow-query records = %d, want 1", len(got))
	}
	if got[0].SQL != q || got[0].Elapsed <= 0 {
		t.Fatalf("record = %+v", got[0])
	}
	if !strings.Contains(got[0].Plan, "rows=20") {
		t.Fatalf("record plan not analyzed:\n%s", got[0].Plan)
	}
	if !strings.Contains(e.Metrics().Expose(), "rfview_slow_queries_total 1") {
		t.Fatalf("slow-query counter not incremented")
	}
	// Disarm: no further records, and the hot path is uninstrumented again.
	e.SetSlowQueryLog(0, nil)
	mustExec(t, e, q)
	if len(got) != 1 {
		t.Fatalf("disarmed log still recorded (%d records)", len(got))
	}
}

// TestExecAllObserved: statements that arrive parsed (ExecAllContext, and
// through it rfview.DB.ExecAll and rfserverd -init) count in the query
// metrics and reach the slow-query log like ExecContext's.
func TestExecAllObserved(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 20, func(i int) int64 { return int64(i) })
	var got []SlowQuery
	e.SetSlowQueryLog(time.Nanosecond, func(q SlowQuery) { got = append(got, q) })
	if _, err := e.ExecAllContext(context.Background(), `SELECT pos, val FROM seq; SELECT nope FROM missing`); err == nil {
		t.Fatal("script over a missing table succeeded")
	}
	text := e.Metrics().Expose()
	if n := metricValue(t, text, `rfview_queries_total{strategy="native"}`); n != 1 {
		t.Fatalf("native query counter = %v after one SELECT, want 1", n)
	}
	if !strings.Contains(text, `rfview_query_errors_total{code="unknown_table"} 1`) {
		t.Errorf("failed statement not counted:\n%s", text)
	}
	if len(got) != 1 || !strings.Contains(got[0].SQL, "FROM seq") || !strings.Contains(got[0].Plan, "rows=20") {
		t.Fatalf("slow-query records = %+v, want the SELECT with its analyzed plan", got)
	}
}
