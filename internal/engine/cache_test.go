package engine

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"rfview/internal/sqltypes"
)

const windowQ = `SELECT pos, SUM(val) OVER (ORDER BY pos
  ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS s FROM seq ORDER BY pos`

// TestPlanCacheHitOnRepeat: an identical read statement is answered from the
// cache with the same result.
func TestPlanCacheHitOnRepeat(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 20, func(i int) int64 { return int64(i) })
	first := mustExec(t, e, windowQ)
	h0 := e.PlanCacheStats().Hits
	second := mustExec(t, e, windowQ)
	if e.PlanCacheStats().Hits != h0+1 {
		t.Fatalf("repeat must hit the plan cache: %+v", e.PlanCacheStats())
	}
	if len(first.Rows) != len(second.Rows) {
		t.Fatalf("cached result differs: %d vs %d rows", len(first.Rows), len(second.Rows))
	}
	for i := range first.Rows {
		if first.Rows[i][1].Float() != second.Rows[i][1].Float() {
			t.Fatalf("row %d differs: %v vs %v", i, first.Rows[i], second.Rows[i])
		}
	}
}

// TestResultEncodedMemo: a cached result is encoded once per cache entry. An
// UPDATE replaces the entry, so the next hit encodes the new values, and an
// analyzed run, whose rows flow through the operators, never sees the memo.
func TestResultEncodedMemo(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 10, func(i int) int64 { return 1 })
	const q = `SELECT pos, val FROM seq ORDER BY pos`
	calls := 0
	encode := func(opts ...ExecOption) string {
		t.Helper()
		res, err := e.ExecContext(context.Background(), q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return string(res.Encoded(func(cols []string, rows []sqltypes.Row, affected int) []byte {
			calls++
			return []byte(fmt.Sprintf("%s=%v n=%d", cols[1], rows[0][1], affected))
		}))
	}
	for i, want := range []struct {
		opt   []ExecOption
		calls int
	}{
		{nil, 1},                         // executed: nothing to memoize beside
		{nil, 2},                         // first hit: encodes and stores
		{nil, 2},                         // second hit: the stored bytes
		{[]ExecOption{WithAnalyze()}, 3}, // analyzed: executed again
		{nil, 3},
	} {
		if got := encode(want.opt...); got != "val=1 n=10" || calls != want.calls {
			t.Fatalf("run %d: %q after %d encodings, want %q after %d", i, got, calls, "val=1 n=10", want.calls)
		}
	}
	mustExec(t, e, `UPDATE seq SET val = 7 WHERE pos = 1`)
	for i := 0; i < 3; i++ {
		if got := encode(); got != "val=7 n=10" {
			t.Fatalf("run %d after UPDATE: %q", i, got)
		}
	}
	if calls != 5 {
		t.Fatalf("%d encodings, want 5: the re-execution and one for the new entry", calls)
	}
	if (*Result)(nil).Encoded(nil) != nil {
		t.Fatal("a nil Result encodes to nil")
	}
}

// TestPlanCacheInvalidatedByInsert: DML on a referenced table bumps its
// version, so the cached entry is discarded and the re-run sees the new row.
func TestPlanCacheInvalidatedByInsert(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 10, func(i int) int64 { return 1 })
	before := mustExec(t, e, `SELECT pos, val FROM seq ORDER BY pos`)
	mustExec(t, e, `SELECT pos, val FROM seq ORDER BY pos`) // warm the cache
	mustExec(t, e, `INSERT INTO seq (pos, val) VALUES (11, 1)`)
	after := mustExec(t, e, `SELECT pos, val FROM seq ORDER BY pos`)
	if len(after.Rows) != len(before.Rows)+1 {
		t.Fatalf("stale cached result served after INSERT: %d rows, want %d",
			len(after.Rows), len(before.Rows)+1)
	}
	if e.PlanCacheStats().Invalidations == 0 {
		t.Fatalf("INSERT must invalidate the cached plan: %+v", e.PlanCacheStats())
	}
}

// TestPlanCacheInvalidatedByCreateView: CREATE MATERIALIZED VIEW bumps the
// schema version, so a query that previously planned natively is re-derived
// against the new view on its next run.
func TestPlanCacheInvalidatedByCreateView(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 20, func(i int) int64 { return int64(i) })
	res := mustExec(t, e, windowQ)
	if res.Derivation != nil {
		t.Fatal("no view exists yet; query must plan natively")
	}
	mustExec(t, e, windowQ) // cache the native plan
	mustExec(t, e, `CREATE MATERIALIZED VIEW mv AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM seq`)
	res = mustExec(t, e, windowQ)
	if res.Derivation == nil {
		t.Fatal("after CREATE MATERIALIZED VIEW the cached native plan must be dropped and the query derived")
	}
}

// TestPlanCacheRefreshCycle: a cached derived plan follows the view through
// stale and refreshed states instead of serving stale answers.
func TestPlanCacheRefreshCycle(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 20, func(i int) int64 { return 1 })
	mustExec(t, e, `CREATE MATERIALIZED VIEW mv AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM seq`)
	res := mustExec(t, e, windowQ)
	if res.Derivation == nil {
		t.Fatal("query must derive from mv")
	}
	mustExec(t, e, windowQ) // cache the derived plan

	// Breaking density marks the view stale; the cached plan must not keep
	// answering from it — the query falls back to the base rows.
	mustExec(t, e, `DELETE FROM seq WHERE pos = 10`)
	if res = mustExec(t, e, windowQ); res.Derivation != nil || len(res.Rows) != 19 {
		t.Fatalf("stale view must drop the cached derived plan: derivation %v, %d rows", res.Derivation, len(res.Rows))
	}

	// Restore density (REFRESH recomputes only over dense sequences), then
	// refresh: the cached plan must pick the view back up.
	mustExec(t, e, `INSERT INTO seq (pos, val) VALUES (10, 1)`)
	mustExec(t, e, `REFRESH MATERIALIZED VIEW mv`)
	res = mustExec(t, e, windowQ)
	if res.Derivation == nil {
		t.Fatal("after REFRESH the query must derive again")
	}
	// All 20 rows are back and every val is 1, so no window sums past 5.
	if len(res.Rows) != 20 {
		t.Fatalf("got %d rows after refresh, want 20", len(res.Rows))
	}
	for _, r := range res.Rows {
		if s := r[1].Float(); s < 1 || s > 5 {
			t.Fatalf("window sum %v out of range for all-ones data", s)
		}
	}
}

// TestPlanCacheDisabled: capacity zero turns caching off entirely.
func TestPlanCacheDisabled(t *testing.T) {
	e := newEngine(t)
	e.SetPlanCacheCapacity(0)
	loadSeq(t, e, 10, func(i int) int64 { return int64(i) })
	mustExec(t, e, `SELECT pos, val FROM seq ORDER BY pos`)
	mustExec(t, e, `SELECT pos, val FROM seq ORDER BY pos`)
	st := e.PlanCacheStats()
	if st.Hits != 0 || st.Len != 0 {
		t.Fatalf("disabled cache must stay empty: %+v", st)
	}
}

// TestPlanCacheSkipsWrites: DML and DDL are never cached, so replaying the
// same INSERT text keeps inserting.
func TestPlanCacheSkipsWrites(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, `CREATE TABLE seq (pos INTEGER, val INTEGER)`)
	mustExec(t, e, `INSERT INTO seq (pos, val) VALUES (1, 1)`)
	mustExec(t, e, `INSERT INTO seq (pos, val) VALUES (1, 1)`)
	res := mustExec(t, e, `SELECT COUNT(pos) AS n FROM seq`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("identical INSERT text must execute twice, got count %v", res.Rows[0][0])
	}
}

// TestPlanCacheExplainUncached: EXPLAIN results are not cached (they carry
// no execStmt), and EXPLAIN text never leaks into query answers.
func TestPlanCacheExplainUncached(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 10, func(i int) int64 { return int64(i) })
	mustExec(t, e, `EXPLAIN SELECT pos, val FROM seq`)
	st := e.PlanCacheStats()
	if st.Len != 0 {
		t.Fatalf("EXPLAIN must not populate the cache: %+v", st)
	}
}

// BenchmarkExecCachedHit measures the steady-state hot path the server
// rides: repeated identical derived window queries.
func BenchmarkExecCachedHit(b *testing.B) {
	e := benchEngine(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(windowQ); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecUncached is the same workload with the cache disabled: full
// parse + derivation + execution on every call.
func BenchmarkExecUncached(b *testing.B) {
	e := benchEngine(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(windowQ); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEngine(b *testing.B, cached bool) *Engine {
	b.Helper()
	e := New(DefaultOptions())
	if !cached {
		e.SetPlanCacheCapacity(0)
	}
	var sb strings.Builder
	sb.WriteString(`CREATE TABLE seq (pos INTEGER, val INTEGER); `)
	sb.WriteString(`INSERT INTO seq (pos, val) VALUES (1, 1)`)
	for i := 2; i <= 200; i++ {
		sb.WriteString(`, (`)
		sb.WriteString(strconv.Itoa(i))
		sb.WriteString(`, 1)`)
	}
	sb.WriteString(`; CREATE MATERIALIZED VIEW mv AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM seq;`)
	if _, err := e.ExecAll(sb.String()); err != nil {
		b.Fatal(err)
	}
	if _, err := e.Exec(windowQ); err != nil {
		b.Fatal(err)
	}
	return e
}

// TestUncachedDeriveAllocs bounds what an uncached derived read allocates: a
// never-repeating stream of derivable windows over a 200-row view, one
// distinct alias per statement, each a cache miss that parses, derives,
// plans, runs and stores its entry. Nothing renders SQL or plan text that no
// caller reads: such a read measured 71 allocations (75 under the race
// detector), and the bound leaves 15 % over that. Rendering the plan, the
// rewritten SQL and a second cache key on every read costs 45 more, which
// the bound catches. An EXPLAIN spelled differently
// from the cached statement plans fresh, and a native result has no
// rewritten text.
func TestUncachedDeriveAllocs(t *testing.T) {
	opts := DefaultOptions()
	opts.MemoryBudgetBytes, opts.PageCacheBytes = -1, -1
	e := New(opts)
	defer e.Close()
	loadSeq(t, e, 200, func(i int) int64 { return int64(i % 17) })
	mustExec(t, e, `CREATE MATERIALIZED VIEW mv AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM seq`)
	query := func(i int) string {
		return `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING) AS w` +
			strconv.Itoa(i) + ` FROM seq`
	}
	i := 0
	const maxAllocs = 82
	allocs := testing.AllocsPerRun(200, func() {
		i++
		res, err := e.Exec(query(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Derivation == nil || res.CacheHit || len(res.Rows) != 200 {
			t.Fatalf("statement %d: derived=%v hit=%v rows=%d", i, res.Derivation != nil, res.CacheHit, len(res.Rows))
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("an uncached derived read allocates %.0f times, want <= %d", allocs, maxAllocs)
	}

	q := query(0)
	miss := mustExec(t, e, q)
	if hit := mustExec(t, e, q); !hit.CacheHit || hit.Rewritten() == "" || hit.Rewritten() != miss.Rewritten() {
		t.Fatalf("rewritten text on the miss %q and the hit %q (hit=%v)", miss.Rewritten(), hit.Rewritten(), hit.CacheHit)
	}
	if plan := mustExec(t, e, "EXPLAIN "+q).Plan; !strings.Contains(plan, "-- plan cache: hit") {
		t.Fatalf("EXPLAIN of the statement as written does not find its entry:\n%s", plan)
	}
	respaced := strings.Replace(q, " FROM", "  FROM", 1)
	if plan := mustExec(t, e, "EXPLAIN "+respaced).Plan; strings.Contains(plan, "plan cache") || !strings.Contains(plan, "Derive view=mv") {
		t.Fatalf("EXPLAIN spelled differently from the cached statement did not plan fresh:\n%s", plan)
	}
	for range 2 { // the miss, then the hit
		if res := mustExec(t, e, `SELECT pos, val FROM seq`); res.Derivation != nil || res.Rewritten() != "" {
			t.Fatalf("native statement: rewritten %q (hit=%v)", res.Rewritten(), res.CacheHit)
		}
	}
}
