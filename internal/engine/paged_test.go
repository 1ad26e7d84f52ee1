package engine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	rferrors "rfview/errors"
	"rfview/internal/core"
	"rfview/internal/rewrite"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
)

// newTinyPoolEngine builds an engine whose buffer pool holds only a few
// 1 KiB pages, so every multi-page operation runs under eviction pressure.
func newTinyPoolEngine(t *testing.T, pages int) *Engine {
	t.Helper()
	opts := DefaultOptions()
	opts.PageSize = storage.MinPageSize
	opts.PageCacheBytes = int64(pages) * storage.MinPageSize
	e := New(opts)
	t.Cleanup(func() { e.Close() })
	return e
}

// TestPagedTinyPoolDifferentialOracle is the storage acceptance oracle: a
// table with a DML history and a shadow of its rows, queried through every
// evaluation strategy — native window, self-join simulation, MaxOA
// derivation, MinOA derivation — on an engine whose pool holds 4 pages.
// Scans, sorts and window answers must equal the shadow and
// core.ComputeNaive over it exactly: eviction and read-back may never change
// a row.
func TestPagedTinyPoolDifferentialOracle(t *testing.T) {
	const n = 400
	type seqRow struct {
		pos, val int64
		tag      string
	}
	var shadow []seqRow
	var tuples []string
	for i := int64(1); i <= n; i++ {
		r := seqRow{i, (i*7919)%251 - 125, strings.Repeat("x", int(i%50))}
		tuples = append(tuples, fmt.Sprintf("(%d, %d, '%s')", r.pos, r.val, r.tag))
		// The DML history below: updates rewrite rows into new heap pages,
		// deletes leave dead versions for visibility filtering to skip.
		if r.pos > 100 && r.pos < 160 {
			r.val += 1000
		}
		if r.pos <= 350 {
			shadow = append(shadow, r)
		}
	}
	load := func(e *Engine) {
		t.Helper()
		mustExec(t, e, `CREATE TABLE seq (pos INTEGER, val INTEGER, tag VARCHAR(64))`)
		mustExec(t, e, "INSERT INTO seq (pos, val, tag) VALUES "+strings.Join(tuples, ", "))
		mustExec(t, e, `UPDATE seq SET val = val + 1000 WHERE pos > 100 AND pos < 160`)
		mustExec(t, e, `DELETE FROM seq WHERE pos > 350`)
	}
	raw := make([]float64, len(shadow))
	for i, r := range shadow {
		raw[i] = float64(r.val)
	}
	window, err := core.ComputeNaive(raw, core.Sliding(3, 3), core.Sum)
	if err != nil {
		t.Fatal(err)
	}
	byVal := slices.Clone(shadow)
	slices.SortFunc(byVal, func(a, b seqRow) int { return cmp.Or(cmp.Compare(a.val, b.val), cmp.Compare(a.pos, b.pos)) })

	viewDDL := `CREATE MATERIALIZED VIEW mv AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM seq`
	forced := func(strategy rewrite.Strategy) func(*testing.T, *Engine, string) *Result {
		return func(t *testing.T, e *Engine, sql string) *Result {
			return execForced(strategy)(t, e, sql, len(shadow))
		}
	}
	strategies := []struct {
		name  string
		query func(*testing.T, *Engine, string) *Result
		view  bool
	}{
		{"native", mustExec, false},
		{"selfjoin", execSelfJoin, false},
		{"maxoa", forced(rewrite.StrategyMaxOA), true},
		{"minoa", forced(rewrite.StrategyMinOA), true},
	}
	for _, strat := range strategies {
		e := newTinyPoolEngine(t, 4)
		load(e)
		if strat.view {
			mustExec(t, e, viewDDL)
		}
		rows := mustExec(t, e, `SELECT pos, val, tag FROM seq`).Rows
		slices.SortFunc(rows, func(a, b sqltypes.Row) int { return cmp.Compare(a[0].Int(), b[0].Int()) })
		if len(rows) != len(shadow) {
			t.Fatalf("%s scan: %d rows, shadow has %d", strat.name, len(rows), len(shadow))
		}
		for i, r := range shadow {
			if got := (seqRow{rows[i][0].Int(), rows[i][1].Int(), rows[i][2].Str()}); got != r {
				t.Fatalf("%s scan: row %d = %+v, shadow says %+v", strat.name, i, got, r)
			}
		}
		res := strat.query(t, e, `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING) AS w FROM seq`)
		if strat.view && res.Derivation == nil {
			t.Fatalf("%s did not derive the window from mv", strat.name)
		}
		got := rowsToPairs(t, res.Rows)
		if len(got) != len(shadow) {
			t.Fatalf("%s window: %d rows, shadow has %d", strat.name, len(got), len(shadow))
		}
		for i, want := range window.Body() {
			if got[int64(i+1)] != want {
				t.Fatalf("%s window: pos %d = %v, ComputeNaive says %v", strat.name, i+1, got[int64(i+1)], want)
			}
		}
		rows = mustExec(t, e, `SELECT pos, val FROM seq ORDER BY val, pos`).Rows
		if len(rows) != len(byVal) {
			t.Fatalf("%s sort: %d rows, shadow has %d", strat.name, len(rows), len(byVal))
		}
		for i, r := range byVal {
			if rows[i][0].Int() != r.pos || rows[i][1].Int() != r.val {
				t.Fatalf("%s sort: row %d = %v, shadow says (%d, %d)", strat.name, i, rows[i], r.pos, r.val)
			}
		}
		if st := e.StorageStats(); st.Evictions == 0 {
			t.Fatalf("%s: tiny pool never evicted (BytesResident=%d) — oracle exerts no pressure", strat.name, st.BytesResident)
		}
	}
}

// TestPagedEvictionRaces hammers a 16-page pool from concurrent scanners,
// writers, and a checkpoint-style flusher under the race detector. Every
// scan must return a consistent snapshot (committed row count) and no
// statement may fail with anything but a write-write conflict.
func TestPagedEvictionRaces(t *testing.T) {
	e := newTinyPoolEngine(t, 16)
	mustExec(t, e, `CREATE TABLE seq (pos INTEGER, val INTEGER, pad VARCHAR(128))`)
	var b strings.Builder
	b.WriteString("INSERT INTO seq VALUES ")
	const base = 300
	for i := 1; i <= base; i++ {
		if i > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, '%s')", i, i, strings.Repeat("p", 100))
	}
	mustExec(t, e, b.String())

	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(format, args...)
	}
	// Scanners: full scans and windowed aggregates, each a fixed snapshot.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				res, err := e.Exec(`SELECT COUNT(*) AS c, SUM(pos) AS s FROM seq`)
				if err != nil {
					fail("scan: %v", err)
					return
				}
				if c := res.Rows[0][0].Int(); c < base {
					fail("scan saw %d rows, want >= %d", c, base)
					return
				}
			}
		}()
	}
	// Writers: inserts on private key ranges, updates on shared hot rows.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				pos := 1000 + w*100 + i
				if _, err := e.Exec(fmt.Sprintf(
					"INSERT INTO seq VALUES (%d, %d, '%s')", pos, pos, strings.Repeat("q", 90))); err != nil {
					fail("insert: %v", err)
					return
				}
				_, err := e.Exec(fmt.Sprintf("UPDATE seq SET val = val + 1 WHERE pos = %d", 1+(w*7+i)%base))
				if err != nil && rferrors.CodeOf(err) != rferrors.CodeConflict {
					fail("update: %v", err)
					return
				}
			}
		}(w)
	}
	// Checkpoint-style flusher: write-back churn racing the scans above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if err := e.FlushStorage(); err != nil {
				fail("flush: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	res := mustExec(t, e, `SELECT COUNT(*) AS c FROM seq`)
	if c := res.Rows[0][0].Int(); c != base+3*30 {
		t.Fatalf("final count = %d, want %d", c, base+3*30)
	}
	st := e.StorageStats()
	if st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("race ran without eviction pressure: %+v", st)
	}
}

// TestPagedExplainAnalyzeAndMetrics checks the observability surface: EXPLAIN
// ANALYZE annotates Scan nodes with page counts and hit ratios, and the
// metrics exposition carries the bufferpool series.
func TestPagedExplainAnalyzeAndMetrics(t *testing.T) {
	e := newTinyPoolEngine(t, 4)
	mustExec(t, e, `CREATE TABLE seq (pos INTEGER, val INTEGER, pad VARCHAR(200))`)
	var b strings.Builder
	b.WriteString("INSERT INTO seq VALUES ")
	for i := 1; i <= 200; i++ {
		if i > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, '%s')", i, i, strings.Repeat("z", 150))
	}
	mustExec(t, e, b.String())

	res := mustExec(t, e, `EXPLAIN ANALYZE SELECT pos, val FROM seq`)
	if !strings.Contains(res.Plan, "pages=") || !strings.Contains(res.Plan, "hit_ratio=") {
		t.Fatalf("plan missing page annotation:\n%s", res.Plan)
	}

	text := e.Metrics().Expose()
	for _, metric := range []string{
		"rfview_bufferpool_misses_total", "rfview_bufferpool_evictions_total",
		"rfview_bufferpool_writebacks_total", "rfview_bufferpool_resident_bytes",
	} {
		if v := metricValue(t, text, metric); v <= 0 {
			t.Fatalf("%s = %v, want > 0", metric, v)
		}
	}
}

// TestPageSizeOptionRespected checks the page-size knob reaches the pool and
// out-of-range values are clamped.
func TestPageSizeOptionRespected(t *testing.T) {
	opts := DefaultOptions()
	opts.PageSize = 4096
	e := New(opts)
	defer e.Close()
	if got := e.PageSize(); got != 4096 {
		t.Fatalf("PageSize() = %d, want 4096", got)
	}
	if st := e.StorageStats(); st.PageSize != 4096 {
		t.Fatalf("StorageStats().PageSize = %d", st.PageSize)
	}

	opts = DefaultOptions()
	opts.PageSize = 1 // below MinPageSize: clamped
	e2 := New(opts)
	defer e2.Close()
	if got := e2.PageSize(); got != storage.MinPageSize {
		t.Fatalf("clamped PageSize() = %d, want %d", got, storage.MinPageSize)
	}
}
