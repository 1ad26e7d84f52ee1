package engine

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
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
	// f is a fraction, -0.0 at pos 7, and d a DATE. Each is NULL in a
	// stated share of rows — f in every fifth, d in every seventh — and
	// over a run that starts a page NULL-led and gives it its first value
	// mid-page (f over pos 40…69, d over pos 200…239, at ~18 records a
	// page). Every path of the record kernel then runs under eviction.
	type seqRow struct {
		pos, val int64
		tag      string
		f        *float64
		d        *int64
	}
	var shadow []seqRow
	var tuples []string
	for i := int64(1); i <= n; i++ {
		r := seqRow{pos: i, val: (i*7919)%251 - 125, tag: strings.Repeat("x", int(i%50))}
		fsql, dsql := "NULL", "NULL"
		if i%5 != 0 && (i < 40 || i >= 70) {
			f := float64(i%37-18)*0.25 + 0.125 // an odd number of eighths
			fsql = fmt.Sprintf("%g", f)
			if i == 7 {
				f, fsql = math.Copysign(0, -1), "-0.0"
			}
			r.f = &f
		}
		if i%7 != 0 && (i < 200 || i >= 240) {
			d := 11000 + (i*37)%400
			dsql = "DATE '" + sqltypes.NewDate(d).Time().Format("2006-01-02") + "'"
			r.d = &d
		}
		tuples = append(tuples, fmt.Sprintf("(%d, %d, '%s', %s, %s)", r.pos, r.val, r.tag, fsql, dsql))
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
		mustExec(t, e, `CREATE TABLE seq (pos INTEGER, val INTEGER, tag VARCHAR(64), f FLOAT, d DATE)`)
		mustExec(t, e, "INSERT INTO seq (pos, val, tag, f, d) VALUES "+strings.Join(tuples, ", "))
		mustExec(t, e, `UPDATE seq SET val = val + 1000 WHERE pos > 100 AND pos < 160`)
		mustExec(t, e, `DELETE FROM seq WHERE pos > 350`)
	}
	// asRow is a shadow row as the scan must return it; rows compare by
	// their encodings, bit for bit: -0.0 is not 0, and NULL is only NULL.
	asRow := func(r seqRow) sqltypes.Row {
		row := sqltypes.Row{sqltypes.NewInt(r.pos), sqltypes.NewInt(r.val), sqltypes.NewString(r.tag), sqltypes.NullDatum, sqltypes.NullDatum}
		if r.f != nil {
			row[3] = sqltypes.NewFloat(*r.f)
		}
		if r.d != nil {
			row[4] = sqltypes.NewDate(*r.d)
		}
		return row
	}
	raw := make([]float64, len(shadow))
	for i, r := range shadow {
		raw[i] = float64(r.val)
	}
	window, err := core.ComputeNaive(raw, core.Sliding(3, 3), core.Sum)
	if err != nil {
		t.Fatal(err)
	}
	// SUM(f) over the same frame, NULLs skipped and an all-NULL frame NULL.
	// The values are multiples of 1/8, so every sum is exact in any order.
	fWindow := make([]*float64, len(shadow))
	for i := range shadow {
		for j := max(0, i-3); j <= min(len(shadow)-1, i+3); j++ {
			if f := shadow[j].f; f != nil {
				sum := *f
				if fWindow[i] != nil {
					sum += *fWindow[i]
				}
				fWindow[i] = &sum
			}
		}
	}
	byVal := slices.Clone(shadow)
	slices.SortFunc(byVal, func(a, b seqRow) int { return cmp.Or(cmp.Compare(a.val, b.val), cmp.Compare(a.pos, b.pos)) })
	// The same window over the rows a WHERE keeps: no view answers it, so
	// every engine runs the batch path — page columns, a typed selection —
	// under eviction.
	var kept []seqRow
	for _, r := range shadow {
		if r.val >= 0 {
			kept = append(kept, r)
		}
	}
	keptRaw := make([]float64, len(kept))
	for i, r := range kept {
		keptRaw[i] = float64(r.val)
	}
	filtered, err := core.ComputeNaive(keptRaw, core.Sliding(3, 3), core.Sum)
	if err != nil {
		t.Fatal(err)
	}

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
		rows := mustExec(t, e, `SELECT pos, val, tag, f, d FROM seq`).Rows
		slices.SortFunc(rows, func(a, b sqltypes.Row) int { return cmp.Compare(a[0].Int(), b[0].Int()) })
		if len(rows) != len(shadow) {
			t.Fatalf("%s scan: %d rows, shadow has %d", strat.name, len(rows), len(shadow))
		}
		for i, r := range shadow {
			if want := asRow(r); !bytes.Equal(sqltypes.EncodeRowData(nil, rows[i]), sqltypes.EncodeRowData(nil, want)) {
				t.Fatalf("%s scan: row %d = %v, shadow says %v", strat.name, i, rows[i], want)
			}
		}
		rows = mustExec(t, e, `SELECT pos, SUM(f) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING) AS w FROM seq`).Rows
		slices.SortFunc(rows, func(a, b sqltypes.Row) int { return cmp.Compare(a[0].Int(), b[0].Int()) })
		if len(rows) != len(shadow) {
			t.Fatalf("%s float window: %d rows, shadow has %d", strat.name, len(rows), len(shadow))
		}
		for i, want := range fWindow {
			if got := rows[i][1]; got.IsNull() != (want == nil) || (want != nil && got.Float() != *want) {
				t.Fatalf("%s float window: pos %d = %v, shadow sums %v", strat.name, i+1, got, want)
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
		res = mustExec(t, e, `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING) AS w FROM seq WHERE val >= 0`)
		got = rowsToPairs(t, res.Rows)
		if len(got) != len(kept) {
			t.Fatalf("%s filtered window: %d rows, shadow keeps %d", strat.name, len(got), len(kept))
		}
		for i, want := range filtered.Body() {
			if pos := kept[i].pos; got[pos] != want {
				t.Fatalf("%s filtered window: pos %d = %v, ComputeNaive says %v", strat.name, pos, got[pos], want)
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
				// The batch path: page columns read (and extended) while
				// writers append to the pages they cover.
				res, err = e.Exec(`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq WHERE val >= 1`)
				if err != nil {
					fail("window scan: %v", err)
					return
				}
				if c := len(res.Rows); c < base {
					fail("window scan saw %d rows, want >= %d", c, base)
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
	// A window over a filtered scan reads batches and filters them on typed
	// vectors, and the plan says so.
	res = mustExec(t, e, `EXPLAIN ANALYZE SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq WHERE val >= 10`)
	if !strings.Contains(res.Plan, "batches=") || !strings.Contains(res.Plan, "vectorized") {
		t.Fatalf("plan missing batch annotations:\n%s", res.Plan)
	}

	text := e.Metrics().Expose()
	for _, metric := range []string{
		"rfview_bufferpool_misses_total", "rfview_bufferpool_evictions_total",
		"rfview_bufferpool_writebacks_total", "rfview_bufferpool_resident_bytes",
		"rfview_bufferpool_column_cache_bytes",
	} {
		if v := metricValue(t, text, metric); v <= 0 {
			t.Fatalf("%s = %v, want > 0", metric, v)
		}
	}
}

// TestPagedColumnCacheBudget: under MemoryBudgetBytes, the pages' cached
// columns are charged to the budget with the frames — a pool capped below
// the budget leaves room for some — and everything comes back: after scans
// and evictions the budget holds exactly the pool's resident bytes, and
// after Close nothing.
func TestPagedColumnCacheBudget(t *testing.T) {
	opts := DefaultOptions()
	opts.PageSize = storage.MinPageSize
	opts.PageCacheBytes = 16 << 10
	opts.MemoryBudgetBytes = 64 << 10
	e := New(opts)
	loadSeq(t, e, 8000, func(i int) int64 { return int64(i * 7 % 101) })
	cached := false
	for _, q := range []string{
		`SELECT COUNT(*) AS c FROM seq`,
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS w FROM seq WHERE val >= 50`,
		`SELECT pos, val FROM seq WHERE pos > 7900`,
	} {
		mustExec(t, e, q)
		st := e.StorageStats()
		cached = cached || st.ColumnCacheBytes > 0
		if used := e.SpillBudget().Used(); used != st.BytesResident {
			t.Fatalf("after %q the budget holds %d bytes, the pool %d", q, used, st.BytesResident)
		}
	}
	if st := e.StorageStats(); !cached || st.Evictions == 0 {
		t.Fatalf("no column cache or no eviction on a pool a tenth of the table: %+v", st)
	}
	e.Close()
	if used := e.SpillBudget().Used(); used != 0 {
		t.Fatalf("%d budget bytes still charged after Close", used)
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
