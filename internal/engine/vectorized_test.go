package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rfview/internal/core"
)

// modelWindow is SQL's NULL-skipping window aggregate over one partition in
// position order (nil = NULL), built from the paper's model: core.ComputeNaive
// sees a NULL as 0 under SUM and as ±Inf under MIN/MAX, and a frame holding
// no non-NULL value answers NULL. desc evaluates over the reversed sequence.
func modelWindow(t *testing.T, vals []*float64, w core.Window, agg core.Agg, desc bool) []*float64 {
	t.Helper()
	if desc {
		vals = slices.Clone(vals)
		slices.Reverse(vals)
	}
	naive := func(agg core.Agg, null float64, val func(float64) float64) []float64 {
		raw := make([]float64, len(vals))
		for i, v := range vals {
			raw[i] = null
			if v != nil {
				raw[i] = val(*v)
			}
		}
		seq, err := core.ComputeNaive(raw, w, agg)
		if err != nil {
			t.Fatal(err)
		}
		return seq.Body()
	}
	self := func(v float64) float64 { return v }
	present := naive(core.Sum, 0, func(float64) float64 { return 1 })
	var body []float64
	switch agg {
	case core.Count:
		body = present
	case core.Sum:
		body = naive(core.Sum, 0, self)
	case core.Avg:
		body = naive(core.Sum, 0, self)
		for i := range body {
			body[i] /= present[i]
		}
	case core.Min:
		body = naive(core.Min, math.Inf(1), self)
	case core.Max:
		body = naive(core.Max, math.Inf(-1), self)
	}
	out := make([]*float64, len(body))
	for i := range body {
		if agg == core.Count || present[i] > 0 {
			out[i] = &body[i]
		}
	}
	if desc {
		slices.Reverse(out)
	}
	return out
}

// TestDifferentialVectorizedBoundary drives full engine queries over the
// argument shapes the window kernels meet: NULLs mid-column, FLOAT columns,
// Int/Float-mixed arguments via CASE (the DECIMAL stand-in, coerced to
// FLOAT), and DESC order keys. Each answer must be bit-identical to the
// model, for sequential and partition-parallel execution.
func TestDifferentialVectorizedBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type btRow struct{ val, fval *float64 }
	// Each query lists, per output column, the argument of a row at 1-based
	// pos, the window and aggregate, and the ORDER BY direction.
	type column struct {
		arg  func(pos int, r btRow) *float64
		win  core.Window
		agg  core.Agg
		desc bool
	}
	val := func(_ int, r btRow) *float64 { return r.val }
	fval := func(_ int, r btRow) *float64 { return r.fval }
	queries := []struct {
		sql  string
		cols []column
	}{
		{`SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos) AS w,
		   MIN(fval) OVER (PARTITION BY grp ORDER BY pos) AS m FROM bt`,
			[]column{{val, core.Cumul(), core.Sum, false}, {fval, core.Cumul(), core.Min, false}}},
		{`SELECT grp, pos, AVG(fval) OVER (PARTITION BY grp ORDER BY pos DESC
		   ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM bt`,
			[]column{{fval, core.Sliding(2, 1), core.Avg, true}}},
		{`SELECT grp, pos, SUM(CASE WHEN pos < 5 THEN val ELSE fval END)
		   OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 2 FOLLOWING) AS w FROM bt`,
			[]column{{func(pos int, r btRow) *float64 {
				if pos < 5 {
					return r.val
				}
				return r.fval
			}, core.Sliding(1, 2), core.Sum, false}}},
		{`SELECT grp, pos, MAX(val) OVER (PARTITION BY grp ORDER BY pos DESC) AS w,
		   COUNT(val) OVER (PARTITION BY grp ORDER BY pos DESC) AS c FROM bt`,
			[]column{{val, core.Cumul(), core.Max, true}, {val, core.Cumul(), core.Count, true}}},
	}
	for trial := 0; trial < 8; trial++ {
		// Eighths keep every FLOAT sum and average exact.
		groups := make([][]btRow, 3)
		var tuples []string
		for g := range groups {
			for i, n := 1, 4+rng.Intn(12); i <= n; i++ {
				var r btRow
				vs, fs := "NULL", "NULL"
				if rng.Intn(4) != 0 { // NULLs mid-column
					v := float64(rng.Intn(100) - 50)
					r.val, vs = &v, fmt.Sprint(v)
				}
				if rng.Intn(5) != 0 {
					f := float64(rng.Intn(1000)-500) / 8
					r.fval, fs = &f, fmt.Sprint(f)
				}
				groups[g] = append(groups[g], r)
				tuples = append(tuples, fmt.Sprintf("('g%d', %d, %s, %s)", g, i, vs, fs))
			}
		}
		for qi, q := range queries {
			want := map[string][]*float64{} // "grp/pos" -> one value per column
			for g, rows := range groups {
				for _, c := range q.cols {
					args := make([]*float64, len(rows))
					for i, r := range rows {
						args[i] = c.arg(i+1, r)
					}
					for i, v := range modelWindow(t, args, c.win, c.agg, c.desc) {
						key := fmt.Sprintf("g%d/%d", g, i+1)
						want[key] = append(want[key], v)
					}
				}
			}
			for _, par := range []int{1, 4} {
				opts := DefaultOptions()
				opts.WindowParallelism = par
				e := New(opts)
				mustExec(t, e, `CREATE TABLE bt (grp VARCHAR(8), pos INTEGER, val INTEGER, fval FLOAT)`)
				mustExec(t, e, "INSERT INTO bt VALUES "+strings.Join(tuples, ", "))
				res := mustExec(t, e, q.sql)
				ctx := fmt.Sprintf("trial %d query %d parallel=%d", trial, qi, par)
				if len(res.Rows) != len(want) {
					t.Fatalf("%s: %d rows, model has %d", ctx, len(res.Rows), len(want))
				}
				for _, row := range res.Rows {
					key := fmt.Sprintf("%s/%d", row[0], row[1].Int())
					for ci, w := range want[key] {
						got := row[2+ci]
						if got.IsNull() != (w == nil) || (w != nil && math.Float64bits(got.Float()) != math.Float64bits(*w)) {
							t.Fatalf("%s: %s column %d = %v, model says %v", ctx, key, ci, got, fmtPtr(w))
						}
					}
				}
				e.Close()
			}
		}
	}
}

func fmtPtr(v *float64) string {
	if v == nil {
		return "NULL"
	}
	return fmt.Sprint(*v)
}

// TestExplainAnalyzeVectorized: EXPLAIN ANALYZE names the in-memory sort path
// a Sort or Window took — typed for fixed-width keys, a NaN among them — and
// the stats behind the metrics gauges move with it.
func TestExplainAnalyzeVectorized(t *testing.T) {
	e := New(DefaultOptions())
	defer e.Close()
	loadSeq(t, e, 10, func(i int) int64 { return int64(i) })
	res, err := e.ExecContext(context.Background(),
		`EXPLAIN ANALYZE SELECT pos, SUM(val) OVER (ORDER BY pos) AS w FROM seq ORDER BY pos DESC`)
	if err != nil {
		t.Fatal(err)
	}
	// Under RFVIEW_TEST_MEM_BUDGET the top-level Sort goes external and only
	// the Window carries the annotation.
	if !strings.Contains(res.Plan, "sort=typed") {
		t.Fatalf("EXPLAIN ANALYZE must show sort=typed:\n%s", res.Plan)
	}
	if e.winStats.TypedSorts.Load() == 0 {
		t.Fatal("the typed sort did not count")
	}

	typed := e.winStats.TypedSorts.Load()
	res, err = e.ExecContext(context.Background(),
		`EXPLAIN ANALYZE SELECT pos, SUM(val) OVER (ORDER BY CASE WHEN pos < 5 THEN pos ELSE 1e308 * 10.0 - 1e308 * 10.0 END) AS w FROM seq`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "sort=typed") {
		t.Fatalf("EXPLAIN ANALYZE must show sort=typed on a NaN key:\n%s", res.Plan)
	}
	if e.winStats.TypedSorts.Load() == typed {
		t.Fatal("the typed sort over a NaN key did not count")
	}
}

// TestWindowNonNumericArguments pins what each window function answers over
// arguments that are not INTEGER or FLOAT. COUNT counts the non-NULL values
// of any argument, a mix of types included. SUM and AVG over DATE read day
// numbers (SUM an INTEGER, AVG their FLOAT mean), over VARCHAR they are an
// error. MIN/MAX order a DATE or VARCHAR argument, and every function but
// COUNT refuses a mix of a non-numeric type with others.
func TestWindowNonNumericArguments(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, `CREATE TABLE nn (k INTEGER, s VARCHAR(8), d DATE)`)
	mustExec(t, e, `INSERT INTO nn VALUES (1, 'b', DATE '1970-01-02'), (2, NULL, DATE '1970-01-05'), (3, 'a', NULL)`)
	const frame = ` OVER (ORDER BY k ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) FROM nn ORDER BY k`
	for _, c := range []struct{ sel, want string }{
		{`COUNT(CASE WHEN k < 2 THEN 'x' ELSE k END)`, "1 2 2"},
		{`COUNT(CASE WHEN k = 2 THEN NULL WHEN k < 2 THEN 'x' ELSE k END)`, "1 1 1"},
		{`COUNT(s)`, "1 1 1"},
		{`SUM(d)`, "1 5 4"},
		{`AVG(d)`, "1 2.5 4"},
		{`MIN(d)`, "1970-01-02 1970-01-02 1970-01-05"},
		{`MAX(s)`, "b b a"},
	} {
		res := mustExec(t, e, `SELECT `+c.sel+frame)
		var got []string
		for _, r := range res.Rows {
			got = append(got, r[0].String())
		}
		if g := strings.Join(got, " "); g != c.want {
			t.Errorf("%s: got %s, want %s", c.sel, g, c.want)
		}
	}
	for _, sel := range []string{
		`SUM(s)`, `AVG(s)`,
		`SUM(CASE WHEN k < 2 THEN 'x' ELSE k END)`,
		`AVG(CASE WHEN k < 2 THEN 'x' ELSE k END)`,
		`MIN(CASE WHEN k < 2 THEN 'x' ELSE k END)`,
		`MAX(CASE WHEN k < 2 THEN d ELSE k END)`,
	} {
		if _, err := e.Exec(`SELECT ` + sel + frame); err == nil {
			t.Errorf("%s: want an error", sel)
		}
	}
}
