package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"rfview/internal/paper"
	"rfview/internal/sqltypes"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	return New(DefaultOptions())
}

func mustExec(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func mustExecAll(t *testing.T, e *Engine, sql string) {
	t.Helper()
	if _, err := e.ExecAll(sql); err != nil {
		t.Fatalf("ExecAll: %v", err)
	}
}

// loadSeq creates seq(pos,val) with values val = f(pos).
func loadSeq(t *testing.T, e *Engine, n int, f func(int) int64) {
	t.Helper()
	mustExec(t, e, `CREATE TABLE seq (pos INTEGER, val INTEGER)`)
	var b strings.Builder
	b.WriteString("INSERT INTO seq (pos, val) VALUES ")
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d)", i, f(i))
	}
	mustExec(t, e, b.String())
}

func rowsToPairs(t *testing.T, rows []sqltypes.Row) map[int64]float64 {
	t.Helper()
	out := make(map[int64]float64, len(rows))
	for _, r := range rows {
		if len(r) < 2 {
			t.Fatalf("row too short: %v", r)
		}
		out[r[0].Int()] = r[1].Float()
	}
	return out
}

func TestBasicSelect(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 5, func(i int) int64 { return int64(i * 10) })
	res := mustExec(t, e, `SELECT pos, val FROM seq WHERE pos >= 2 AND pos <= 4 ORDER BY pos`)
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if res.Rows[0][0].Int() != 2 || res.Rows[2][1].Int() != 40 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "pos" || res.Columns[1] != "val" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestSelectExpressionsAndFunctions(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 4, func(i int) int64 { return int64(i) })
	res := mustExec(t, e, `SELECT pos * 2 + 1 AS a, MOD(pos, 2) AS b, ABS(0 - pos) AS c FROM seq ORDER BY pos`)
	if res.Rows[3][0].Int() != 9 || res.Rows[2][1].Int() != 1 || res.Rows[1][2].Int() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustExec(t, e, `SELECT COALESCE(NULL, 7) AS x`)
	if res.Rows[0][0].Int() != 7 {
		t.Fatalf("coalesce = %v", res.Rows)
	}
	res = mustExec(t, e, `SELECT CASE WHEN 1 = 2 THEN 'a' WHEN 2 = 2 THEN 'b' ELSE 'c' END AS x`)
	if res.Rows[0][0].Str() != "b" {
		t.Fatalf("case = %v", res.Rows)
	}
}

func TestGroupByHaving(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 10, func(i int) int64 { return int64(i) })
	res := mustExec(t, e, `SELECT MOD(pos, 3) AS g, SUM(val) AS s, COUNT(*) AS c
	                       FROM seq GROUP BY MOD(pos, 3) HAVING COUNT(*) > 3 ORDER BY g`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// g=1: positions 1,4,7,10 → sum 22, count 4.
	if res.Rows[0][0].Int() != 1 || res.Rows[0][1].Int() != 22 || res.Rows[0][2].Int() != 4 {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, `CREATE TABLE t (a INTEGER)`)
	res := mustExec(t, e, `SELECT COUNT(*) AS c, SUM(a) AS s FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestJoins(t *testing.T) {
	e := newEngine(t)
	mustExecAll(t, e, `
	  CREATE TABLE a (id INTEGER, x INTEGER);
	  CREATE TABLE b (id INTEGER, y INTEGER);
	  INSERT INTO a VALUES (1, 10), (2, 20), (3, 30);
	  INSERT INTO b VALUES (1, 100), (3, 300), (4, 400);
	`)
	res := mustExec(t, e, `SELECT a.id, a.x, b.y FROM a JOIN b ON a.id = b.id ORDER BY a.id`)
	if len(res.Rows) != 2 || res.Rows[1][2].Int() != 300 {
		t.Fatalf("inner join rows = %v", res.Rows)
	}
	res = mustExec(t, e, `SELECT a.id, b.y FROM a LEFT OUTER JOIN b ON a.id = b.id ORDER BY a.id`)
	if len(res.Rows) != 3 {
		t.Fatalf("left join rows = %v", res.Rows)
	}
	if !res.Rows[1][1].IsNull() {
		t.Fatalf("unmatched left row should carry NULL: %v", res.Rows[1])
	}
	res = mustExec(t, e, `SELECT a.id, b.id FROM a, b WHERE a.id < b.id ORDER BY a.id, b.id`)
	if len(res.Rows) != 5 { // (1,3) (1,4) (2,3) (2,4) (3,4)
		t.Fatalf("theta join rows = %v", res.Rows)
	}
}

func TestDerivedTableAndUnion(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 6, func(i int) int64 { return int64(i) })
	res := mustExec(t, e, `SELECT d.v FROM (SELECT val * 2 AS v FROM seq WHERE pos <= 2) AS d ORDER BY d.v`)
	if len(res.Rows) != 2 || res.Rows[1][0].Int() != 4 {
		t.Fatalf("derived rows = %v", res.Rows)
	}
	res = mustExec(t, e, `SELECT pos FROM seq WHERE pos <= 2 UNION ALL SELECT pos FROM seq WHERE pos <= 3 ORDER BY pos`)
	if len(res.Rows) != 5 {
		t.Fatalf("union all rows = %v", res.Rows)
	}
	res = mustExec(t, e, `SELECT pos FROM seq WHERE pos <= 2 UNION SELECT pos FROM seq WHERE pos <= 3 ORDER BY pos`)
	if len(res.Rows) != 3 {
		t.Fatalf("union distinct rows = %v", res.Rows)
	}
	res = mustExec(t, e, `SELECT DISTINCT MOD(pos, 2) AS m FROM seq ORDER BY m`)
	if len(res.Rows) != 2 {
		t.Fatalf("distinct rows = %v", res.Rows)
	}
	res = mustExec(t, e, `SELECT pos FROM seq ORDER BY pos DESC LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 6 {
		t.Fatalf("limit rows = %v", res.Rows)
	}
}

func TestDML(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, `CREATE TABLE t (a INTEGER, b VARCHAR(10))`)
	res := mustExec(t, e, `INSERT INTO t VALUES (1, 'x'), (2, 'y')`)
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	mustExec(t, e, `UPDATE t SET b = 'z' WHERE a = 2`)
	r := mustExec(t, e, `SELECT b FROM t WHERE a = 2`)
	if r.Rows[0][0].Str() != "z" {
		t.Fatalf("update lost: %v", r.Rows)
	}
	mustExec(t, e, `DELETE FROM t WHERE a = 1`)
	r = mustExec(t, e, `SELECT COUNT(*) AS c FROM t`)
	if r.Rows[0][0].Int() != 1 {
		t.Fatalf("delete lost: %v", r.Rows)
	}
	// INSERT … SELECT.
	mustExec(t, e, `CREATE TABLE t2 (a INTEGER, b VARCHAR(10))`)
	mustExec(t, e, `INSERT INTO t2 SELECT a, b FROM t`)
	r = mustExec(t, e, `SELECT COUNT(*) AS c FROM t2`)
	if r.Rows[0][0].Int() != 1 {
		t.Fatalf("insert-select lost: %v", r.Rows)
	}
}

func TestUniqueIndexEnforcement(t *testing.T) {
	e := newEngine(t)
	mustExecAll(t, e, `
	  CREATE TABLE t (a INTEGER);
	  CREATE UNIQUE INDEX t_pk ON t (a);
	  INSERT INTO t VALUES (1);
	`)
	if _, err := e.Exec(`INSERT INTO t VALUES (1)`); err == nil {
		t.Fatal("duplicate insert should fail")
	}
}

// TestWindowMatchesCore: the native Window operator agrees with the core
// sequence algebra for the paper's window shapes.
func TestWindowMatchesCore(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(7))
	n := 60
	vals := make([]int64, n+1)
	loadSeq(t, e, n, func(i int) int64 {
		vals[i] = int64(rng.Intn(100) - 50)
		return vals[i]
	})
	cases := []struct {
		frame string
		calc  func(k int) float64
	}{
		{"ROWS UNBOUNDED PRECEDING", func(k int) float64 {
			s := 0.0
			for j := 1; j <= k; j++ {
				s += float64(vals[j])
			}
			return s
		}},
		{"ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING", func(k int) float64 {
			s := 0.0
			for j := k - 1; j <= k+1; j++ {
				if j >= 1 && j <= n {
					s += float64(vals[j])
				}
			}
			return s
		}},
		{"ROWS BETWEEN CURRENT ROW AND 6 FOLLOWING", func(k int) float64 {
			s := 0.0
			for j := k; j <= k+6; j++ {
				if j >= 1 && j <= n {
					s += float64(vals[j])
				}
			}
			return s
		}},
		{"ROWS BETWEEN 3 PRECEDING AND CURRENT ROW", func(k int) float64 {
			s := 0.0
			for j := k - 3; j <= k; j++ {
				if j >= 1 && j <= n {
					s += float64(vals[j])
				}
			}
			return s
		}},
	}
	for _, c := range cases {
		q := fmt.Sprintf(`SELECT pos, SUM(val) OVER (ORDER BY pos %s) AS w FROM seq`, c.frame)
		res := mustExec(t, e, q)
		if len(res.Rows) != n {
			t.Fatalf("%s: %d rows", c.frame, len(res.Rows))
		}
		got := rowsToPairs(t, res.Rows)
		for k := 1; k <= n; k++ {
			if math.Abs(got[int64(k)]-c.calc(k)) > 1e-9 {
				t.Fatalf("%s at pos %d: got %v want %v", c.frame, k, got[int64(k)], c.calc(k))
			}
		}
	}
}

func TestWindowMinMaxAvgCount(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(9))
	n := 40
	vals := make([]int64, n+1)
	loadSeq(t, e, n, func(i int) int64 {
		vals[i] = int64(rng.Intn(100) - 50)
		return vals[i]
	})
	res := mustExec(t, e, `SELECT pos,
	    MIN(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS mn,
	    MAX(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS mx,
	    AVG(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS av,
	    COUNT(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS ct
	  FROM seq`)
	for _, r := range res.Rows {
		k := int(r[0].Int())
		mn, mx, sum, ct := math.Inf(1), math.Inf(-1), 0.0, 0
		for j := k - 2; j <= k+1; j++ {
			if j >= 1 && j <= n {
				v := float64(vals[j])
				mn = math.Min(mn, v)
				mx = math.Max(mx, v)
				sum += v
				ct++
			}
		}
		if r[1].Float() != mn || r[2].Float() != mx || r[4].Int() != int64(ct) {
			t.Fatalf("pos %d: %v (want mn=%v mx=%v ct=%d)", k, r, mn, mx, ct)
		}
		if math.Abs(r[3].Float()-sum/float64(ct)) > 1e-9 {
			t.Fatalf("pos %d avg: %v want %v", k, r[3].Float(), sum/float64(ct))
		}
	}
}

// TestWindowPartitionBy checks per-partition frame resets — the paper's
// cumulative-sum-per-month example in miniature.
func TestWindowPartitionBy(t *testing.T) {
	e := newEngine(t)
	mustExecAll(t, e, `
	  CREATE TABLE tx (grp INTEGER, pos INTEGER, amt INTEGER);
	  INSERT INTO tx VALUES (1, 1, 10), (1, 2, 20), (2, 3, 5), (2, 4, 7), (1, 5, 30);
	`)
	res := mustExec(t, e, `SELECT pos, SUM(amt) OVER (PARTITION BY grp ORDER BY pos ROWS UNBOUNDED PRECEDING) AS cum FROM tx ORDER BY pos`)
	want := map[int64]int64{1: 10, 2: 30, 3: 5, 4: 12, 5: 60}
	for _, r := range res.Rows {
		if r[1].Int() != want[r[0].Int()] {
			t.Fatalf("pos %d: cum %d want %d", r[0].Int(), r[1].Int(), want[r[0].Int()])
		}
	}
}

// TestSelfJoinSimulationMatchesNative — Table 1's two strategies must agree.
func TestSelfJoinSimulationMatchesNative(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(21))
	loadSeq(t, e, 50, func(int) int64 { return int64(rng.Intn(100)) })
	queries := []string{
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) AS w FROM seq`,
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS w FROM seq`,
		`SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS w FROM seq`,
		`SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
	}
	for _, q := range queries {
		rn := mustExec(t, e, q)
		rs := execSelfJoin(t, e, q)
		gn, gs := rowsToPairs(t, rn.Rows), rowsToPairs(t, rs.Rows)
		if len(gn) != len(gs) {
			t.Fatalf("%s: cardinality %d vs %d", q, len(gn), len(gs))
		}
		for k, v := range gn {
			if math.Abs(gs[k]-v) > 1e-9 {
				t.Fatalf("%s at pos %d: native %v selfjoin %v", q, k, v, gs[k])
			}
		}
	}
}

// TestDerivationMatchesNative — the four Table 2 strategies must all agree
// with native evaluation over raw data.
func TestDerivationMatchesNative(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 80
	vals := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		vals = append(vals, int64(rng.Intn(100)-50))
	}
	build := func(opts Options) *Engine {
		e := New(opts)
		loadSeq(t, e, n, func(i int) int64 { return vals[i-1] })
		mustExec(t, e, `CREATE UNIQUE INDEX seq_pk ON seq (pos)`)
		mustExec(t, e, `CREATE MATERIALIZED VIEW matseq AS
		  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq`)
		return e
	}
	nativeOpts := DefaultOptions()
	nativeOpts.UseMatViews = false
	native := build(nativeOpts)

	queries := []string{
		// The paper's running example (3,1) from (2,1) (Δl=1, Δh=0).
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
		// Double-sided (3,2) (Δl=1, Δh=1).
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) AS w FROM seq`,
		// Exact window match.
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
		// Narrower window — only MinOA can do this.
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
	}
	derived := build(DefaultOptions())
	for _, strat := range []paper.Strategy{paper.StrategyAuto, paper.StrategyMaxOA, paper.StrategyMinOA} {
		for _, form := range []paper.Form{paper.FormDisjunctive, paper.FormUnion} {
			for qi, q := range queries {
				if strat == paper.StrategyMaxOA && qi == 3 {
					continue // MaxOA cannot narrow a window
				}
				rn := mustExec(t, native, q)
				rd := execDerived(t, derived, q, strat, form, n)
				gn, gd := rowsToPairs(t, rn.Rows), rowsToPairs(t, rd.Rows)
				if len(gd) != len(gn) {
					t.Fatalf("strat=%v form=%v q%d: cardinality %d vs %d", strat, form, qi, len(gd), len(gn))
				}
				for k, v := range gn {
					if math.Abs(gd[k]-v) > 1e-9 {
						t.Fatalf("strat=%v form=%v q%d pos %d: native %v derived %v",
							strat, form, qi, k, v, gd[k])
					}
				}
				if qi != 3 && rd.Derivation == nil {
					t.Fatalf("strat=%v form=%v q%d: expected a derivation rewrite", strat, form, qi)
				}
			}
		}
	}
}

// TestDerivationFromCumulativeView — §3.1: sliding windows from a
// materialized cumulative view.
func TestDerivationFromCumulativeView(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	n := 60
	vals := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		vals = append(vals, int64(rng.Intn(60)-30))
	}
	build := func(useViews bool) *Engine {
		opts := DefaultOptions()
		opts.UseMatViews = useViews
		e := New(opts)
		loadSeq(t, e, n, func(i int) int64 { return vals[i-1] })
		if useViews {
			mustExec(t, e, `CREATE MATERIALIZED VIEW cumview AS
			  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS val FROM seq`)
		}
		return e
	}
	native, derived := build(false), build(true)
	q := `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 3 FOLLOWING) AS w FROM seq`
	rn, rd := mustExec(t, native, q), mustExec(t, derived, q)
	if rd.Derivation == nil {
		t.Fatal("expected derivation from the cumulative view")
	}
	gn, gd := rowsToPairs(t, rn.Rows), rowsToPairs(t, rd.Rows)
	for k, v := range gn {
		if math.Abs(gd[k]-v) > 1e-9 {
			t.Fatalf("pos %d: native %v derived %v", k, v, gd[k])
		}
	}
}

// TestDerivationOfOneRowFrame — a frame of the current row alone is the window
// (0,0), narrower than any view: MinOA over a sliding view (negative Δ on both
// sides) and §3.1 over a cumulative one answer it with the raw values, in
// either spelling of the frame.
func TestDerivationOfOneRowFrame(t *testing.T) {
	const n = 40
	val := func(i int) int64 { return int64(i*i%17 - 8) }
	for _, view := range []string{"ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING", "ROWS UNBOUNDED PRECEDING"} {
		e := New(DefaultOptions())
		loadSeq(t, e, n, val)
		mustExec(t, e, `CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER (ORDER BY pos `+view+`) AS val FROM seq`)
		for _, frame := range []string{"ROWS BETWEEN CURRENT ROW AND CURRENT ROW", "ROWS BETWEEN 0 PRECEDING AND 0 FOLLOWING"} {
			res := execServed(t, e, `SELECT pos, SUM(val) OVER (ORDER BY pos `+frame+`) AS w FROM seq`, n)
			if res.Derivation == nil {
				t.Fatalf("view %s, frame %s: not derived", view, frame)
			}
			got := rowsToPairs(t, res.Rows)
			if len(got) != n {
				t.Fatalf("view %s, frame %s: %d rows, want %d", view, frame, len(got), n)
			}
			for k := 1; k <= n; k++ {
				if got[int64(k)] != float64(val(k)) {
					t.Fatalf("view %s, frame %s: pos %d = %v, want %d", view, frame, k, got[int64(k)], val(k))
				}
			}
		}
	}
}

// TestDerivationMinMax — §4.2: MIN/MAX derivation via MaxOA.
func TestDerivationMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	n := 50
	vals := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		vals = append(vals, int64(rng.Intn(200)-100))
	}
	for _, agg := range []string{"MIN", "MAX"} {
		build := func(useViews bool) *Engine {
			opts := DefaultOptions()
			opts.UseMatViews = useViews
			e := New(opts)
			loadSeq(t, e, n, func(i int) int64 { return vals[i-1] })
			if useViews {
				mustExec(t, e, fmt.Sprintf(`CREATE MATERIALIZED VIEW mm AS
				  SELECT pos, %s(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM seq`, agg))
			}
			return e
		}
		native, derived := build(false), build(true)
		q := fmt.Sprintf(`SELECT pos, %s(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING AND 3 FOLLOWING) AS w FROM seq`, agg)
		rn, rd := mustExec(t, native, q), mustExec(t, derived, q)
		if rd.Derivation == nil {
			t.Fatalf("%s: expected MIN/MAX derivation", agg)
		}
		gn, gd := rowsToPairs(t, rn.Rows), rowsToPairs(t, rd.Rows)
		for k, v := range gn {
			if gd[k] != v {
				t.Fatalf("%s pos %d: native %v derived %v", agg, k, v, gd[k])
			}
		}
	}
}

// TestViewMaintainedThroughDML — §2.3 wired through SQL: updates, appends,
// and suffix deletes maintain the view; derivations stay correct.
func TestViewMaintainedThroughDML(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 30, func(i int) int64 { return int64(i) })
	mustExec(t, e, `CREATE MATERIALIZED VIEW mv AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq`)

	check := func(ctx string) {
		t.Helper()
		q := `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`
		rd := mustExec(t, e, q)
		if rd.Derivation == nil {
			t.Fatalf("%s: derivation did not fire", ctx)
		}
		noViews := New(Options{})
		noViews.Cat = e.Cat // same data, no view matching
		rn, err := noViews.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		gn, gd := rowsToPairs(t, rn.Rows), rowsToPairs(t, rd.Rows)
		if len(gn) != len(gd) {
			t.Fatalf("%s: cardinality %d vs %d", ctx, len(gn), len(gd))
		}
		for k, v := range gn {
			if math.Abs(gd[k]-v) > 1e-9 {
				t.Fatalf("%s pos %d: native %v derived %v", ctx, k, v, gd[k])
			}
		}
	}

	check("initial")
	mustExec(t, e, `UPDATE seq SET val = 99 WHERE pos = 10`)
	check("after update")
	mustExec(t, e, `INSERT INTO seq VALUES (31, 500)`)
	check("after append")
	mustExec(t, e, `DELETE FROM seq WHERE pos = 31`)
	check("after suffix delete")
	if e.Views.Stale("mv") {
		t.Fatal("view should still be fresh")
	}
	if e.Views.Stats().MaintenanceEvents.Load() == 0 {
		t.Fatal("incremental maintenance should have fired")
	}

	// A non-append insert makes the view stale; queries error until REFRESH.
	mustExec(t, e, `DELETE FROM seq WHERE pos = 15`)
	if !e.Views.Stale("mv") {
		t.Fatal("middle delete must mark the view stale")
	}
	if _, err := e.Exec(`SELECT pos, val FROM mv`); err == nil {
		t.Fatal("querying a stale view must fail")
	}
	// Make the base dense again, then refresh.
	mustExec(t, e, `UPDATE seq SET pos = 15 WHERE pos = 30`)
	mustExec(t, e, `REFRESH MATERIALIZED VIEW mv`)
	if e.Views.Stale("mv") {
		t.Fatal("refresh must clear staleness")
	}
	check("after refresh")
}

func TestExplain(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 10, func(i int) int64 { return int64(i) })
	mustExec(t, e, `CREATE UNIQUE INDEX seq_pk ON seq (pos)`)
	res := mustExec(t, e, `EXPLAIN SELECT s1.pos, SUM(s2.val) AS w FROM seq s1, seq s2
	  WHERE s1.pos IN (s2.pos - 1, s2.pos, s2.pos + 1) GROUP BY s1.pos`)
	if !strings.Contains(res.Plan, "IndexNestedLoopJoin") {
		t.Fatalf("expected index join in plan:\n%s", res.Plan)
	}
	if !strings.Contains(res.Plan, "HashAggregate") {
		t.Fatalf("expected aggregation in plan:\n%s", res.Plan)
	}
}

func TestEngineErrors(t *testing.T) {
	e := newEngine(t)
	cases := []string{
		`SELECT * FROM missing`,
		`SELECT nope FROM missing`,
		`INSERT INTO missing VALUES (1)`,
		`UPDATE missing SET a = 1`,
		`DELETE FROM missing`,
		`DROP TABLE missing`,
		`DROP MATERIALIZED VIEW missing`,
		`REFRESH MATERIALIZED VIEW missing`,
		`CREATE INDEX i ON missing (a)`,
	}
	for _, q := range cases {
		if _, err := e.Exec(q); err == nil {
			t.Errorf("Exec(%q) should fail", q)
		}
	}
	mustExec(t, e, `CREATE TABLE t (a INTEGER)`)
	if _, err := e.Exec(`SELECT b FROM t`); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := e.Exec(`INSERT INTO t (b) VALUES (1)`); err == nil {
		t.Error("insert into unknown column should fail")
	}
	if _, err := e.Exec(`INSERT INTO t VALUES (1, 2)`); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := e.Exec(`SELECT a FROM t UNION SELECT a, a FROM t`); err == nil {
		t.Error("union arity mismatch should fail")
	}
}

// TestSequenceViewValidation — density and shape checks at creation time.
func TestSequenceViewValidation(t *testing.T) {
	e := newEngine(t)
	mustExecAll(t, e, `
	  CREATE TABLE gaps (pos INTEGER, val INTEGER);
	  INSERT INTO gaps VALUES (1, 10), (3, 30);
	`)
	err := func() error {
		_, err := e.Exec(`CREATE MATERIALIZED VIEW g AS
		  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM gaps`)
		return err
	}()
	if err == nil || !strings.Contains(err.Error(), "dense") {
		t.Fatalf("gap positions must be rejected: %v", err)
	}
}

// TestPlainMatView — non-sequence view materialization and refresh.
func TestPlainMatView(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 10, func(i int) int64 { return int64(i) })
	mustExec(t, e, `CREATE MATERIALIZED VIEW totals AS
	  SELECT MOD(pos, 2) AS par, SUM(val) AS s FROM seq GROUP BY MOD(pos, 2)`)
	res := mustExec(t, e, `SELECT par, s FROM totals ORDER BY par`)
	if len(res.Rows) != 2 || res.Rows[0][1].Int() != 30 || res.Rows[1][1].Int() != 25 {
		t.Fatalf("plain view rows = %v", res.Rows)
	}
	// Snapshots don't see base changes until refresh.
	mustExec(t, e, `UPDATE seq SET val = 100 WHERE pos = 2`)
	res = mustExec(t, e, `SELECT s FROM totals WHERE par = 0`)
	if res.Rows[0][0].Int() != 30 {
		t.Fatalf("plain view must be a snapshot: %v", res.Rows)
	}
	mustExec(t, e, `REFRESH MATERIALIZED VIEW totals`)
	res = mustExec(t, e, `SELECT s FROM totals WHERE par = 0`)
	if res.Rows[0][0].Int() != 128 {
		t.Fatalf("refreshed view rows = %v", res.Rows)
	}
	// A plain view's query may read a sequence view, by name or derived from
	// it: its CREATE and REFRESH check that view's freshness as they run.
	mustExec(t, e, `CREATE MATERIALIZED VIEW sv AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM seq`)
	for _, sql := range []string{
		`CREATE MATERIALIZED VIEW byname AS SELECT pos, val FROM sv`,
		`CREATE MATERIALIZED VIEW derived AS
		  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS w FROM seq ORDER BY pos LIMIT 3`,
		`REFRESH MATERIALIZED VIEW byname`,
		`REFRESH MATERIALIZED VIEW derived`,
	} {
		done := make(chan error, 1)
		go func() {
			_, err := e.Exec(sql)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return", sql)
		}
	}
	if res := mustExec(t, e, `SELECT COUNT(*) AS c FROM byname`); res.Rows[0][0].Int() != 12 {
		t.Fatalf("byname holds %v rows, want the 12 of sv", res.Rows[0][0])
	}
}

// TestOrderByStability checks NULLs-first ordering and DESC.
func TestOrderBySemantics(t *testing.T) {
	e := newEngine(t)
	mustExecAll(t, e, `
	  CREATE TABLE t (a INTEGER, b INTEGER);
	  INSERT INTO t (a, b) VALUES (3, 1), (1, 2), (2, 3);
	  INSERT INTO t (b) VALUES (4);
	`)
	res := mustExec(t, e, `SELECT a FROM t ORDER BY a`)
	if !res.Rows[0][0].IsNull() || res.Rows[1][0].Int() != 1 {
		t.Fatalf("NULLs must sort first: %v", res.Rows)
	}
	res = mustExec(t, e, `SELECT a FROM t ORDER BY a DESC`)
	if res.Rows[0][0].Int() != 3 || !res.Rows[3][0].IsNull() {
		t.Fatalf("DESC order wrong: %v", res.Rows)
	}
}

// TestIntroQueryEndToEnd runs the paper's introduction query (adapted) over
// a small generated credit-card workload.
func TestIntroQueryEndToEnd(t *testing.T) {
	e := newEngine(t)
	mustExecAll(t, e, `
	  CREATE TABLE c_transactions (c_custid INTEGER, c_locid INTEGER, c_date DATE, c_transaction INTEGER);
	  CREATE TABLE l_locations (l_locid INTEGER, l_city VARCHAR(20), l_region VARCHAR(20));
	  INSERT INTO l_locations VALUES (1, 'Erlangen', 'Bavaria'), (2, 'Dresden', 'Saxony');
	  INSERT INTO c_transactions VALUES
	    (4711, 1, DATE '2001-01-05', 100),
	    (4711, 1, DATE '2001-01-20', 50),
	    (4711, 2, DATE '2001-02-03', 70),
	    (4711, 2, DATE '2001-02-14', 30),
	    (4711, 1, DATE '2001-03-02', 20),
	    (9999, 1, DATE '2001-01-06', 999);
	`)
	res := mustExec(t, e, `
	  SELECT c_date, c_transaction,
	    SUM(c_transaction) OVER (ORDER BY c_date ROWS UNBOUNDED PRECEDING) AS cum_sum_total,
	    SUM(c_transaction) OVER (PARTITION BY MONTH(c_date) ORDER BY c_date ROWS UNBOUNDED PRECEDING) AS cum_sum_month,
	    AVG(c_transaction) OVER (PARTITION BY MONTH(c_date), l_region ORDER BY c_date
	                             ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS c_3mvg_avg,
	    AVG(c_transaction) OVER (ORDER BY c_date ROWS BETWEEN CURRENT ROW AND 6 FOLLOWING) AS c_7mvg_avg
	  FROM c_transactions, l_locations
	  WHERE c_locid = l_locid AND c_custid = 4711
	  ORDER BY c_date`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Cumulative total over dates: 100, 150, 220, 250, 270.
	wantCum := []int64{100, 150, 220, 250, 270}
	for i, r := range res.Rows {
		if r[2].Int() != wantCum[i] {
			t.Fatalf("cum_sum_total[%d] = %v, want %d", i, r[2], wantCum[i])
		}
	}
	// Monthly cumulative resets: Jan 100,150; Feb 70,100; Mar 20.
	wantMonth := []int64{100, 150, 70, 100, 20}
	for i, r := range res.Rows {
		if r[3].Int() != wantMonth[i] {
			t.Fatalf("cum_sum_month[%d] = %v, want %d", i, r[3], wantMonth[i])
		}
	}
}

// TestMultisetsEqual guards the helper used across benchmarks: results may
// arrive in any order; compare sorted.
func TestResultOrderIndependence(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 10, func(i int) int64 { return int64(i) })
	res := mustExec(t, e, `SELECT pos FROM seq`)
	got := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = r[0].Int()
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("positions = %v", got)
		}
	}
}
