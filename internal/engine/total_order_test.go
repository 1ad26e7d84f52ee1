package engine

import (
	"math"
	"strings"
	"testing"

	"rfview/internal/core"
	"rfview/internal/sqltypes"
)

// These tests hold every comparison of SQL values to one total order,
// sqltypes.Compare's: −0.0 equals +0.0, a NaN equals a NaN and sorts above
// every number. WHERE, ORDER BY, DISTINCT, GROUP BY, the hash join, window
// partitioning and MIN/MAX — native, derived, stored in a view and in
// core.ComputeNaive — answer alike. SQL has no NaN literal: ∞ − ∞ makes one.

const nanSQL = "(1e308 * 10.0 - 1e308 * 10.0)"

// floats reads column c of every row as float64.
func floats(res *Result, c int) []float64 {
	out := make([]float64, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[c].Float()
	}
	return out
}

// sameFloats compares float slices bit for bit, any NaN matching any NaN.
func sameFloats(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return false
		}
	}
	return true
}

func TestTotalOrderNaN(t *testing.T) {
	e := New(DefaultOptions())
	defer e.Close()
	mustExec(t, e, `CREATE TABLE t (pos INTEGER, val FLOAT)`)
	mustExec(t, e, `INSERT INTO t VALUES (1, 5.0), (2, `+nanSQL+`), (3, 7.0), (4, 2.0)`)
	nan := math.NaN()
	for _, c := range []struct {
		q    string
		want []float64
	}{
		{`SELECT val FROM t WHERE val = 5.0`, []float64{5}},
		{`SELECT val FROM t WHERE val > 6.0 ORDER BY val DESC`, []float64{nan, 7}},
		{`SELECT val FROM t WHERE val = ` + nanSQL, []float64{nan}},
		{`SELECT val FROM t ORDER BY val`, []float64{2, 5, 7, nan}},
		{`SELECT val FROM t ORDER BY val DESC`, []float64{nan, 7, 5, 2}},
		{`SELECT COUNT(*) FROM t WHERE val BETWEEN 100.0 AND 200.0`, []float64{0}},
	} {
		if got := floats(mustExec(t, e, c.q), 0); !sameFloats(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.q, got, c.want)
		}
	}
}

func TestTotalOrderSignedZero(t *testing.T) {
	e := New(DefaultOptions())
	defer e.Close()
	mustExec(t, e, `CREATE TABLE z (k FLOAT, v INTEGER)`)
	mustExec(t, e, `INSERT INTO z VALUES (-0.0, 1), (0.0, 2)`)
	count := func(q string) int64 {
		t.Helper()
		res := mustExec(t, e, q)
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", q, len(res.Rows))
		}
		return res.Rows[0][0].Int()
	}
	for q, want := range map[string]int64{
		`SELECT COUNT(*) FROM (SELECT DISTINCT k FROM z) AS d`:                        1,
		`SELECT COUNT(*) FROM (SELECT k FROM z GROUP BY k) AS g`:                      1,
		`SELECT COUNT(*) FROM z a JOIN z b ON a.k = b.k`:                              4,
		`SELECT COUNT(*) FROM z WHERE k = 0.0`:                                        2,
		`SELECT COUNT(*) FROM z WHERE k = -0.0`:                                       2,
		`SELECT MIN(n) FROM (SELECT COUNT(*) OVER (PARTITION BY k) AS n FROM z) AS w`: 2,
	} {
		if got := count(q); got != want {
			t.Errorf("%s = %d, want %d", q, got, want)
		}
	}
	if plan := mustExec(t, e, `EXPLAIN SELECT COUNT(*) FROM z a JOIN z b ON a.k = b.k`).Plan; !strings.Contains(plan, "HashJoin") {
		t.Errorf("the join probe did not plan a hash join:\n%s", plan)
	}
}

// TestTotalOrderMinMaxNaN: MIN over a frame holding {5, NaN, 4} is 4 and MAX
// is NaN, natively, derived from a view, in the view's rows and in
// core.ComputeNaive.
func TestTotalOrderMinMaxNaN(t *testing.T) {
	raw := []float64{5, math.NaN(), 4}
	for _, agg := range []core.Agg{core.Min, core.Max} {
		want := 4.0
		if agg == core.Max {
			want = math.NaN()
		}
		ref, err := core.ComputeNaive(raw, core.Sliding(1, 1), agg)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := ref.AtOK(2); !sameFloats([]float64{got}, []float64{want}) {
			t.Errorf("core.ComputeNaive %v over {5, NaN, 4} = %v, want %v", agg, got, want)
		}
		win := agg.String() + `(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING)`
		for _, views := range []bool{false, true} {
			opts := DefaultOptions()
			opts.UseMatViews = views
			e := New(opts)
			mustExec(t, e, `CREATE TABLE s (pos INTEGER, val FLOAT)`)
			mustExec(t, e, `INSERT INTO s VALUES (1, 5.0), (2, `+nanSQL+`), (3, 4.0)`)
			mustExec(t, e, `CREATE MATERIALIZED VIEW mv AS SELECT pos, `+win+` AS val FROM s`)
			res := mustExec(t, e, `SELECT pos, `+win+` AS m FROM s ORDER BY pos`)
			if (res.Derivation != nil) != views {
				t.Fatalf("%s: derived=%v with views=%v", win, res.Derivation != nil, views)
			}
			if got := res.Rows[1][1].Float(); !sameFloats([]float64{got}, []float64{want}) {
				t.Errorf("%s (derived=%v) at pos 2 = %v, want %v", win, views, got, want)
			}
			if views {
				stored := mustExec(t, e, `SELECT pos, val FROM mv WHERE pos = 2`)
				if got := stored.Rows[0][1].Float(); !sameFloats([]float64{got}, []float64{want}) {
					t.Errorf("view %s stores %v at pos 2, want %v", agg, got, want)
				}
			}
			e.Close()
		}
	}
}

// TestSessionScriptKeepsNegativeZero: a script run through a session stores
// what it parsed: −0.0 keeps its sign.
func TestSessionScriptKeepsNegativeZero(t *testing.T) {
	e := New(DefaultOptions())
	defer e.Close()
	s := e.NewSession()
	defer s.Close()
	if _, err := s.ExecAll(`CREATE TABLE z (k FLOAT); BEGIN; INSERT INTO z VALUES (-0.0); COMMIT`); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, `SELECT k FROM z`)
	if k := res.Rows[0][0]; k.Typ() != sqltypes.Float || !math.Signbit(k.Float()) {
		t.Fatalf("stored %v, want -0", k)
	}
}
