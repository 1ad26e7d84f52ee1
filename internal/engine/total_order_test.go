package engine

import (
	"fmt"
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

// TestIndexProbesAcrossTypes probes an INTEGER index with FLOAT, VARCHAR and
// BOOLEAN keys: through the index join, an IN-list of computed keys and an
// UPDATE's point lookup, each answer equals the same statement's without the
// index. 2⁵³+1 is no INTEGER image of the FLOAT 2⁵³, so the index must keep
// numbers exact across the two types; FALSE encodes as a prefix of 0's
// bytes, so a key of a type the column cannot compare with must not probe.
func TestIndexProbesAcrossTypes(t *testing.T) {
	queries := []string{
		`SELECT a.k, a.v FROM a JOIN b ON a.k = b.f ORDER BY a.k`,
		`SELECT a.k, a.v FROM a JOIN b ON a.k = b.s ORDER BY a.k`,
		`SELECT a.k, a.v FROM a JOIN b ON a.k IN (b.f, b.f + 1) ORDER BY a.k`,
		`SELECT a.k, a.v FROM a JOIN b ON a.k = b.t ORDER BY a.k`,
		`UPDATE a SET v = 99 WHERE k = 2.0`,
		`SELECT k, v FROM a ORDER BY k`,
	}
	answers := func(indexed bool) []string {
		e := New(DefaultOptions())
		defer e.Close()
		mustExecAll(t, e, `CREATE TABLE a (k INTEGER, v INTEGER);
			INSERT INTO a VALUES (0, 0), (1, 1), (2, 2), (9007199254740993, 3);
			CREATE TABLE b (f FLOAT, s VARCHAR, t BOOLEAN);
			INSERT INTO b VALUES (2.0, '2', FALSE), (2.5, '2.5', TRUE), (9007199254740992.0, '9007199254740993', NULL)`)
		if indexed {
			mustExec(t, e, `CREATE UNIQUE INDEX a_k ON a (k)`)
			for _, q := range queries[:4] {
				if plan := mustExec(t, e, `EXPLAIN `+q).Plan; !strings.Contains(plan, "IndexNestedLoopJoin") {
					t.Errorf("%s: plan\n%s", q, plan)
				}
			}
		}
		var got []string
		for _, q := range queries {
			got = append(got, fmt.Sprint(mustExec(t, e, q).Rows))
		}
		return got
	}
	indexed, scanned := answers(true), answers(false)
	for i, q := range queries {
		if indexed[i] != scanned[i] {
			t.Errorf("%s: %s through the index, %s without it", q, indexed[i], scanned[i])
		}
	}
	if want := "[(2, 2)]"; indexed[0] != want || indexed[1] != "[]" || indexed[2] != want || indexed[3] != "[]" {
		t.Errorf("joins answer %v, want %s, [], %s and []", indexed[:4], want, want)
	}
}
