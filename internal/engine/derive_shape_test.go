package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"rfview/internal/core"
)

// TestDerivedAnswersLikeNative: a statement a view answers returns what
// native evaluation of it returns — the same column names, rows, row order
// and row count — under ORDER BY and LIMIT and for an unaliased window item,
// and an ORDER BY key that names no output column leaves the statement to
// native evaluation. Output columns are named from the select list as
// written: an aggregate or window item without an alias is column_<i>,
// never a planner-internal name.
func TestDerivedAnswersLikeNative(t *testing.T) {
	load := func(useViews bool) *Engine {
		opts := DefaultOptions()
		opts.UseMatViews = useViews
		e := New(opts)
		t.Cleanup(func() { e.Close() })
		mustExec(t, e, `CREATE TABLE seq (pos INTEGER, val INTEGER, g INTEGER)`)
		mustExec(t, e, `INSERT INTO seq VALUES (1,4,0),(2,8,1),(3,1,0),(4,5,1),(5,0,0),(6,3,1),(7,2,0),(8,6,1),(9,4,0),(10,1,1)`)
		mustExec(t, e, `CREATE MATERIALIZED VIEW mv AS
		  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM seq`)
		return e
	}
	served, native := load(true), load(false)
	const win = `SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING)`
	for _, c := range []struct {
		q       string
		derives bool
		cols    []string
		rows    int
	}{
		{`SELECT pos, ` + win + ` AS s FROM seq ORDER BY s DESC, pos LIMIT 3`, true, []string{"pos", "s"}, 3},
		{`SELECT pos, ` + win + ` AS s FROM seq ORDER BY pos DESC`, true, []string{"pos", "s"}, 10},
		{`SELECT pos, ` + win + ` AS s FROM seq LIMIT 2`, true, []string{"pos", "s"}, 2},
		{`SELECT pos, ` + win + ` FROM seq`, true, []string{"pos", "column_2"}, 10},
		{`SELECT ` + win + `, pos FROM seq ORDER BY pos DESC LIMIT 4`, true, []string{"column_1", "pos"}, 4},
		// A key that is no output column: the base column val, the unaliased
		// window item's name, an expression.
		{`SELECT pos, ` + win + ` AS s FROM seq ORDER BY val, pos`, false, []string{"pos", "s"}, 10},
		{`SELECT pos, ` + win + ` AS s FROM seq ORDER BY pos + 0 DESC LIMIT 5`, false, []string{"pos", "s"}, 5},
		{`SELECT g, SUM(val) FROM seq GROUP BY g ORDER BY g`, false, []string{"g", "column_2"}, 2},
		{`SELECT g AS grp, COUNT(*), MAX(val) AS top FROM seq GROUP BY g ORDER BY grp DESC`, false, []string{"grp", "column_2", "top"}, 2},
		{`SELECT pos, ` + win + `, AVG(val) OVER (ORDER BY pos) FROM seq ORDER BY pos LIMIT 3`, false, []string{"pos", "column_2", "column_3"}, 3},
	} {
		got, want := mustExec(t, served, c.q), mustExec(t, native, c.q)
		if (got.Derivation != nil) != c.derives {
			t.Errorf("%s: derived=%v, want %v", c.q, got.Derivation != nil, c.derives)
		}
		if !slices.Equal(got.Columns, c.cols) || !slices.Equal(want.Columns, c.cols) {
			t.Errorf("%s: columns %v (served) and %v (native), want %v", c.q, got.Columns, want.Columns, c.cols)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) || len(got.Rows) != c.rows {
			t.Errorf("%s: served rows %v, native rows %v, want %d of them", c.q, got.Rows, want.Rows, c.rows)
		}
	}

	// MIN passes over a NaN in its frame, which sorts above every number
	// (and −0 would order below +0), on every path: native evaluation, the
	// derivation from a (1,1) MIN view — exact, and by MaxOA for (2,2) — the
	// view's stored rows, header and trailer included, and core.ComputeNaive
	// over the raw values.
	raw := []float64{5, 3, math.NaN(), 4, 2, 6, 7, 8}
	loadNaN := func(useViews bool) *Engine {
		e := load(useViews)
		mustExec(t, e, `CREATE TABLE t (pos INTEGER, val FLOAT)`)
		for i, v := range raw {
			lit := fmt.Sprintf("%g", v)
			if math.IsNaN(v) {
				lit = "1e308 * 10.0 - 1e308 * 10.0" // ∞ − ∞
			}
			mustExec(t, e, fmt.Sprintf(`INSERT INTO t VALUES (%d, %s)`, i+1, lit))
		}
		if useViews {
			mustExec(t, e, `CREATE MATERIALIZED VIEW mvmin AS
			  SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM t`)
		}
		return e
	}
	served, native = loadNaN(true), loadNaN(false)
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	check := func(name string, res *Result, ref *core.Sequence[float64]) {
		for _, row := range res.Rows {
			k := int(row[0].Int())
			if w, _ := ref.AtOK(k); !same(row[1].Float(), w) {
				t.Errorf("MIN over NaN, %s: position %d = %v, core.ComputeNaive says %v", name, k, row[1], w)
			}
		}
	}
	for _, w := range []core.Window{core.Sliding(1, 1), core.Sliding(2, 2)} {
		ref, err := core.ComputeNaive(raw, w, core.Min)
		if err != nil {
			t.Fatal(err)
		}
		q := fmt.Sprintf(`SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN %d PRECEDING AND %d FOLLOWING) AS m FROM t ORDER BY pos`,
			w.Preceding, w.Following)
		derived, nat := mustExec(t, served, q), mustExec(t, native, q)
		if derived.Derivation == nil || nat.Derivation != nil || len(derived.Rows) != ref.N || len(nat.Rows) != ref.N {
			t.Fatalf("MIN%s over NaN: derived=%v native=%v, %d and %d rows", w, derived.Derivation != nil, nat.Derivation != nil, len(derived.Rows), len(nat.Rows))
		}
		check("derived"+w.String(), derived, ref)
		check("native"+w.String(), nat, ref)
		if m := nat.Rows[2][1]; w.Following == 1 && m.Float() != 3 { // the frame {3, NaN, 4}
			t.Errorf("MIN over {3, NaN, 4} = %v, want 3", m)
		}
		if w.Following == 1 {
			rows := mustExec(t, served, `SELECT pos, val FROM mvmin`)
			if len(rows.Rows) != ref.Len() {
				t.Fatalf("MIN over NaN: the view holds %d rows, want %d", len(rows.Rows), ref.Len())
			}
			check("view rows", rows, ref)
		}
	}
}
