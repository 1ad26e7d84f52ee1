package engine

import (
	"fmt"
	"slices"
	"testing"
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
}
