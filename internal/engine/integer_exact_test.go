package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rfview/internal/core"
	"rfview/internal/sqltypes"
)

// 2⁵³: the first INTEGER a float64 cannot tell from its successor.
const p53 = int64(1) << 53

// probeVals alternate 2⁵³+i and −2⁵³+3i, so every running sum crosses 2⁵³
// and back: x₁+x₂ = 7, which float64 arithmetic answers as 6.
func probeVals(n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		if k := int64(i + 1); k%2 == 1 {
			vals[i] = p53 + k
		} else {
			vals[i] = -p53 + 3*k
		}
	}
	return vals
}

// loadInts creates table name(pos, val INTEGER) holding vals at 1…n.
func loadInts(t *testing.T, e *Engine, name string, vals []int64) {
	t.Helper()
	mustExec(t, e, fmt.Sprintf(`CREATE TABLE %s (pos INTEGER, val INTEGER)`, name))
	rows := make([]string, len(vals))
	for i, v := range vals {
		rows[i] = fmt.Sprintf("(%d, %d)", i+1, v)
	}
	mustExec(t, e, fmt.Sprintf(`INSERT INTO %s VALUES %s`, name, strings.Join(rows, ", ")))
}

// frame renders a window's ROWS clause.
func frame(w core.Window) string {
	if w.Cumulative {
		return "ROWS UNBOUNDED PRECEDING"
	}
	return fmt.Sprintf("ROWS BETWEEN %d PRECEDING AND %d FOLLOWING", w.Preceding, w.Following)
}

// TestIntegerViewsExact: an INTEGER view fills, maintains, stores and
// derives in int64, so near ±2⁵³ its rows are the int64 reference sequence
// and every derivation answers what native evaluation does, bit for bit and
// typed INTEGER — after CREATE, after maintained DML and after REFRESH.
func TestIntegerViewsExact(t *testing.T) {
	e := New(DefaultOptions())
	defer e.Close()
	sums := probeVals(8)
	maxes := []int64{p53 + 1, p53, 5, p53 + 3}
	cases := []struct {
		table, view string
		agg         core.Agg
		win         core.Window
		vals        []int64
		targets     map[core.Algo][]core.Window
	}{
		{"a", "ma", core.Sum, core.Sliding(1, 1), slices.Clone(sums), map[core.Algo][]core.Window{
			core.AlgoExact: {core.Sliding(1, 1)},
			core.AlgoMinOA: {core.Sliding(2, 2), core.Sliding(0, 3), core.Sliding(3, 0)},
		}},
		{"c", "mc", core.Sum, core.Cumul(), slices.Clone(sums), map[core.Algo][]core.Window{
			core.AlgoExact:      {core.Cumul()},
			core.AlgoCumulative: {core.Sliding(2, 2), core.Sliding(1, 1)},
		}},
		{"n", "mn", core.Count, core.Sliding(1, 1), slices.Clone(sums), map[core.Algo][]core.Window{
			core.AlgoMinOA: {core.Sliding(2, 2)},
		}},
		{"m", "mm", core.Max, core.Sliding(1, 0), slices.Clone(maxes), map[core.Algo][]core.Window{
			core.AlgoExact: {core.Sliding(1, 0)},
			core.AlgoMaxOA: {core.Sliding(2, 1), core.Sliding(1, 1)},
		}},
		{"i", "mi", core.Min, core.Sliding(1, 0), slices.Clone(maxes), map[core.Algo][]core.Window{
			core.AlgoMaxOA: {core.Sliding(2, 1)},
		}},
	}
	for _, c := range cases {
		loadInts(t, e, c.table, c.vals)
		mustExec(t, e, fmt.Sprintf(`CREATE MATERIALIZED VIEW %s AS SELECT pos, %v(val) OVER (ORDER BY pos %s) AS val FROM %s`,
			c.view, c.agg, frame(c.win), c.table))
	}
	check := func(state string) {
		for _, c := range cases {
			want, err := core.ComputeNaive(c.vals, c.win, c.agg)
			if err != nil {
				t.Fatal(err)
			}
			got := mustExec(t, e, fmt.Sprintf(`SELECT pos, val FROM %s`, c.view))
			stored := 0
			for k := want.Lo(); k <= want.Hi(); k++ {
				if _, ok := want.AtOK(k); ok {
					stored++
				}
			}
			if len(got.Rows) != stored {
				t.Errorf("%s: view %s holds %d rows, want %d", state, c.view, len(got.Rows), stored)
			}
			for _, r := range got.Rows {
				k := int(r[0].Int())
				if w, ok := want.AtOK(k); !ok || r[1] != sqltypes.NewInt(w) {
					t.Errorf("%s: view %s stores %v at %d, want %d", state, c.view, r[1], k, w)
				}
			}
			for algo, targets := range c.targets {
				for _, w := range targets {
					q := fmt.Sprintf(`SELECT pos, %v(val) OVER (ORDER BY pos %s) AS v FROM %s`, c.agg, frame(w), c.table)
					derived, native := mustExec(t, e, q), mustExec(t, e, q+` WHERE pos > 0`)
					if d := derived.Derivation; d == nil || d.Plan.Source.Algo != algo {
						t.Errorf("%s: %s: derivation %+v, want %s from %s", state, q, d, algo, c.view)
						continue
					}
					if native.Derivation != nil {
						t.Fatalf("%s: %s WHERE pos > 0 derived", state, q)
					}
					// Native rows come in the order the window's sort left them.
					slices.SortFunc(native.Rows, func(x, y sqltypes.Row) int { return int(x[0].Int() - y[0].Int()) })
					if fmt.Sprintf("%#v", derived.Rows) != fmt.Sprintf("%#v", native.Rows) {
						t.Errorf("%s: %s by %s\n derived %v\n native  %v", state, q, algo, derived.Rows, native.Rows)
					}
					for _, r := range derived.Rows {
						if r[1].Typ() != sqltypes.Int {
							t.Fatalf("%s: %s answers %v, not INTEGER", state, q, r[1])
						}
					}
				}
			}
		}
	}
	check("after CREATE")

	// Maintenance: value updates that cross 2⁵³ both ways, a MAX/MIN update
	// that shrinks the extremum (a band recompute) and one that widens it,
	// and an append.
	update := func(c int, pos int, v int64) {
		mustExec(t, e, fmt.Sprintf(`UPDATE %s SET val = %d WHERE pos = %d`, cases[c].table, v, pos))
		cases[c].vals[pos-1] = v
	}
	for c := range cases[:3] {
		update(c, 4, -p53-1)
		update(c, 5, p53+11)
		mustExec(t, e, fmt.Sprintf(`INSERT INTO %s VALUES (9, %d)`, cases[c].table, p53+9))
		cases[c].vals = append(cases[c].vals, p53+9)
	}
	for c := 3; c < len(cases); c++ {
		update(c, 1, 5)
		update(c, 3, p53+7)
		update(c, 4, -p53+3)
	}
	check("after UPDATE and INSERT")

	for _, c := range cases {
		mustExec(t, e, `REFRESH MATERIALIZED VIEW `+c.view)
	}
	check("after REFRESH")
}

// TestIntegerAvgExact: native AVG over INTEGER sums in int64 and divides
// once, as an AVG derived from a SUM view and one read from an AVG view do,
// so the three answer the same bits near ±2⁵³ — the exact quotient's nearest
// float64.
func TestIntegerAvgExact(t *testing.T) {
	e := New(DefaultOptions())
	defer e.Close()
	vals := probeVals(8)
	loadInts(t, e, "s", vals)
	loadInts(t, e, "g", vals)
	mustExec(t, e, `CREATE MATERIALIZED VIEW ms AS SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM s`)
	mustExec(t, e, `CREATE MATERIALIZED VIEW mg AS SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM g`)
	for _, w := range []core.Window{core.Sliding(1, 1), core.Sliding(2, 2)} {
		want, err := core.ComputeNaive(vals, w, core.Sum)
		if err != nil {
			t.Fatal(err)
		}
		q := fmt.Sprintf(`SELECT pos, AVG(val) OVER (ORDER BY pos %s) AS v FROM s`, frame(w))
		answers := map[string]*Result{
			"native":         mustExec(t, e, q+` WHERE pos > 0`),
			"from SUM view":  mustExec(t, e, q),
			"from AVG view":  mustExec(t, e, strings.Replace(q, "FROM s", "FROM g", 1)),
			"AVG view's row": mustExec(t, e, `SELECT pos, val FROM mg WHERE pos BETWEEN 1 AND 8`),
		}
		if !w.Equal(core.Sliding(1, 1)) {
			delete(answers, "AVG view's row")
		}
		for name, res := range answers {
			if (res.Derivation != nil) != strings.HasPrefix(name, "from") {
				t.Errorf("%v %s: derivation %+v", w, name, res.Derivation)
			}
			if len(res.Rows) != len(vals) {
				t.Fatalf("%v %s: %d rows", w, name, len(res.Rows))
			}
			for _, r := range res.Rows {
				k := int(r[0].Int())
				exact := sqltypes.NewFloat(float64(want.At(k)) / float64(w.Count(k, len(vals))))
				if r[1] != exact {
					t.Errorf("%v %s: AVG at %d = %v, want %v", w, name, k, r[1], exact)
				}
			}
		}
	}
}
