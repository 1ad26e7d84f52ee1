package mview_test

import (
	"fmt"
	"math"
	"testing"

	"rfview/internal/core"
	"rfview/internal/engine"
	"rfview/internal/storage"
	"rfview/internal/txn"
)

// TestShiftAsSQL runs the paper's positional insert and delete (§2.3)
// as SQL: one transaction renumbers a partition's suffix by ±1 and inserts
// into, or first deletes from, the gap. The view folds the commit as one
// shift and stays fresh. Every epoch from the one before a shift to the one
// after must read a dense base, and wherever the view counts as fresh its
// rows must be the view's query over that base.
func TestShiftAsSQL(t *testing.T) {
	cases := []struct {
		name, over, index string
		win               core.Window
		agg               core.Agg
		keyed             bool
	}{
		{"sum", "SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING)", "(pos)", core.Sliding(2, 1), core.Sum, false},
		// An AVG view stores its window sums.
		{"avg", "AVG(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 2 FOLLOWING)", "", core.Sliding(1, 2), core.Sum, false},
		{"cumulative", "SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING)", "(pos)", core.Cumul(), core.Sum, false},
		{"count", "COUNT(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING)", "", core.Sliding(1, 1), core.Count, false},
		{"max", "MAX(val) OVER (ORDER BY pos ROWS BETWEEN 0 PRECEDING AND 2 FOLLOWING)", "(pos)", core.Sliding(0, 2), core.Max, false},
		{"partitioned", "MIN(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING)", "(grp, pos)", core.Sliding(1, 1), core.Min, true},
		{"partitioned cumulative", "SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS UNBOUNDED PRECEDING)", "", core.Cumul(), core.Sum, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := engine.New(engine.DefaultOptions())
			defer e.Close()
			parts, cols, sel := []string{""}, "pos INTEGER, val INTEGER", "pos, "
			if c.keyed {
				parts, cols, sel = []string{"a", "b"}, "grp VARCHAR(4), pos INTEGER, val INTEGER", "grp, pos, "
			}
			exec := func(sql string) {
				t.Helper()
				if _, err := e.Exec(sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			exec("CREATE TABLE seq (" + cols + ")")
			if c.index != "" {
				exec("CREATE UNIQUE INDEX seq_pk ON seq " + c.index)
			}
			for pi, part := range parts {
				for p := 1; p <= 12; p++ {
					exec(fmt.Sprintf("INSERT INTO seq VALUES (%s%d, %d)", key(part), p, p*p+pi))
				}
			}
			exec("CREATE MATERIALIZED VIEW mv AS SELECT " + sel + c.over + " AS val FROM seq")
			tbl, _ := e.Cat.Table("seq")
			base := tbl.Heap
			mv, _ := e.Cat.MatView("mv")
			clock := e.Cat.Clock()
			sess := e.NewSession()
			defer sess.Close()
			// shift runs one positional shift in a transaction of its own
			// and checks every epoch it spans.
			shift := func(stmts ...string) {
				t.Helper()
				reg, from := clock.Register() // keeps every epoch from here readable
				defer reg.Release()
				for _, sql := range append(append([]string{"BEGIN"}, stmts...), "COMMIT") {
					if _, err := sess.Exec(sql); err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
				}
				if why := e.Views.StaleAt("mv", clock.Now()); why != "" {
					t.Fatalf("%q: a positional shift must keep the view fresh: %s", stmts, why)
				}
				for ep := from; ep <= clock.Now(); ep++ {
					at := txn.Snapshot{Epoch: ep}
					raw, err := denseAt(base, at, c.keyed)
					if err != nil {
						t.Fatalf("%q: epoch %d of %d…%d: %v", stmts, ep, from, clock.Now(), err)
					}
					if e.Views.StaleAt("mv", ep) != "" {
						continue
					}
					got := viewAt(mv.Table.Heap, at, c.keyed)
					for _, part := range parts {
						want, err := core.ComputeNaive(raw[part], c.win, c.agg)
						if err != nil {
							t.Fatal(err)
						}
						if diff := viewDiff(want, got[part]); diff != "" {
							t.Fatalf("%q: epoch %d of %d…%d: the view counts as fresh but partition %q %s", stmts, ep, from, clock.Now(), part, diff)
						}
					}
				}
			}
			// in qualifies a statement's WHERE clause to partition part.
			in := func(part string) string {
				if part == "" {
					return ""
				}
				return fmt.Sprintf("grp = '%s' AND ", part)
			}
			insert := func(part string, k, v int) {
				t.Helper()
				shift(fmt.Sprintf("UPDATE seq SET pos = pos + 1 WHERE %spos >= %d", in(part), k),
					fmt.Sprintf("INSERT INTO seq VALUES (%s%d, %d)", key(part), k, v))
			}
			remove := func(part string, k int) {
				t.Helper()
				shift(fmt.Sprintf("DELETE FROM seq WHERE %spos = %d", in(part), k),
					fmt.Sprintf("UPDATE seq SET pos = pos - 1 WHERE %spos > %d", in(part), k))
			}
			first := parts[0]
			insert(first, 5, 999)
			raw, err := denseAt(base, base.Latest(), c.keyed)
			if err != nil {
				t.Fatal(err)
			}
			if len(raw[first]) != 13 || raw[first][4] != 999 {
				t.Fatalf("raw after shift insert = %v", raw[first])
			}
			remove(first, 5)
			raw, _ = denseAt(base, base.Latest(), c.keyed)
			if len(raw[first]) != 12 || raw[first][4] == 999 {
				t.Fatalf("raw after shift delete = %v", raw[first])
			}
			// Shifts at both ends of the sequence, in every partition.
			for _, part := range parts {
				for _, k := range []int{1, 13} {
					insert(part, k, -3)
				}
				for _, k := range []int{14, 1} {
					remove(part, k)
				}
			}
			// One commit holding a value update, a shift insert, an append
			// and a shift delete of one partition: the raw data the fold
			// reads steps through each of them.
			shift(fmt.Sprintf("UPDATE seq SET val = 7 WHERE %spos = 3", in(first)),
				fmt.Sprintf("UPDATE seq SET pos = pos + 1 WHERE %spos >= 6", in(first)),
				fmt.Sprintf("INSERT INTO seq VALUES (%s6, 50)", key(first)),
				fmt.Sprintf("INSERT INTO seq VALUES (%s14, 60)", key(first)),
				fmt.Sprintf("DELETE FROM seq WHERE %spos = 2", in(first)),
				fmt.Sprintf("UPDATE seq SET pos = pos - 1 WHERE %spos > 2", in(first)))
		})
	}
}

// key renders a partition key as the leading VALUES item, "" for a simple
// sequence.
func key(part string) string {
	if part == "" {
		return ""
	}
	return fmt.Sprintf("'%s', ", part)
}

// denseAt reads seq's values at snapshot at, per partition in position
// order, failing unless each partition's positions are exactly 1…n.
func denseAt(base *storage.Table, at txn.Snapshot, keyed bool) (map[string][]float64, error) {
	byPos := map[string]map[int64]float64{}
	it := base.IterAt(at)
	defer it.Close()
	_, row, err := it.Next()
	for ; row != nil; _, row, err = it.Next() {
		part := ""
		if keyed {
			part, row = row[0].Str(), row[1:]
		}
		if byPos[part] == nil {
			byPos[part] = map[int64]float64{}
		}
		p := row[0].Int()
		if _, ok := byPos[part][p]; ok {
			return nil, fmt.Errorf("partition %q holds position %d twice", part, p)
		}
		byPos[part][p] = row[1].Float()
	}
	if err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for part, vals := range byPos {
		raw := make([]float64, len(vals))
		for i := range raw {
			v, ok := vals[int64(i+1)]
			if !ok {
				return nil, fmt.Errorf("partition %q's %d rows are not dense: position %d is missing", part, len(raw), i+1)
			}
			raw[i] = v
		}
		out[part] = raw
	}
	return out, nil
}

// viewAt reads the view's backing rows at snapshot at, per partition.
func viewAt(t *storage.Table, at txn.Snapshot, keyed bool) map[string]map[int64]float64 {
	out := map[string]map[int64]float64{}
	it := t.IterAt(at)
	defer it.Close()
	for _, row, _ := it.Next(); row != nil; _, row, _ = it.Next() {
		part := ""
		if keyed {
			part, row = row[0].Str(), row[1:]
		}
		if out[part] == nil {
			out[part] = map[int64]float64{}
		}
		out[part][row[0].Int()] = row[1].Float()
	}
	return out
}

// viewDiff says how a partition's pos→val rows differ from the sequence
// want, "" when they hold it.
func viewDiff(want *core.Sequence[float64], got map[int64]float64) string {
	count := 0
	for k := want.Lo(); k <= want.Hi(); k++ {
		v, ok := want.AtOK(k)
		if !ok {
			continue
		}
		count++
		gv, present := got[int64(k)]
		if !present || math.Abs(gv-v) > 1e-9 {
			return fmt.Sprintf("at pos %d: got (%v,%v), want %v", k, gv, present, v)
		}
	}
	if len(got) != count {
		return fmt.Sprintf("has %d rows, want %d", len(got), count)
	}
	return ""
}
