package wal

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"rfview/internal/core"
	"rfview/internal/engine"
)

// TestCrashRecoveryShift commits a positional shift insert and a shift
// delete (§2.3), each written as SQL — a ±1 renumbering and the insert or
// delete at k in one transaction — then crashes: no Close, so no
// checkpoint captures them and only their commit records can. Recovery must
// bring the base back dense 1…n per partition and the view fresh and equal
// to core.ComputeNaive over it.
func TestCrashRecoveryShift(t *testing.T) {
	cases := []struct {
		name, table, index, view string
		keyed                    bool
		win                      core.Window
		agg                      core.Agg
	}{
		{"simple over a unique pos index", "seq (pos INTEGER, val INTEGER)", "CREATE UNIQUE INDEX seq_pk ON seq (pos)",
			"SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq",
			false, core.Sliding(2, 1), core.Sum},
		{"partitioned over a (grp, pos) index", "seq (grp VARCHAR(4), pos INTEGER, val INTEGER)", "CREATE UNIQUE INDEX seq_pk ON seq (grp, pos)",
			"SELECT grp, pos, MAX(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM seq",
			true, core.Sliding(1, 1), core.Max},
		{"simple without an index", "seq (pos INTEGER, val INTEGER)", "",
			"SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS val FROM seq",
			false, core.Cumul(), core.Sum},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			mgr, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			e := mgr.Engine()
			parts, col, in := []string{""}, func(string) string { return "" }, func(string) string { return "" }
			if c.keyed {
				parts = []string{"a", "b"}
				col = func(p string) string { return fmt.Sprintf("'%s', ", p) }
				in = func(p string) string { return fmt.Sprintf("grp = '%s' AND ", p) }
			}
			model := map[string][]float64{}
			stmts := []string{"CREATE TABLE " + c.table, c.index}
			for i, p := range parts {
				for pos := 1; pos <= 10; pos++ {
					v := (pos*37+i*11)%50 - 20
					model[p] = append(model[p], float64(v))
					stmts = append(stmts, fmt.Sprintf("INSERT INTO seq VALUES (%s%d, %d)", col(p), pos, v))
				}
			}
			stmts = append(stmts, "CREATE MATERIALIZED VIEW mv AS "+c.view)
			logged := 2 // the shifts' commit records
			for _, sql := range stmts {
				if sql == "" {
					continue
				}
				logged++
				if _, err := e.Exec(sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			sess := e.NewSession()
			p := parts[len(parts)-1]
			for _, shift := range [][]string{
				{fmt.Sprintf("UPDATE seq SET pos = pos + 1 WHERE %spos >= 4", in(p)), fmt.Sprintf("INSERT INTO seq VALUES (%s4, 999)", col(p))},
				{fmt.Sprintf("DELETE FROM seq WHERE %spos = 7", in(p)), fmt.Sprintf("UPDATE seq SET pos = pos - 1 WHERE %spos > 7", in(p))},
			} {
				for _, sql := range append(append([]string{"BEGIN"}, shift...), "COMMIT") {
					if _, err := sess.Exec(sql); err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
				}
			}
			model[p] = slices.Insert(model[p], 3, 999)
			model[p] = slices.Delete(model[p], 6, 7)
			if e.Views.Stale("mv") {
				_, why := e.Views.StaleInfo("mv")
				t.Fatalf("the shifts left the view stale before the crash: %s", why)
			}
			mgr = nil // crash: no Close, no checkpoint

			re, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer re.Close()
			if got := re.Recovery().RecordsReplayed; got != logged {
				t.Fatalf("recovery replayed %d records, want all %d: the shifts must come back from their commit records", got, logged)
			}
			r := re.Engine()
			base, view := map[string]map[int]float64{}, map[string]map[int]float64{}
			baseCols, viewCols := "pos, val", "pos, val"
			if c.keyed {
				baseCols, viewCols = "grp, pos, val", "part, pos, val"
			}
			readRows(t, r, "SELECT "+baseCols+" FROM seq", c.keyed, base)
			for _, p := range parts {
				if len(base[p]) != len(model[p]) {
					t.Fatalf("partition %q recovered %d rows, want %d", p, len(base[p]), len(model[p]))
				}
				for i, v := range model[p] {
					if got, ok := base[p][i+1]; !ok || got != v {
						t.Fatalf("partition %q position %d recovered (%v, %v), want %v: the base is not the committed one", p, i+1, got, ok, v)
					}
				}
			}
			if r.Views.Stale("mv") {
				_, why := r.Views.StaleInfo("mv")
				t.Fatalf("the recovered view is stale: %s", why)
			}
			readRows(t, r, "SELECT "+viewCols+" FROM mv", c.keyed, view)
			for _, p := range parts {
				want, err := core.ComputeNaive(model[p], c.win, c.agg)
				if err != nil {
					t.Fatal(err)
				}
				stored := 0
				for k := want.Lo(); k <= want.Hi(); k++ {
					v, ok := want.AtOK(k)
					if !ok {
						continue
					}
					stored++
					if got, present := view[p][k]; !present || math.Abs(got-v) > 1e-9 {
						t.Fatalf("partition %q: the recovered view holds (%v, %v) at %d, want %v", p, got, present, k, v)
					}
				}
				if len(view[p]) != stored {
					t.Fatalf("partition %q: the recovered view holds %d rows, want %d", p, len(view[p]), stored)
				}
			}
		})
	}
}

// readRows reads a ([part,] pos, val) result into out, keyed by partition
// ("" without one) and position.
func readRows(t *testing.T, e *engine.Engine, sql string, keyed bool, out map[string]map[int]float64) {
	t.Helper()
	res, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	for _, row := range res.Rows {
		p := ""
		if keyed {
			p, row = row[0].Str(), row[1:]
		}
		if out[p] == nil {
			out[p] = map[int]float64{}
		}
		out[p][int(row[0].Int())] = row[1].Float()
	}
}
