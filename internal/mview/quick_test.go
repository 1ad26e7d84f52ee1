package mview

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
	"rfview/internal/txn"
)

// TestQuickFold: random commits of several deltas — value updates, appends
// and suffix deletes, with NaN, ±Inf and ±0 among the FLOAT values — folded
// into SUM, AVG, MIN and MAX views over bases with and without a position
// index stay bit-identical to a refresh. A commit's later changes are in the
// base before its first is folded, so every recompute, the NaN-poisoned
// ones that read past the fold's spans included, must see the raw data as
// its own change left it.
func TestQuickFold(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	domain := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, -1, 1, 2, 3}
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return domain[rng.Intn(len(domain))]
		}
		return float64(rng.Intn(9) - 4)
	}
	for trial := 0; trial < 80; trial++ {
		vals := make([]float64, 2+rng.Intn(10))
		for i := range vals {
			vals[i] = pick()
		}
		cat, m, tbl := floatFixture(t, vals)
		if trial%2 == 0 {
			if _, err := cat.CreateIndex("seq_pos", "seq", []string{"pos"}, true); err != nil {
				t.Fatal(err)
			}
		}
		agg := []core.Agg{core.Sum, core.Avg, core.Min, core.Max}[rng.Intn(4)]
		w, frame := core.Cumul(), "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW"
		if rng.Intn(4) != 0 {
			w = core.Sliding(1+rng.Intn(3), rng.Intn(3))
			frame = fmt.Sprintf("ROWS BETWEEN %d PRECEDING AND %d FOLLOWING", w.Preceding, w.Following)
		}
		ctx := fmt.Sprintf("trial %d: %s %s", trial, agg, w)
		createView(t, m, fmt.Sprintf(`CREATE MATERIALIZED VIEW qv AS SELECT pos, %s(val) OVER (ORDER BY pos %s) AS val FROM seq`, agg, frame))
		for commit := 0; commit < 6; commit++ {
			var deltas []txn.Delta
			tx := m.begin()
			for d := 1 + rng.Intn(4); d > 0; d-- {
				n := len(vals)
				switch r := rng.Intn(4); {
				case r == 0:
					row := sqltypes.Row{sqltypes.NewInt(int64(n + 1)), sqltypes.NewFloat(pick())}
					if _, err := tbl.Heap.InsertTx(tx, row); err != nil {
						t.Fatal(err)
					}
					vals = append(vals, row[1].Float())
					deltas = append(deltas, txn.Delta{Table: "seq", Kind: txn.DeltaInsert, Cols: seqCols, Rows: []sqltypes.Row{row}})
				case r == 1 && n > 1:
					id, row := baseRow(t, tx, tbl.Heap, n)
					if err := tbl.Heap.DeleteTx(tx, id); err != nil {
						t.Fatal(err)
					}
					vals = vals[:n-1]
					deltas = append(deltas, txn.Delta{Table: "seq", Kind: txn.DeltaDelete, Cols: seqCols, Rows: []sqltypes.Row{row}})
				default:
					// One statement updating two positions, in no position order.
					d := txn.Delta{Table: "seq", Kind: txn.DeltaUpdate, Cols: seqCols}
					prev := 0
					for _, p := range []int{1 + rng.Intn(n), 1 + rng.Intn(n)} {
						if p == prev {
							continue
						}
						prev = p
						id, row := baseRow(t, tx, tbl.Heap, p)
						after := sqltypes.Row{row[0], sqltypes.NewFloat(pick())}
						if _, err := tbl.Heap.UpdateTx(tx, id, after); err != nil {
							t.Fatal(err)
						}
						vals[p-1] = after[1].Float()
						d.Before, d.After = append(d.Before, row), append(d.After, after)
					}
					deltas = append(deltas, d)
				}
			}
			m.Fold(tx, deltas)
			m.commit(tx, nil)
			if m.Stale("qv") {
				_, why := m.StaleInfo("qv")
				t.Fatalf("%s, commit %d: the view went stale: %s", ctx, commit, why)
			}
			checkBitExact(t, cat, "qv", vals, w, agg, fmt.Sprintf("%s, commit %d", ctx, commit))
		}
	}
}

// checkBitExact compares a simple view's backing rows bit for bit with a
// refresh over raw of the sequence they store.
func checkBitExact(t *testing.T, cat *catalog.Catalog, name string, raw []float64, w core.Window, agg core.Agg, ctx string) {
	t.Helper()
	want, err := core.ComputePipelined(raw, w, storedAgg(agg))
	if err != nil {
		t.Fatal(err)
	}
	got := viewValues(t, cat, name)
	rows := 0
	for k := want.Lo(); k <= want.Hi(); k++ {
		wv, ok := want.AtOK(k)
		if !ok {
			continue
		}
		rows++
		if gv, present := got[int64(k)]; !present || math.Float64bits(gv) != math.Float64bits(wv) {
			t.Fatalf("%s: position %d = (%v,%v), want %v", ctx, k, gv, present, wv)
		}
	}
	if len(got) != rows {
		t.Fatalf("%s: the view stores %d rows, want %d", ctx, len(got), rows)
	}
}

// baseRow finds the base row at position pos as tx sees it.
func baseRow(t *testing.T, tx *txn.Txn, heap *storage.Table, pos int) (storage.RowID, sqltypes.Row) {
	t.Helper()
	id, found := findRow(t, heap, heap.WriteView(tx), func(r sqltypes.Row) bool { return r[0].Int() == int64(pos) })
	if found == nil {
		t.Fatalf("no base row at position %d", pos)
	}
	return id, found
}
