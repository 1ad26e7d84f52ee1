package mview

import (
	"math"
	"testing"

	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/sqltypes"
)

// An AVG sequence view stores its window's SUM sequence, typed like the base
// column, and a read divides it by the count its window implies
// (core.Window.Count): it is maintained exactly as a SUM view is, from the
// DML images. These tests pin the stored sums bit-exactly against the
// pipelined refresh computation — including NaN and −0 flowing through the
// sums, where the SUM rules must fall back to their refresh-identical
// recompute.

// floatFixture builds seq(pos INTEGER, val FLOAT) with the given values at
// positions 1…n.
func floatFixture(t *testing.T, vals []float64) (*catalog.Catalog, *Manager, *catalog.Table) {
	t.Helper()
	cat := emptyCatalog(t)
	tbl, err := cat.CreateTable("seq", []catalog.Column{
		{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Float},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sqltypes.Row, len(vals))
	for i, v := range vals {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i + 1)), sqltypes.NewFloat(v)}
	}
	insertRows(t, tbl, rows...)
	return cat, NewManager(cat, planExec(cat)), tbl
}

const avgViewDDL = `CREATE MATERIALIZED VIEW avgmv AS
  SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq`

var seqCols = []string{"pos", "val"}

// avgUpdate mutates the heap and fires the maintenance hook, like the
// engine's UPDATE path does.
func avgUpdate(t *testing.T, m *Manager, tbl *catalog.Table, pos int, v float64) {
	t.Helper()
	id, old := findRow(t, tbl.Heap, tbl.Heap.Latest(), func(r sqltypes.Row) bool { return r[0].Int() == int64(pos) })
	if old == nil {
		t.Fatalf("no base row at position %d", pos)
	}
	nrow := sqltypes.Row{sqltypes.NewInt(int64(pos)), sqltypes.NewFloat(v)}
	tx := m.begin()
	if err := tbl.Heap.DeleteTx(tx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Heap.InsertTx(tx, nrow); err != nil {
		t.Fatal(err)
	}
	m.AfterUpdate(tx, "seq", []sqltypes.Row{old}, []sqltypes.Row{nrow.Clone()}, seqCols)
}

func avgAppend(t *testing.T, m *Manager, tbl *catalog.Table, pos int, v float64) {
	t.Helper()
	row := sqltypes.Row{sqltypes.NewInt(int64(pos)), sqltypes.NewFloat(v)}
	tx := m.begin()
	if _, err := tbl.Heap.InsertTx(tx, row); err != nil {
		t.Fatal(err)
	}
	m.AfterInsert(tx, "seq", []sqltypes.Row{row.Clone()}, seqCols)
}

func avgDelete(t *testing.T, m *Manager, tbl *catalog.Table, pos int) {
	t.Helper()
	id, old := findRow(t, tbl.Heap, tbl.Heap.Latest(), func(r sqltypes.Row) bool { return r[0].Int() == int64(pos) })
	if old == nil {
		t.Fatalf("no base row at position %d", pos)
	}
	tx := m.begin()
	if err := tbl.Heap.DeleteTx(tx, id); err != nil {
		t.Fatal(err)
	}
	m.AfterDelete(tx, "seq", []sqltypes.Row{old}, seqCols)
}

// checkAvgBitExact compares the backing table bit-for-bit against a
// pipelined SUM computation over the base table's current contents.
func checkAvgBitExact(t *testing.T, cat *catalog.Catalog, m *Manager, ctx string) {
	t.Helper()
	if m.Stale("avgmv") {
		_, why := m.StaleInfo("avgmv")
		t.Fatalf("%s: view went stale on maintainable DML: %s", ctx, why)
	}
	base, err := cat.Table("seq")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := denseRaw(m, base)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	want, err := core.ComputePipelined(raw, core.Sliding(2, 1), core.Sum)
	if err != nil {
		t.Fatal(err)
	}
	got := viewValues(t, cat, "avgmv")
	rows := 0
	for k := want.Lo(); k <= want.Hi(); k++ {
		wv, ok := want.AtOK(k)
		if !ok {
			continue
		}
		rows++
		gv, present := got[int64(k)]
		if !present || math.Float64bits(gv) != math.Float64bits(wv) {
			t.Fatalf("%s: sum at pos %d = (%v,%v) [bits %016x], want %v [bits %016x]",
				ctx, k, gv, present, math.Float64bits(gv), wv, math.Float64bits(wv))
		}
	}
	if len(got) != rows {
		t.Fatalf("%s: backing has %d rows, want %d", ctx, len(got), rows)
	}
}

// TestAvgViewMaintainedAsSumCountPair: ordinary maintainable DML on an AVG
// view keeps its stored sums bit-identical to refresh; the counts are a
// closed form of the window, so the pair is the sums alone.
func TestAvgViewMaintainedAsSumCountPair(t *testing.T) {
	cat, m, tbl := floatFixture(t, []float64{3, 1, 4, 1, 5, 9, 2, 6})
	createView(t, m, avgViewDDL)
	sv := m.seq["avgmv"]
	if sv == nil || sv.mv.Agg.Stored() != core.Sum || sv.valType != sqltypes.Float {
		t.Fatal("an AVG view over a FLOAT column must store its window sums as FLOAT")
	}
	checkAvgBitExact(t, cat, m, "initial fill")

	avgUpdate(t, m, tbl, 4, 10)
	checkAvgBitExact(t, cat, m, "update")
	avgAppend(t, m, tbl, 9, -7)
	checkAvgBitExact(t, cat, m, "append")
	avgDelete(t, m, tbl, 9)
	checkAvgBitExact(t, cat, m, "tail delete")
	avgUpdate(t, m, tbl, 1, 0.5) // non-integral: division must still match refresh
	checkAvgBitExact(t, cat, m, "fractional update")
}

// TestAvgViewExoticValues pushes NaN and −0 through the sums. While either
// is present in the raw data, the SUM rules recompute instead of
// differencing — the sums must track the refresh bits the whole way, NaN
// contamination included.
func TestAvgViewExoticValues(t *testing.T) {
	cat, m, tbl := floatFixture(t, []float64{2, 4, 6, 8, 10, 12})
	createView(t, m, avgViewDDL)

	avgUpdate(t, m, tbl, 3, math.NaN())
	checkAvgBitExact(t, cat, m, "NaN enters")
	avgUpdate(t, m, tbl, 5, 7) // NaN still present elsewhere
	checkAvgBitExact(t, cat, m, "update beside NaN")
	avgAppend(t, m, tbl, 7, 1)
	checkAvgBitExact(t, cat, m, "append with NaN present")
	avgUpdate(t, m, tbl, 3, 6) // NaN leaves; sums must lose the contamination
	checkAvgBitExact(t, cat, m, "NaN leaves")

	avgUpdate(t, m, tbl, 2, math.Copysign(0, -1))
	checkAvgBitExact(t, cat, m, "−0 enters")
	avgDelete(t, m, tbl, 7)
	checkAvgBitExact(t, cat, m, "tail delete with −0 present")
	avgUpdate(t, m, tbl, 2, 4)
	checkAvgBitExact(t, cat, m, "−0 leaves")
}
