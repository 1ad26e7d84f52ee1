package mview

import (
	"math"
	"strings"
	"testing"

	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
	"rfview/internal/txn"
)

// pfixture builds pseq(grp, pos, val) with per-partition dense positions and
// val = pos * factor(grp).
func pfixture(t *testing.T, sizes map[string]int) (*catalog.Catalog, *Manager) {
	t.Helper()
	cat := emptyCatalog(t)
	tbl, err := cat.CreateTable("pseq", []catalog.Column{
		{Name: "grp", Type: sqltypes.String},
		{Name: "pos", Type: sqltypes.Int},
		{Name: "val", Type: sqltypes.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	factor := int64(1)
	var rows []sqltypes.Row
	for g, n := range sizes {
		factor++
		for i := int64(1); i <= int64(n); i++ {
			rows = append(rows, sqltypes.Row{sqltypes.NewString(g), sqltypes.NewInt(i), sqltypes.NewInt(i * factor)})
		}
	}
	insertRows(t, tbl, rows...)
	return cat, NewManager(cat, planExec(cat))
}

const pViewDDL = `CREATE MATERIALIZED VIEW pmv AS
  SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos
    ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM pseq`

// basePartition reads one partition's raw values ordered by pos.
func basePartition(t *testing.T, cat *catalog.Catalog, grp string) []float64 {
	t.Helper()
	base, err := cat.Table("pseq")
	if err != nil {
		t.Fatal(err)
	}
	vals := map[int64]float64{}
	_, rows := rowsAt(t, base.Heap, base.Heap.Latest())
	for _, row := range rows {
		if row[0].Str() == grp {
			vals[row[1].Int()] = row[2].Float()
		}
	}
	out := make([]float64, len(vals))
	for i := int64(1); i <= int64(len(vals)); i++ {
		out[i-1] = vals[i]
	}
	return out
}

// checkPartitionBacking compares one partition's backing rows against a
// fresh core computation, including body flags.
func checkPartitionBacking(t *testing.T, cat *catalog.Catalog, grp string, ctx string) {
	t.Helper()
	raw := basePartition(t, cat, grp)
	want, err := core.ComputePipelined(raw, core.Sliding(2, 1), core.Sum)
	if err != nil {
		t.Fatal(err)
	}
	mv, ok := cat.MatView("pmv")
	if !ok {
		t.Fatal("view missing")
	}
	got := map[int64][2]interface{}{}
	_, rows := rowsAt(t, mv.Table.Heap, mv.Table.Heap.Latest())
	for _, row := range rows {
		if row[0].Str() == grp {
			got[row[1].Int()] = [2]interface{}{row[2].Float(), row[3].Bool()}
		}
	}
	count := 0
	for k := want.Lo(); k <= want.Hi(); k++ {
		v, okv := want.AtOK(k)
		if !okv {
			continue
		}
		count++
		cell, present := got[int64(k)]
		if !present {
			t.Fatalf("%s: partition %q missing pos %d", ctx, grp, k)
		}
		if math.Abs(cell[0].(float64)-v) > 1e-9 {
			t.Fatalf("%s: partition %q pos %d = %v, want %v", ctx, grp, k, cell[0], v)
		}
		wantBody := k >= 1 && k <= want.N
		if cell[1].(bool) != wantBody {
			t.Fatalf("%s: partition %q pos %d body=%v, want %v", ctx, grp, k, cell[1], wantBody)
		}
	}
	if len(got) != count {
		t.Fatalf("%s: partition %q has %d rows, want %d", ctx, grp, len(got), count)
	}
}

func TestCreatePartitionedView(t *testing.T) {
	cat, m := pfixture(t, map[string]int{"a": 12, "b": 7})
	createView(t, m, pViewDDL)
	mv, ok := cat.MatView("pmv")
	if !ok || mv.PartColumn != "grp" {
		t.Fatalf("view metadata = %+v", mv)
	}
	checkPartitionBacking(t, cat, "a", "create")
	checkPartitionBacking(t, cat, "b", "create")
	if mv.Table.Heap.IndexOn([]int{0, 1}) == nil {
		t.Fatal("backing table must carry a (part, pos) index")
	}
}

func TestPartitionedUpdateIncremental(t *testing.T) {
	cat, m := pfixture(t, map[string]int{"a": 10, "b": 10})
	createView(t, m, pViewDDL)
	base, _ := cat.Table("pseq")
	cols := base.ColumnNames()
	id, before := findRow(t, base.Heap, base.Heap.Latest(), func(r sqltypes.Row) bool { return r[0].Str() == "a" && r[1].Int() == 5 })
	after := sqltypes.Row{sqltypes.NewString("a"), sqltypes.NewInt(5), sqltypes.NewInt(999)}
	tx := m.begin()
	if _, err := base.Heap.UpdateTx(tx, id, after); err != nil {
		t.Fatal(err)
	}
	m.AfterUpdate(tx, "pseq", []sqltypes.Row{before}, []sqltypes.Row{after}, cols)
	if m.Stale("pmv") {
		t.Fatal("partitioned value update must stay incremental")
	}
	checkPartitionBacking(t, cat, "a", "after update")
	checkPartitionBacking(t, cat, "b", "after update (untouched partition)")
}

func TestPartitionedAppendAndNewPartition(t *testing.T) {
	cat, m := pfixture(t, map[string]int{"a": 6})
	createView(t, m, pViewDDL)
	base, _ := cat.Table("pseq")
	cols := base.ColumnNames()

	row := sqltypes.Row{sqltypes.NewString("a"), sqltypes.NewInt(7), sqltypes.NewInt(70)}
	insert := func(row sqltypes.Row) {
		t.Helper()
		tx := m.begin()
		if _, err := base.Heap.InsertTx(tx, row); err != nil {
			t.Fatal(err)
		}
		m.AfterInsert(tx, "pseq", []sqltypes.Row{row}, cols)
	}
	insert(row)
	if m.Stale("pmv") {
		t.Fatal("append must stay incremental")
	}
	checkPartitionBacking(t, cat, "a", "after append")

	// A new partition opening at position 1 is also incremental.
	row2 := sqltypes.Row{sqltypes.NewString("z"), sqltypes.NewInt(1), sqltypes.NewInt(5)}
	insert(row2)
	if m.Stale("pmv") {
		t.Fatal("new partition at pos 1 must stay incremental")
	}
	checkPartitionBacking(t, cat, "z", "new partition")

	// A new partition opening anywhere else goes stale.
	row3 := sqltypes.Row{sqltypes.NewString("q"), sqltypes.NewInt(3), sqltypes.NewInt(5)}
	insert(row3)
	if !m.Stale("pmv") {
		t.Fatal("non-dense partition opening must go stale")
	}
}

func TestPartitionedSuffixDeleteAndVanish(t *testing.T) {
	cat, m := pfixture(t, map[string]int{"a": 3, "b": 5})
	createView(t, m, pViewDDL)
	base, _ := cat.Table("pseq")
	cols := base.ColumnNames()
	// Delete partition a entirely, suffix-first.
	for pos := int64(3); pos >= 1; pos-- {
		id, row := findRow(t, base.Heap, base.Heap.Latest(), func(r sqltypes.Row) bool { return r[0].Str() == "a" && r[1].Int() == pos })
		tx := m.begin()
		if err := base.Heap.DeleteTx(tx, id); err != nil {
			t.Fatal(err)
		}
		m.AfterDelete(tx, "pseq", []sqltypes.Row{row}, cols)
		if m.Stale("pmv") {
			t.Fatalf("suffix delete at pos %d must stay incremental", pos)
		}
	}
	// Partition a is gone from the backing table.
	mv, _ := cat.MatView("pmv")
	_, rows := rowsAt(t, mv.Table.Heap, mv.Table.Heap.Latest())
	for _, row := range rows {
		if row[0].Str() == "a" {
			t.Fatalf("vanished partition still has row %v", row)
		}
	}
	checkPartitionBacking(t, cat, "b", "after partition removal")
	// And re-opening it at pos 1 works.
	row := sqltypes.Row{sqltypes.NewString("a"), sqltypes.NewInt(1), sqltypes.NewInt(4)}
	tx := m.begin()
	if _, err := base.Heap.InsertTx(tx, row); err != nil {
		t.Fatal(err)
	}
	m.AfterInsert(tx, "pseq", []sqltypes.Row{row}, cols)
	if m.Stale("pmv") {
		t.Fatal("re-opened partition must stay incremental")
	}
	checkPartitionBacking(t, cat, "a", "re-opened partition")
}

func TestPartitionedRefresh(t *testing.T) {
	cat, m := pfixture(t, map[string]int{"a": 5, "b": 4})
	createView(t, m, pViewDDL)
	base, _ := cat.Table("pseq")
	// Force staleness with a middle delete, then repair density and refresh.
	id, row := findRow(t, base.Heap, base.Heap.Latest(), func(r sqltypes.Row) bool { return r[0].Str() == "a" && r[1].Int() == 2 })
	tx := m.begin()
	if err := base.Heap.DeleteTx(tx, id); err != nil {
		t.Fatal(err)
	}
	m.AfterDelete(tx, "pseq", []sqltypes.Row{row}, base.ColumnNames())
	if !m.Stale("pmv") {
		t.Fatal("middle delete must go stale")
	}
	// Repair: move pos 5 into the hole.
	tx = m.begin()
	id, r := findRow(t, base.Heap, base.Heap.Latest(), func(r sqltypes.Row) bool { return r[0].Str() == "a" && r[1].Int() == 5 })
	if r != nil {
		r[1] = sqltypes.NewInt(2)
		if _, err := base.Heap.UpdateTx(tx, id, r); err != nil {
			t.Fatal(err)
		}
	}
	m.commit(tx, nil)
	if err := refresh(m, "pmv"); err != nil {
		t.Fatal(err)
	}
	if m.Stale("pmv") {
		t.Fatal("refresh must clear staleness")
	}
	checkPartitionBacking(t, cat, "a", "after refresh")
	checkPartitionBacking(t, cat, "b", "after refresh")
}

func TestPartitionedCreateRejections(t *testing.T) {
	// NULL partition keys.
	cat := emptyCatalog(t)
	tbl, _ := cat.CreateTable("pseq", []catalog.Column{
		{Name: "grp", Type: sqltypes.String},
		{Name: "pos", Type: sqltypes.Int},
		{Name: "val", Type: sqltypes.Int},
	})
	insertRows(t, tbl, sqltypes.Row{sqltypes.NullDatum, sqltypes.NewInt(1), sqltypes.NewInt(1)})
	m := NewManager(cat, planExec(cat))
	if err := tryCreate(m, pViewDDL); err == nil ||
		!strings.Contains(err.Error(), "non-NULL") {
		t.Fatalf("NULL partition key must be rejected: %v", err)
	}
}

// TestPartitionedShift folds a positional shift of one partition — the
// deltas of the SQL renumbering and the insert or delete at k, in one
// commit — and keeps the view fresh, the other partition untouched.
func TestPartitionedShift(t *testing.T) {
	cat, m := pfixture(t, map[string]int{"a": 6, "b": 4})
	createView(t, m, pViewDDL)
	base, _ := cat.Table("pseq")
	cols := base.ColumnNames()
	// shift renumbers a's positions right of k by step: up after inserting
	// edge at k, down after deleting the row at k, each on the side of the
	// renumbering SQL puts it.
	shift := func(k, step int64, edge sqltypes.Row) {
		t.Helper()
		tx := m.begin()
		var ids []storage.RowID
		var edgeID storage.RowID
		var before, after []sqltypes.Row
		rids, rows := rowsAt(t, base.Heap, base.Heap.WriteView(tx))
		for i, row := range rows {
			id := rids[i]
			switch p := row[1].Int(); {
			case row[0].Str() != "a":
			case step < 0 && p == k:
				edgeID, edge = id, row
			case step > 0 && p >= k, step < 0 && p > k:
				moved := row.Clone()
				moved[1] = sqltypes.NewInt(p + step)
				ids, before, after = append(ids, id), append(before, row), append(after, moved)
			}
		}
		renumber := txn.Delta{Table: "pseq", Kind: txn.DeltaUpdate, Cols: cols, Before: before, After: after}
		var deltas []txn.Delta
		if step > 0 {
			if _, err := base.Heap.UpdateRowsTx(tx, ids, after); err != nil {
				t.Fatal(err)
			}
			if _, err := base.Heap.InsertTx(tx, edge); err != nil {
				t.Fatal(err)
			}
			deltas = []txn.Delta{renumber, {Table: "pseq", Kind: txn.DeltaInsert, Cols: cols, Rows: []sqltypes.Row{edge}}}
		} else {
			if err := base.Heap.DeleteTx(tx, edgeID); err != nil {
				t.Fatal(err)
			}
			if _, err := base.Heap.UpdateRowsTx(tx, ids, after); err != nil {
				t.Fatal(err)
			}
			deltas = []txn.Delta{{Table: "pseq", Kind: txn.DeltaDelete, Cols: cols, Rows: []sqltypes.Row{edge}}, renumber}
		}
		m.Fold(tx, deltas)
		m.commit(tx, nil)
		if m.Stale("pmv") {
			_, why := m.StaleInfo("pmv")
			t.Fatalf("a shift of a partitioned view must keep it fresh: %s", why)
		}
		checkPartitionBacking(t, cat, "a", "after the shift")
		checkPartitionBacking(t, cat, "b", "after the shift (untouched partition)")
	}
	shift(2, 1, sqltypes.Row{sqltypes.NewString("a"), sqltypes.NewInt(2), sqltypes.NewInt(-40)})
	if raw := basePartition(t, cat, "a"); len(raw) != 7 || raw[1] != -40 {
		t.Fatalf("partition a after the shift insert = %v", raw)
	}
	shift(4, -1, nil)
	if raw := basePartition(t, cat, "a"); len(raw) != 6 || raw[3] != 4*raw[0] {
		t.Fatalf("partition a after the shift delete = %v", raw)
	}
}
