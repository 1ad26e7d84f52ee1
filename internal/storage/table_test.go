package storage

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rfview/internal/sqltypes"
	"rfview/internal/txn"
)

func row(vals ...int64) sqltypes.Row {
	r := make(sqltypes.Row, len(vals))
	for i, v := range vals {
		r[i] = sqltypes.NewInt(v)
	}
	return r
}

// insertRow, updateRow and deleteRow write one row version each in a
// transaction of their own, committed at its own epoch.
func insertRow(tb *Table, r sqltypes.Row) (RowID, error) {
	return commitOne(tb, func(tx *txn.Txn) (RowID, error) { return tb.InsertTx(tx, r) })
}

func updateRow(tb *Table, id RowID, r sqltypes.Row) (RowID, error) {
	return commitOne(tb, func(tx *txn.Txn) (RowID, error) { return tb.UpdateTx(tx, id, r) })
}

func deleteRow(tb *Table, id RowID) error {
	_, err := commitOne(tb, func(tx *txn.Txn) (RowID, error) { return 0, tb.DeleteTx(tx, id) })
	return err
}

// commitOne runs write in a transaction of its own and commits it, or
// aborts it when write fails.
func commitOne(tb *Table, write func(*txn.Txn) (RowID, error)) (RowID, error) {
	tx := tb.Clock().Begin()
	id, err := write(tx)
	if err != nil {
		tx.Abort()
		return 0, err
	}
	tb.Clock().Commit(tx, nil)
	return id, nil
}

// drain reads every remaining row of it with its id, and closes it.
func drain(it *Iter) ([]RowID, []sqltypes.Row, error) {
	defer it.Close()
	var ids []RowID
	var rows []sqltypes.Row
	id, row, err := it.Next()
	for ; row != nil; id, row, err = it.Next() {
		ids, rows = append(ids, id), append(rows, row)
	}
	return ids, rows, err
}

// scanAt reads every version visible in s, in heap order.
func scanAt(t *testing.T, tb *Table, s txn.Snapshot) ([]RowID, []sqltypes.Row) {
	t.Helper()
	ids, rows, err := drain(tb.IterAt(s))
	if err != nil {
		t.Fatal(err)
	}
	return ids, rows
}

// get returns the version under id visible at the latest snapshot, nil when
// none is.
func get(t *testing.T, tb *Table, id RowID) sqltypes.Row {
	t.Helper()
	ids, rows := scanAt(t, tb, tb.Latest())
	if i := slices.Index(ids, id); i >= 0 {
		return rows[i]
	}
	return nil
}

// lookup reads the versions under key in index h visible at the latest
// snapshot.
func lookup(t *testing.T, tb *Table, h *IndexHandle, key sqltypes.Row) ([]RowID, []sqltypes.Row) {
	t.Helper()
	ids, rows, err := drain(tb.RangeIterAt(h, key, key, tb.Latest()))
	if err != nil {
		t.Fatal(err)
	}
	return ids, rows
}

func TestTableInsertScan(t *testing.T) {
	tb := newPagedTestTable(t, 0)
	for i := int64(0); i < 10; i++ {
		if _, err := insertRow(tb, row(i, i*i)); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Len() != 10 {
		t.Fatalf("Len = %d", tb.Len())
	}
	ids, rows := scanAt(t, tb, tb.Latest())
	for i, r := range rows {
		if r[1].Int() != r[0].Int()*r[0].Int() {
			t.Fatalf("row %d corrupted: %v", ids[i], r)
		}
	}
	if len(rows) != 10 {
		t.Fatalf("scanned %d rows", len(rows))
	}
}

func TestTableDeleteUpdate(t *testing.T) {
	tb := newPagedTestTable(t, 0)
	ids := make([]RowID, 5)
	for i := int64(0); i < 5; i++ {
		ids[i], _ = insertRow(tb, row(i))
	}
	if err := deleteRow(tb, ids[2]); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 4 {
		t.Fatalf("Len = %d after delete", tb.Len())
	}
	if get(t, tb, ids[2]) != nil {
		t.Error("deleted row still visible")
	}
	if err := deleteRow(tb, ids[2]); err == nil {
		t.Error("double delete must fail")
	}
	nid, err := updateRow(tb, ids[3], row(99))
	if err != nil {
		t.Fatal(err)
	}
	if get(t, tb, ids[3]) != nil {
		t.Error("old version still visible after update")
	}
	if get(t, tb, nid)[0].Int() != 99 {
		t.Error("update not visible")
	}
	if _, err := updateRow(tb, ids[2], row(1)); err == nil {
		t.Error("update of deleted row must fail")
	}
	if get(t, tb, RowID(100)) != nil {
		t.Error("out-of-range Get must return nil")
	}
}

func TestTableIndexMaintenance(t *testing.T) {
	tb := newPagedTestTable(t, 0)
	for i := int64(0); i < 100; i++ {
		insertRow(tb, row(i%10, i))
	}
	h, err := tb.AddIndex("by_a", []int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	threes, rows := lookup(t, tb, h, row(3))
	for _, r := range rows {
		if r[0].Int() != 3 {
			t.Fatalf("index returned wrong row %v", r)
		}
	}
	if len(rows) != 10 {
		t.Fatalf("index lookup found %d rows, want 10", len(rows))
	}
	// Mutations keep visible probe results in sync (dead versions stay in
	// the index but are filtered out).
	if err := deleteRow(tb, threes[0]); err != nil {
		t.Fatal(err)
	}
	if _, rows = lookup(t, tb, h, row(3)); len(rows) != 9 {
		t.Fatalf("after delete index finds %d rows, want 9", len(rows))
	}
	// Update that moves the key.
	fours, _ := lookup(t, tb, h, row(4))
	if _, err := updateRow(tb, fours[0], row(7, -1)); err != nil {
		t.Fatal(err)
	}
	if _, rows = lookup(t, tb, h, row(7)); len(rows) != 11 {
		t.Fatalf("after key-moving update index finds %d rows under 7, want 11", len(rows))
	}
}

func TestTableUniqueIndex(t *testing.T) {
	tb := newPagedTestTable(t, 0)
	insertRow(tb, row(1))
	insertRow(tb, row(2))
	if _, err := tb.AddIndex("pk", []int{0}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := insertRow(tb, row(1)); err == nil {
		t.Error("unique violation on insert must fail")
	}
	if _, err := insertRow(tb, row(3)); err != nil {
		t.Errorf("distinct insert failed: %v", err)
	}
	// Building a unique index over duplicates must fail.
	tb2 := newPagedTestTable(t, 0)
	insertRow(tb2, row(1))
	insertRow(tb2, row(1))
	if _, err := tb2.AddIndex("pk", []int{0}, true); err == nil {
		t.Error("unique index build over duplicates must fail")
	}
}

// TestTableUpdateUniqueAtStatementEnd: one statement's update claims every
// version it replaces before it checks a replacement, so a +1 renumbering of
// a unique column succeeds, while a true duplicate — two replacements with
// one key, or a replacement colliding with a row outside the statement —
// fails as an insert's duplicate does, and the statement's rollback leaves
// the transaction without a pending write.
func TestTableUpdateUniqueAtStatementEnd(t *testing.T) {
	tb := newPagedTestTable(t, 0)
	ids := map[int64]RowID{}
	for p := int64(1); p <= 5; p++ {
		ids[p], _ = insertRow(tb, row(p, 10*p))
	}
	if _, err := tb.AddIndex("pk", []int{0}, true); err != nil {
		t.Fatal(err)
	}
	// statement runs one update statement in tx, from position p to to[p].
	statement := func(tx *txn.Txn, to map[int64]int64) error {
		var sids []RowID
		var rows []sqltypes.Row
		for p := int64(1); p <= 6; p++ {
			if q, ok := to[p]; ok {
				sids, rows = append(sids, ids[p]), append(rows, row(q, 10*p))
			}
		}
		nids, err := tb.UpdateRowsTx(tx, sids, rows)
		if err == nil {
			for i, r := range rows {
				ids[r[0].Int()] = nids[i]
			}
		}
		return err
	}
	tx := tb.Clock().Begin()
	if err := statement(tx, map[int64]int64{3: 4, 4: 5, 5: 6}); err != nil {
		t.Fatalf("UPDATE SET pos = pos + 1 WHERE pos >= 3 over a unique index: %v", err)
	}
	tb.Clock().Commit(tx, nil)
	delete(ids, 3)
	got := map[int64]int64{}
	_, rows := scanAt(t, tb, tb.Latest())
	for _, r := range rows {
		got[r[0].Int()] = r[1].Int()
	}
	if want := map[int64]int64{1: 10, 2: 20, 4: 30, 5: 40, 6: 50}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after the renumbering the table holds %v, want %v", got, want)
	}

	_, dup := insertRow(tb, row(2, 0))
	if dup == nil {
		t.Fatal("a duplicate insert must fail")
	}
	for _, to := range []map[int64]int64{{1: 7, 4: 7}, {1: 2}} {
		tx := tb.Clock().Begin()
		if _, err := tb.InsertTx(tx, row(9, 9)); err != nil { // an earlier statement
			t.Fatal(err)
		}
		w, d := tx.Mark()
		err := statement(tx, to)
		want := strings.Replace(dup.Error(), row(2).String(), row(to[1]).String(), 1)
		if err == nil || err.Error() != want {
			t.Fatalf("update %v: got %v, want %q", to, err, want)
		}
		tx.AbortTo(w, d)
		if writes, _ := tx.Mark(); writes != 1 {
			t.Fatalf("update %v: the failed statement left %d pending writes besides the insert", to, writes-1)
		}
		tx.Abort()
		if _, rows := scanAt(t, tb, tb.Latest()); len(rows) != 5 {
			t.Fatalf("update %v: after the rollback the table holds %d rows, want 5", to, len(rows))
		}
	}
}

func TestTableIndexAdministration(t *testing.T) {
	tb := newPagedTestTable(t, 0)
	insertRow(tb, row(1, 2))
	if _, err := tb.AddIndex("i1", []int{0}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddIndex("i1", []int{1}, false); err == nil {
		t.Error("duplicate index name must fail")
	}
	if h := tb.IndexOn([]int{0}); h == nil || h.Name != "i1" {
		t.Error("IndexOn([0]) should find i1")
	}
	if h := tb.IndexOn([]int{1}); h != nil {
		t.Error("IndexOn([1]) should find nothing")
	}
	if len(tb.Indexes()) != 1 {
		t.Error("Indexes() length mismatch")
	}
	if err := tb.DropIndex("i1"); err != nil {
		t.Fatal(err)
	}
	if err := tb.DropIndex("i1"); err == nil {
		t.Error("dropping a missing index must fail")
	}
}
