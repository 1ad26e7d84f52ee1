package storage

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"rfview/internal/sqltypes"
	"rfview/internal/txn"
)

func newPagedTestTable(t *testing.T, capBytes int64) *Table {
	t.Helper()
	p := newTestPager(t, MinPageSize, capBytes, nil)
	tb, err := NewPagedTable(txn.NewClock(), p, "t")
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestPagedTableDifferential drives a table on a 2-frame pool (constant
// eviction) through a mutation history and requires every scan, point read
// and index probe to agree with a shadow map[RowID]Row model after each
// phase. Rows include strings big enough to cross pages and jumbo rows
// bigger than a whole page.
func TestPagedTableDifferential(t *testing.T) {
	tb := newPagedTestTable(t, 2*MinPageSize)
	model := map[RowID]sqltypes.Row{}

	mkRow := func(i int) sqltypes.Row {
		pad := strings.Repeat(fmt.Sprintf("<%d>", i), i%97)
		if i%53 == 0 {
			pad = strings.Repeat("J", 3*MinPageSize+i) // jumbo: spans pages
		}
		return sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(pad)}
	}
	same := func(a, b sqltypes.Row) bool {
		return bytes.Equal(sqltypes.EncodeRowData(nil, a), sqltypes.EncodeRowData(nil, b))
	}

	check := func(phase string) {
		t.Helper()
		last := RowID(-1)
		ids, rows := scanAt(t, tb, tb.Latest())
		for i, id := range ids {
			want, ok := model[id]
			if !ok || !same(rows[i], want) || id <= last {
				t.Fatalf("%s: scan yields row %d = %v, model has %v (present %v, previous id %d)", phase, id, rows[i][0], want, ok, last)
			}
			last = id
		}
		if len(ids) != len(model) || tb.Len() != len(model) {
			t.Fatalf("%s: scan saw %d rows, Len %d, model %d", phase, len(ids), tb.Len(), len(model))
		}
	}

	ids := make([]RowID, 300)
	for i := range ids {
		r := mkRow(i)
		id, err := insertRow(tb, r)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		ids[i], model[id] = id, r
	}
	check("after inserts")

	for i := 0; i < 300; i += 7 {
		r := mkRow(i + 1000)
		nid, err := updateRow(tb, ids[i], r)
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		delete(model, ids[i])
		ids[i], model[nid] = nid, r
	}
	check("after updates")

	var deleted []sqltypes.Row
	for i := 3; i < 300; i += 11 {
		if err := deleteRow(tb, ids[i]); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		deleted = append(deleted, model[ids[i]])
		delete(model, ids[i])
	}
	check("after deletes")

	// Reads by id: each version, or none once deleted.
	for _, id := range ids {
		got, want := get(t, tb, id), model[id]
		if (got == nil) != (want == nil) || (got != nil && !same(got, want)) {
			t.Fatalf("Get(%d) = %v, model has %v", id, got, want)
		}
	}

	// Unique index built over, then maintained on, the evicting heap: every
	// probe resolves its row ids through pages the pool has to reload.
	h, err := tb.AddIndex("pk", []int{0}, true)
	if err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	for i := 300; i < 340; i++ {
		r := mkRow(i)
		id, err := insertRow(tb, r)
		if err != nil {
			t.Fatalf("insert %d under index: %v", i, err)
		}
		ids, model[id] = append(ids, id), r
	}
	for id, r := range model {
		if got, _, err := firstAt(tb, h, r[:1], tb.Latest()); err != nil || got != id {
			t.Fatalf("firstAt(%v) = %d, %v; model has row %d", r[0], got, err, id)
		}
	}
	for _, r := range deleted {
		if got, found, _ := firstAt(tb, h, r[:1], tb.Latest()); found != nil {
			t.Fatalf("firstAt(%v) finds deleted row %d", r[0], got)
		}
	}
	if _, err := insertRow(tb, mkRow(5)); err == nil {
		t.Fatal("insert of a live key must be refused by the unique index")
	}
	if _, err := updateRow(tb, ids[5], mkRow(6)); err == nil {
		t.Fatal("update onto a live key must be refused by the unique index")
	}
	id, err := insertRow(tb, deleted[0])
	if err != nil {
		t.Fatalf("re-insert of a deleted key: %v", err)
	}
	model[id] = deleted[0]
	check("after refused duplicates")

	lo, hi := int64(40), int64(1100)
	var want []RowID
	for id, r := range model {
		if k := r[0].Int(); k >= lo && k <= hi {
			want = append(want, id)
		}
	}
	sort.Slice(want, func(a, b int) bool { return model[want[a]][0].Int() < model[want[b]][0].Int() })
	got, rows, err := drain(tb.RangeIterAt(h, row(lo), row(hi), tb.Latest()))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows { // dead versions stay indexed; RangeIterAt skips them
		if !same(r, model[got[i]]) {
			t.Fatalf("Range entry %d points at row %v, model has %v", got[i], r[0], model[got[i]])
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Range[%d,%d] yields %v, model has %v", lo, hi, got, want)
	}

	if st := tb.heap.pager.Stats(); st.Evictions == 0 {
		t.Fatalf("differential ran without eviction pressure: %+v", st)
	}
}

// TestPagedTableSnapshotScanUnderEviction pins a snapshot, mutates heavily so
// the starved pool churns, and asserts the old snapshot still reads the
// original rows from write-backed pages.
func TestPagedTableSnapshotScanUnderEviction(t *testing.T) {
	tb := newPagedTestTable(t, 2*MinPageSize)
	var ids []RowID
	for i := 0; i < 100; i++ {
		id, err := insertRow(tb, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(strings.Repeat("a", 200))})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	snap := tb.Latest()
	for i, id := range ids {
		if _, err := updateRow(tb, id, sqltypes.Row{sqltypes.NewInt(int64(i + 5000)), sqltypes.NewString(strings.Repeat("b", 300))}); err != nil {
			t.Fatal(err)
		}
	}
	_, rows := scanAt(t, tb, snap)
	for n, r := range rows {
		if r[0].Int() != int64(n) || len(r[1].Str()) != 200 {
			t.Fatalf("snapshot row %d reads post-snapshot data: %v", n, r[0])
		}
	}
	if len(rows) != 100 {
		t.Fatalf("snapshot scan saw %d rows, want 100", len(rows))
	}
	if got := tb.Len(); got != 100 {
		t.Fatalf("Len = %d after updates", got)
	}
}

// TestPagedTableIterStats checks the iterator's page accounting: a full scan
// of a multi-page table reports pages touched and, on a starved pool, misses.
func TestPagedTableIterStats(t *testing.T) {
	tb := newPagedTestTable(t, 2*MinPageSize)
	for i := 0; i < 200; i++ {
		if _, err := insertRow(tb, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(strings.Repeat("x", 100))}); err != nil {
			t.Fatal(err)
		}
	}
	it := tb.IterAt(tb.Latest())
	for {
		_, r, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			break
		}
	}
	st := it.Stats()
	it.Close()
	if st.Pages < 2 {
		t.Fatalf("scan of a multi-page table touched %d pages", st.Pages)
	}
	if st.Hits+st.Misses != st.Pages {
		t.Fatalf("stats do not add up: %+v", st)
	}
}

// firstAt is a point probe through a key-range Iter: the first version under
// key visible in s, a nil row when there is none.
func firstAt(tb *Table, h *IndexHandle, key sqltypes.Row, s txn.Snapshot) (RowID, sqltypes.Row, error) {
	it := tb.RangeIterAt(h, key, key, s)
	defer it.Close()
	return it.Next()
}
