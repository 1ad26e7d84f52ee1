package mview

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/exec"
	"rfview/internal/plan"
	"rfview/internal/spill"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
	"rfview/internal/txn"
)

// emptyCatalog returns an empty catalog over a small private pager that
// closes with the test.
func emptyCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	p := storage.NewPager(storage.PagerConfig{Env: spill.NewEnv(t.TempDir())})
	t.Cleanup(func() { p.Close() })
	return catalog.New(p)
}

// fixture builds a catalog with seq(pos,val) filled with val = pos*pos and a
// manager (without a plain-view executor).
func fixture(t *testing.T, n int) (*catalog.Catalog, *Manager) {
	t.Helper()
	cat := emptyCatalog(t)
	tbl, err := cat.CreateTable("seq", []catalog.Column{
		{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i + 1)), sqltypes.NewInt(int64((i + 1) * (i + 1)))}
	}
	insertRows(t, tbl, rows...)
	return cat, NewManager(cat, planExec(cat))
}

// insertRows writes rows into tbl in one committed transaction.
func insertRows(t testing.TB, tbl *catalog.Table, rows ...sqltypes.Row) {
	t.Helper()
	tx := tbl.Heap.Clock().Begin()
	for _, r := range rows {
		if _, err := tbl.Heap.InsertTx(tx, r); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Heap.Clock().Commit(tx, nil)
}

// begin starts a transaction on the catalog's clock.
func (m *Manager) begin() *txn.Txn { return m.cat.Clock().Begin() }

// commit publishes tx at one epoch, running stamp (a create's or a
// refresh's publish step) inside, and reclaims, as an engine commit does.
func (m *Manager) commit(tx *txn.Txn, stamp func(uint64)) {
	m.cat.Clock().Commit(tx, stamp)
	tx.ReclaimTouched()
}

// createView runs CREATE MATERIALIZED VIEW in a transaction of its own and
// checks that it commits at one epoch.
// drain reads every remaining row of it with its id, and closes it.
func drain(it *storage.Iter) ([]storage.RowID, []sqltypes.Row, error) {
	defer it.Close()
	var ids []storage.RowID
	var rows []sqltypes.Row
	id, row, err := it.Next()
	for ; row != nil; id, row, err = it.Next() {
		ids, rows = append(ids, id), append(rows, row)
	}
	return ids, rows, err
}

// rowsAt reads every row of heap visible in s, with its id, in heap order.
func rowsAt(t testing.TB, heap *storage.Table, s txn.Snapshot) ([]storage.RowID, []sqltypes.Row) {
	t.Helper()
	ids, rows, err := drain(heap.IterAt(s))
	if err != nil {
		t.Fatal(err)
	}
	return ids, rows
}

// findRow returns the first row of heap visible in s that match accepts, a
// nil row when there is none.
func findRow(t testing.TB, heap *storage.Table, s txn.Snapshot, match func(sqltypes.Row) bool) (storage.RowID, sqltypes.Row) {
	t.Helper()
	ids, rows := rowsAt(t, heap, s)
	for i, r := range rows {
		if match(r) {
			return ids[i], r
		}
	}
	return 0, nil
}

func createView(t *testing.T, m *Manager, ddl string) {
	t.Helper()
	before := m.cat.Clock().Now()
	if err := tryCreate(m, ddl); err != nil {
		t.Fatal(err)
	}
	if after := m.cat.Clock().Now(); after != before+1 {
		t.Fatalf("creating a view advanced the clock from %d to %d, want one epoch", before, after)
	}
}

// tryCreate runs CREATE MATERIALIZED VIEW in a transaction of its own,
// which it aborts if the create fails.
func tryCreate(m *Manager, ddl string) error {
	stmt, err := sqlparser.Parse(ddl)
	if err != nil {
		return err
	}
	tx := m.begin()
	publish, err := m.CreateTx(context.Background(), tx, stmt.(*sqlparser.CreateMatView))
	if err != nil {
		tx.Abort()
		return err
	}
	m.commit(tx, publish)
	return nil
}

const seqViewDDL = `CREATE MATERIALIZED VIEW mv AS
  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq`

// viewValues reads the backing table into a pos→val map.
func viewValues(t *testing.T, cat *catalog.Catalog, name string) map[int64]float64 {
	t.Helper()
	mv, ok := cat.MatView(name)
	if !ok {
		t.Fatalf("view %q missing", name)
	}
	out := make(map[int64]float64)
	_, rows := rowsAt(t, mv.Table.Heap, mv.Table.Heap.Latest())
	for _, row := range rows {
		out[row[0].Int()] = row[1].Float()
	}
	return out
}

// denseRaw reads seq's (pos, val) as the one raw sequence of a simple view.
func denseRaw(m *Manager, base *catalog.Table) ([]float64, error) {
	tx := m.begin()
	defer tx.Release()
	var raw []float64
	q := &seqView{mv: &catalog.MatView{BaseTable: base.Name, PosColumn: "pos", ValColumn: "val"}}
	_, err := m.exec(context.Background(), tx, q.fillQuery(), func(r sqltypes.Row) error {
		if r[0].Int() != int64(len(raw)+1) {
			return fmt.Errorf("position %v follows position %d", r[0], len(raw))
		}
		raw = append(raw, r[1].Float())
		return nil
	})
	return raw, err
}

// AfterInsert, AfterUpdate and AfterDelete fold one delta of the given kind
// into the views and commit tx, which holds the base writes, as a commit of
// one statement does.
func (m *Manager) AfterInsert(tx *txn.Txn, table string, rows []sqltypes.Row, cols []string) {
	m.Fold(tx, []txn.Delta{{Table: table, Kind: txn.DeltaInsert, Cols: cols, Rows: rows}})
	m.commit(tx, nil)
}

func (m *Manager) AfterUpdate(tx *txn.Txn, table string, before, after []sqltypes.Row, cols []string) {
	m.Fold(tx, []txn.Delta{{Table: table, Kind: txn.DeltaUpdate, Cols: cols, Before: before, After: after}})
	m.commit(tx, nil)
}

func (m *Manager) AfterDelete(tx *txn.Txn, table string, deleted []sqltypes.Row, cols []string) {
	m.Fold(tx, []txn.Delta{{Table: table, Kind: txn.DeltaDelete, Cols: cols, Rows: deleted}})
	m.commit(tx, nil)
}

// refresh runs REFRESH MATERIALIZED VIEW in a transaction of its own.
func refresh(m *Manager, name string) error {
	tx := m.begin()
	stamp, err := m.RefreshTx(context.Background(), tx, name)
	if err != nil {
		tx.Abort()
		return err
	}
	m.commit(tx, stamp)
	return nil
}

// checkViewMatchesCore verifies the backing table equals a fresh core
// computation of the sequence it stores over the base table's current
// contents.
func checkViewMatchesCore(t *testing.T, cat *catalog.Catalog, m *Manager, name string, win core.Window, agg core.Agg) {
	t.Helper()
	checkViewMatches(t, cat, m, name, win, agg, core.ComputePipelined)
}

// checkViewMatches is checkViewMatchesCore against a chosen evaluation of the
// paper's model (pipelined, or the explicit form core.ComputeNaive).
func checkViewMatches(t *testing.T, cat *catalog.Catalog, m *Manager, name string, win core.Window, agg core.Agg,
	compute func([]float64, core.Window, core.Agg) (*core.Sequence[float64], error)) {
	t.Helper()
	base, err := cat.Table("seq")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := denseRaw(m, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := compute(raw, win, storedAgg(agg))
	if err != nil {
		t.Fatal(err)
	}
	if diff := viewDiff(want, viewValues(t, cat, name)); diff != "" {
		t.Fatalf("view %q %s", name, diff)
	}
}

// storedAgg is the aggregate of the sequence a view of agg keeps in its
// backing rows: an AVG view stores its window sums.
func storedAgg(agg core.Agg) core.Agg {
	if agg == core.Avg {
		return core.Sum
	}
	return agg
}

// viewDiff says how a view's pos→val rows differ from the sequence want,
// "" when they hold it.
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

func TestCreateSequenceView(t *testing.T) {
	cat, m := fixture(t, 20)
	createView(t, m, seqViewDDL)
	mv, ok := cat.MatView("mv")
	if !ok || mv.Kind != catalog.SequenceView {
		t.Fatal("sequence view not registered")
	}
	if mv.Window.Preceding != 2 || mv.Window.Following != 1 {
		t.Fatalf("view metadata = %+v", mv)
	}
	// Complete sequence: header position 0 and trailer rows 21, 22 present.
	vals := viewValues(t, cat, "mv")
	if _, ok := vals[0]; !ok {
		t.Error("header row missing")
	}
	if _, ok := vals[22]; !ok {
		t.Error("trailer row missing")
	}
	checkViewMatchesCore(t, cat, m, "mv", core.Sliding(2, 1), core.Sum)
	// The backing table has a pk index for the derivation patterns.
	if mv.Table.Heap.IndexOn([]int{0}) == nil {
		t.Error("backing table must carry a position index")
	}
}

func TestCreateCumulativeAndMinMaxViews(t *testing.T) {
	cat, m := fixture(t, 15)
	createView(t, m, `CREATE MATERIALIZED VIEW cum AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS val FROM seq`)
	checkViewMatchesCore(t, cat, m, "cum", core.Cumul(), core.Sum)
	createView(t, m, `CREATE MATERIALIZED VIEW mn AS
	  SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM seq`)
	checkViewMatchesCore(t, cat, m, "mn", core.Sliding(2, 2), core.Min)
	createView(t, m, `CREATE MATERIALIZED VIEW av AS
	  SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM seq`)
	checkViewMatchesCore(t, cat, m, "av", core.Sliding(1, 1), core.Avg)
	createView(t, m, `CREATE MATERIALIZED VIEW ct AS
	  SELECT pos, COUNT(*) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM seq`)
	checkViewMatchesCore(t, cat, m, "ct", core.Sliding(1, 1), core.Count)
}

func TestCreateRejectsNonDense(t *testing.T) {
	cat, m := fixture(t, 5)
	base, _ := cat.Table("seq")
	// Punch a hole.
	victim, _ := findRow(t, base.Heap, base.Heap.Latest(), func(r sqltypes.Row) bool { return r[0].Int() == 3 })
	tx := m.begin()
	if err := base.Heap.DeleteTx(tx, victim); err != nil {
		t.Fatal(err)
	}
	m.commit(tx, nil)
	err := tryCreate(m, seqViewDDL)
	if err == nil || !strings.Contains(err.Error(), "dense") {
		t.Fatalf("gap must be rejected: %v", err)
	}
}

func TestIncrementalUpdate(t *testing.T) {
	cat, m := fixture(t, 25)
	createView(t, m, seqViewDDL)
	base, _ := cat.Table("seq")
	cols := base.ColumnNames()
	// Update pos 10: 100 → 7.
	id, before := findRow(t, base.Heap, base.Heap.Latest(), func(r sqltypes.Row) bool { return r[0].Int() == 10 })
	after := sqltypes.Row{sqltypes.NewInt(10), sqltypes.NewInt(7)}
	tx := m.begin()
	if _, err := base.Heap.UpdateTx(tx, id, after); err != nil {
		t.Fatal(err)
	}
	m.AfterUpdate(tx, "seq", []sqltypes.Row{before}, []sqltypes.Row{after}, cols)
	if m.Stale("mv") {
		t.Fatal("value update must stay incremental")
	}
	if n := m.Stats().MaintenanceEvents.Load(); n != 1 {
		t.Fatalf("events = %d", n)
	}
	checkViewMatchesCore(t, cat, m, "mv", core.Sliding(2, 1), core.Sum)
}

func TestIncrementalAppendAndSuffixDelete(t *testing.T) {
	cat, m := fixture(t, 10)
	createView(t, m, seqViewDDL)
	base, _ := cat.Table("seq")
	cols := base.ColumnNames()

	row := sqltypes.Row{sqltypes.NewInt(11), sqltypes.NewInt(1000)}
	tx := m.begin()
	if _, err := base.Heap.InsertTx(tx, row); err != nil {
		t.Fatal(err)
	}
	m.AfterInsert(tx, "seq", []sqltypes.Row{row}, cols)
	if m.Stale("mv") {
		t.Fatal("append must stay incremental")
	}
	// The trailer moved to 11+l: the view's rows say n is 11.
	checkViewMatchesCore(t, cat, m, "mv", core.Sliding(2, 1), core.Sum)

	// Suffix delete.
	id, _ := findRow(t, base.Heap, base.Heap.Latest(), func(r sqltypes.Row) bool { return r[0].Int() == 11 })
	tx = m.begin()
	if err := base.Heap.DeleteTx(tx, id); err != nil {
		t.Fatal(err)
	}
	m.AfterDelete(tx, "seq", []sqltypes.Row{row}, cols)
	if m.Stale("mv") {
		t.Fatal("suffix delete must stay incremental")
	}
	checkViewMatchesCore(t, cat, m, "mv", core.Sliding(2, 1), core.Sum)
}

func TestStalenessPaths(t *testing.T) {
	cases := []struct {
		name string
		muck func(m *Manager, base *catalog.Table)
	}{
		{"middle insert", func(m *Manager, base *catalog.Table) {
			row := sqltypes.Row{sqltypes.NewInt(3), sqltypes.NewInt(1)}
			m.AfterInsert(m.begin(), "seq", []sqltypes.Row{row}, base.ColumnNames())
		}},
		{"middle delete", func(m *Manager, base *catalog.Table) {
			row := sqltypes.Row{sqltypes.NewInt(3), sqltypes.NewInt(9)}
			m.AfterDelete(m.begin(), "seq", []sqltypes.Row{row}, base.ColumnNames())
		}},
		{"position update", func(m *Manager, base *catalog.Table) {
			before := sqltypes.Row{sqltypes.NewInt(3), sqltypes.NewInt(9)}
			after := sqltypes.Row{sqltypes.NewInt(30), sqltypes.NewInt(9)}
			m.AfterUpdate(m.begin(), "seq", []sqltypes.Row{before}, []sqltypes.Row{after}, base.ColumnNames())
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cat, m := fixture(t, 10)
			createView(t, m, seqViewDDL)
			base, _ := cat.Table("seq")
			c.muck(m, base)
			if !m.Stale("mv") {
				t.Fatal("expected staleness")
			}
			if err := m.CheckFresh("mv", cat.Clock().Now()); err == nil {
				t.Fatal("CheckFresh must fail on a stale view")
			}
		})
	}
}

func TestRefreshClearsStaleness(t *testing.T) {
	cat, m := fixture(t, 10)
	createView(t, m, seqViewDDL)
	base, _ := cat.Table("seq")
	// Fake a staleness marker, then refresh against unchanged (dense) data.
	m.AfterInsert(m.begin(), "seq", []sqltypes.Row{{sqltypes.NewInt(5), sqltypes.NewInt(1)}}, base.ColumnNames())
	if !m.Stale("mv") {
		t.Fatal("expected staleness")
	}
	if err := refresh(m, "mv"); err != nil {
		t.Fatal(err)
	}
	if m.Stale("mv") {
		t.Fatal("refresh must clear staleness")
	}
	checkViewMatchesCore(t, cat, m, "mv", core.Sliding(2, 1), core.Sum)
}

func TestDropView(t *testing.T) {
	cat, m := fixture(t, 5)
	createView(t, m, seqViewDDL)
	if err := m.Drop("mv"); err != nil {
		t.Fatal(err)
	}
	if _, ok := cat.MatView("mv"); ok {
		t.Fatal("view survived drop")
	}
	if _, err := cat.Table("__mv_mv"); err == nil {
		t.Fatal("backing table survived drop")
	}
	if err := m.Drop("mv"); err == nil {
		t.Fatal("double drop must fail")
	}
	if err := refresh(m, "mv"); err == nil {
		t.Fatal("refresh of dropped view must fail")
	}
}

func TestCumulativeViewMaintained(t *testing.T) {
	cat, m := fixture(t, 10)
	createView(t, m, `CREATE MATERIALIZED VIEW cum AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS val FROM seq`)
	base, _ := cat.Table("seq")
	cols := base.ColumnNames()
	id, before := findRow(t, base.Heap, base.Heap.Latest(), func(r sqltypes.Row) bool { return r[0].Int() == 4 })
	after := sqltypes.Row{sqltypes.NewInt(4), sqltypes.NewInt(-50)}
	tx := m.begin()
	if _, err := base.Heap.UpdateTx(tx, id, after); err != nil {
		t.Fatal(err)
	}
	m.AfterUpdate(tx, "seq", []sqltypes.Row{before}, []sqltypes.Row{after}, cols)
	if m.Stale("cum") {
		t.Fatal("cumulative update must stay incremental")
	}
	checkViewMatchesCore(t, cat, m, "cum", core.Cumul(), core.Sum)
}

// planExec is the engine's ExecFunc over cat, without an engine: the
// planner and the executor run the statement at tx's snapshot.
func planExec(cat *catalog.Catalog) ExecFunc {
	return func(ctx context.Context, tx *txn.Txn, stmt sqlparser.SelectStatement, emit func(sqltypes.Row) error) ([]string, error) {
		op, err := plan.New(cat, plan.Options{Ctx: ctx, Snap: func() txn.Snapshot { return tx.Snap }}).PlanSelect(stmt)
		if err != nil {
			return nil, err
		}
		return plan.OutputNames(op), exec.Drain(ctx, op, emit)
	}
}

func TestPlainViewLifecycle(t *testing.T) {
	cat := emptyCatalog(t)
	rows := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewString("x")},
		{sqltypes.NewInt(2), sqltypes.NewString("y")},
	}
	tbl, err := cat.CreateTable("wherever", []catalog.Column{{Name: "a", Type: sqltypes.Int}, {Name: "b", Type: sqltypes.String}})
	if err != nil {
		t.Fatal(err)
	}
	insertRows(t, tbl, rows...)
	m := NewManager(cat, planExec(cat))
	createView(t, m, `CREATE MATERIALIZED VIEW pv AS SELECT a, a + 1 FROM wherever`)
	mv, ok := cat.MatView("pv")
	if !ok || mv.Kind != catalog.PlainView {
		t.Fatal("plain view not registered")
	}
	// Unnamed columns get synthesized names.
	if mv.Table.Columns[1].Name != "column_2" {
		t.Fatalf("columns = %+v", mv.Table.Columns)
	}
	if mv.Table.Heap.Len() != 2 {
		t.Fatalf("backing rows = %d", mv.Table.Heap.Len())
	}
	// Plain views ignore DML notifications entirely.
	m.AfterInsert(m.begin(), "wherever", rows, []string{"a", "b"})
	if m.Stale("pv") {
		t.Fatal("plain views have no staleness")
	}
	if err := refresh(m, "pv"); err != nil {
		t.Fatal(err)
	}
	if mv.Table.Heap.Len() != 2 {
		t.Fatalf("refresh lost rows: %d", mv.Table.Heap.Len())
	}
	if err := m.Drop("pv"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Table("__mv_pv"); err == nil {
		t.Fatal("backing table survived drop")
	}
}

func TestPlainViewWithoutExecutor(t *testing.T) {
	cat, _ := fixture(t, 10)
	m := NewManager(cat, nil)
	for _, ddl := range []string{
		`CREATE MATERIALIZED VIEW pv AS SELECT a FROM t`,
		// A LIMIT keeps a prefix of a window query's rows, not a complete
		// sequence: the view is a plain one.
		`CREATE MATERIALIZED VIEW pv AS SELECT pos, SUM(val) OVER (ORDER BY pos ROWS 1 PRECEDING) AS val FROM seq LIMIT 3`,
	} {
		if err := tryCreate(m, ddl); err == nil {
			t.Fatalf("%s: a plain view without an executor must fail", ddl)
		}
	}
}

func TestCheckFreshUnknownView(t *testing.T) {
	m := NewManager(emptyCatalog(t), nil)
	if err := m.CheckFresh("nope", 0); err != nil {
		t.Fatal("unknown names are not the manager's concern")
	}
	if m.Stale("nope") {
		t.Fatal("unknown views are not stale")
	}
}

// TestFoldReadsRawAsOfEachChange: the base table holds every change of a
// fold before the first is applied, so a change that recomputes its band
// from raw values must see later changes' positions as they were before
// them — here the two rows one DELETE removes from a MIN view, and an
// append a later statement of the same transaction deletes again from an
// AVG view.
func TestFoldReadsRawAsOfEachChange(t *testing.T) {
	cat, m := fixture(t, 10)
	createView(t, m, `CREATE MATERIALIZED VIEW mn AS
	  SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM seq`)
	createView(t, m, `CREATE MATERIALIZED VIEW av AS
	  SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 2 FOLLOWING) AS val FROM seq`)
	base, _ := cat.Table("seq")
	cols := base.ColumnNames()
	tx := m.begin()
	take := func(pos int64) sqltypes.Row {
		t.Helper()
		id, row := findRow(t, base.Heap, base.Heap.Latest(), func(r sqltypes.Row) bool { return r[0].Int() == pos })
		if err := base.Heap.DeleteTx(tx, id); err != nil {
			t.Fatal(err)
		}
		return row
	}
	tail := []sqltypes.Row{take(9), take(10)}
	extra := sqltypes.Row{sqltypes.NewInt(9), sqltypes.NewInt(-4)}
	m.Fold(tx, []txn.Delta{
		{Table: "seq", Kind: txn.DeltaDelete, Cols: cols, Rows: tail},
		{Table: "seq", Kind: txn.DeltaInsert, Cols: cols, Rows: []sqltypes.Row{extra}},
		{Table: "seq", Kind: txn.DeltaDelete, Cols: cols, Rows: []sqltypes.Row{extra}},
	})
	m.commit(tx, nil)
	for _, v := range []string{"mn", "av"} {
		if m.Stale(v) {
			_, why := m.StaleInfo(v)
			t.Fatalf("%s went stale: %s", v, why)
		}
	}
	checkViewMatchesCore(t, cat, m, "mn", core.Sliding(1, 1), core.Min)
	checkViewMatchesCore(t, cat, m, "av", core.Sliding(1, 2), core.Avg)
	if got := m.Stats().DeltaApplied.Load(); got != 6 {
		t.Fatalf("DeltaApplied = %d, want 3 deltas × 2 views", got)
	}
}

// TestFoldBaseReads: a fold reads the base table only for band recomputes,
// and over a base without a position index it reads it once per view
// however many rows the commit changed. A COUNT append, a FLOAT MIN
// widening and an AVG view's value update, append and suffix delete read
// none: an AVG view stores its window sums.
func TestFoldBaseReads(t *testing.T) {
	const n, changed = 2000, 25
	type fixture struct {
		cat  *catalog.Catalog
		m    *Manager
		base *catalog.Table
		p    *storage.Pager
	}
	setup := func(ddls ...string) fixture {
		p := storage.NewPager(storage.PagerConfig{Env: spill.NewEnv(t.TempDir())})
		t.Cleanup(func() { p.Close() })
		cat := catalog.New(p)
		base, err := cat.CreateTable("seq", []catalog.Column{
			{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Float}, {Name: "pad", Type: sqltypes.String},
		})
		if err != nil {
			t.Fatal(err)
		}
		pad := sqltypes.NewString(strings.Repeat("x", 400)) // many base pages, few backing ones
		rows := make([]sqltypes.Row, n)
		for i := range rows {
			rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i + 1)), sqltypes.NewFloat(float64((i + 1) % 13)), pad}
		}
		insertRows(t, base, rows...)
		m := NewManager(cat, planExec(cat))
		for _, ddl := range ddls {
			createView(t, m, ddl)
		}
		return fixture{cat, m, base, p}
	}
	acquired := func(f fixture, fn func()) int64 {
		before := f.p.Stats()
		fn()
		after := f.p.Stats()
		return after.Hits + after.Misses - before.Hits - before.Misses
	}
	// update raises the values at the given positions in tx and returns the
	// delta.
	update := func(f fixture, tx *txn.Txn, positions []int64) txn.Delta {
		d := txn.Delta{Table: "seq", Kind: txn.DeltaUpdate, Cols: f.base.ColumnNames()}
		for _, pos := range positions {
			id, row := findRow(t, f.base.Heap, f.base.Heap.Latest(), func(r sqltypes.Row) bool { return r[0].Int() == pos })
			after := row.Clone()
			after[1] = sqltypes.NewFloat(row[1].Float() + 100)
			if _, err := f.base.Heap.UpdateTx(tx, id, after); err != nil {
				t.Fatal(err)
			}
			d.Before, d.After = append(d.Before, row), append(d.After, after)
		}
		return d
	}
	positions := make([]int64, changed)
	for i := range positions {
		positions[i] = int64(40 + i*(n-80)/changed) // scattered: one band each
	}
	avgView := `CREATE MATERIALIZED VIEW av AS SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM seq`
	recompute := []string{
		`CREATE MATERIALIZED VIEW mx AS SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq`,
	}
	// One commit of all the changes against one commit per change.
	batch, single := setup(recompute...), setup(recompute...)
	var pBatch, pSingle int64
	for _, pos := range positions {
		tx := single.m.begin()
		d := update(single, tx, []int64{pos})
		pSingle += acquired(single, func() { single.m.Fold(tx, []txn.Delta{d}) })
		single.m.commit(tx, nil)
	}
	tx := batch.m.begin()
	d := update(batch, tx, positions)
	pBatch = acquired(batch, func() { batch.m.Fold(tx, []txn.Delta{d}) })
	batch.m.commit(tx, nil)
	for _, f := range []fixture{batch, single} {
		checkViewMatchesCore(t, f.cat, f.m, "mx", core.Sliding(2, 1), core.Min)
	}
	if pBatch*4 > pSingle {
		t.Fatalf("one commit of %d changes acquired %d pages, %d commits of one %d: the fold reads the base per change", changed, pBatch, changed, pSingle)
	}

	// COUNT appends and FLOAT MIN widenings read no base row: their cost
	// does not grow with the base table.
	f := setup(
		`CREATE MATERIALIZED VIEW ct AS SELECT pos, COUNT(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq`,
		`CREATE MATERIALIZED VIEW mn AS SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq`)
	scan := acquired(f, func() { rowsAt(t, f.base.Heap, f.base.Heap.Latest()) })
	row := sqltypes.Row{sqltypes.NewInt(n + 1), sqltypes.NewFloat(-1), sqltypes.NewString("")}
	tx = f.m.begin()
	if _, err := f.base.Heap.InsertTx(tx, row); err != nil {
		t.Fatal(err)
	}
	got := acquired(f, func() { f.m.AfterInsert(tx, "seq", []sqltypes.Row{row}, f.base.ColumnNames()) })
	for _, v := range []string{"ct", "mn"} {
		if f.m.Stale(v) {
			t.Fatalf("%s went stale", v)
		}
	}
	checkViewMatchesCore(t, f.cat, f.m, "ct", core.Sliding(2, 1), core.Count)
	checkViewMatchesCore(t, f.cat, f.m, "mn", core.Sliding(2, 1), core.Min)
	if got*2 > scan {
		t.Fatalf("an append to COUNT and MIN views acquired %d pages; a scan of the base acquires %d", got, scan)
	}

	a := setup(avgView)
	last := sqltypes.Row{sqltypes.NewInt(n + 1), sqltypes.NewFloat(7), sqltypes.NewString("")}
	for _, step := range []struct {
		name   string
		change func(tx *txn.Txn) txn.Delta
	}{
		{"value update", func(tx *txn.Txn) txn.Delta { return update(a, tx, []int64{n / 2}) }},
		{"append", func(tx *txn.Txn) txn.Delta {
			if _, err := a.base.Heap.InsertTx(tx, last); err != nil {
				t.Fatal(err)
			}
			return txn.Delta{Table: "seq", Kind: txn.DeltaInsert, Cols: a.base.ColumnNames(), Rows: []sqltypes.Row{last}}
		}},
		{"suffix delete", func(tx *txn.Txn) txn.Delta {
			id, row := baseRow(t, tx, a.base.Heap, n+1)
			if err := a.base.Heap.DeleteTx(tx, id); err != nil {
				t.Fatal(err)
			}
			return txn.Delta{Table: "seq", Kind: txn.DeltaDelete, Cols: a.base.ColumnNames(), Rows: []sqltypes.Row{row}}
		}},
	} {
		tx := a.m.begin()
		d := step.change(tx)
		got := acquired(a, func() { a.m.Fold(tx, []txn.Delta{d}) })
		a.m.commit(tx, nil)
		if a.m.Stale("av") {
			t.Fatalf("av went stale on a %s", step.name)
		}
		checkViewMatchesCore(t, a.cat, a.m, "av", core.Sliding(1, 1), core.Avg)
		if got*2 >= scan {
			t.Fatalf("an AVG view's %s acquired %d pages; a scan of the base acquires %d", step.name, got, scan)
		}
	}
}

// TestSimpleViewEmptiesAndRefills: a simple view keeps its zero header and
// trailer rows when its last base row goes (a partitioned view's partition
// would die), and folds the next append from there.
func TestSimpleViewEmptiesAndRefills(t *testing.T) {
	cat, m := fixture(t, 3)
	createView(t, m, seqViewDDL)
	base, _ := cat.Table("seq")
	cols := base.ColumnNames()
	for pos := int64(3); pos >= 1; pos-- {
		id, row := findRow(t, base.Heap, base.Heap.Latest(), func(r sqltypes.Row) bool { return r[0].Int() == pos })
		tx := m.begin()
		if err := base.Heap.DeleteTx(tx, id); err != nil {
			t.Fatal(err)
		}
		m.AfterDelete(tx, "seq", []sqltypes.Row{row}, cols)
		checkViewMatchesCore(t, cat, m, "mv", core.Sliding(2, 1), core.Sum)
	}
	if got := len(viewValues(t, cat, "mv")); got != 3 {
		t.Fatalf("the empty simple view stores %d rows, want its 3 zero header/trailer rows", got)
	}
	row := sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(8)}
	tx := m.begin()
	if _, err := base.Heap.InsertTx(tx, row); err != nil {
		t.Fatal(err)
	}
	m.AfterInsert(tx, "seq", []sqltypes.Row{row}, cols)
	if m.Stale("mv") {
		t.Fatal("an append to the empty simple view must stay incremental")
	}
	checkViewMatchesCore(t, cat, m, "mv", core.Sliding(2, 1), core.Sum)
}
