package mview

import (
	"context"
	"math"
	"strings"
	"testing"

	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/spill"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
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
	for i := int64(1); i <= int64(n); i++ {
		tbl.Heap.Insert(sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(i * i)})
	}
	return cat, NewManager(cat, nil)
}

func createView(t *testing.T, m *Manager, ddl string) {
	t.Helper()
	stmt, err := sqlparser.Parse(ddl)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Create(stmt.(*sqlparser.CreateMatView)); err != nil {
		t.Fatal(err)
	}
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
	mv.Table.Heap.Scan(func(_ storage.RowID, row sqltypes.Row) bool {
		out[row[0].Int()] = row[1].Float()
		return true
	})
	return out
}

// denseRaw reads seq's (pos, val) as the one raw sequence of a simple view.
func denseRaw(m *Manager, base *catalog.Table) ([]float64, error) {
	_, raws, err := m.readSequences(base, "pos", "val", layout{})
	return raws[""], err
}

// checkViewMatchesCore verifies the backing table equals a fresh core
// computation over the base table's current contents.
func checkViewMatchesCore(t *testing.T, cat *catalog.Catalog, m *Manager, name string, win core.Window, agg core.Agg) {
	t.Helper()
	checkViewMatches(t, cat, m, name, win, agg, core.ComputePipelined)
}

// checkViewMatches is checkViewMatchesCore against a chosen evaluation of the
// paper's model (pipelined, or the explicit form core.ComputeNaive).
func checkViewMatches(t *testing.T, cat *catalog.Catalog, m *Manager, name string, win core.Window, agg core.Agg,
	compute func([]float64, core.Window, core.Agg) (*core.Sequence, error)) {
	t.Helper()
	base, err := cat.Table("seq")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := denseRaw(m, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := compute(raw, win, agg)
	if err != nil {
		t.Fatal(err)
	}
	got := viewValues(t, cat, name)
	count := 0
	for k := want.Lo(); k <= want.Hi(); k++ {
		v, ok := want.AtOK(k)
		if !ok {
			continue
		}
		count++
		gv, present := got[int64(k)]
		if !present || math.Abs(gv-v) > 1e-9 {
			t.Fatalf("view %q at pos %d: got (%v,%v), want %v", name, k, gv, present, v)
		}
	}
	if len(got) != count {
		t.Fatalf("view %q has %d rows, want %d", name, len(got), count)
	}
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
	var victim storage.RowID
	base.Heap.Scan(func(id storage.RowID, row sqltypes.Row) bool {
		if row[0].Int() == 3 {
			victim = id
			return false
		}
		return true
	})
	base.Heap.Delete(victim)
	stmt, _ := sqlparser.Parse(seqViewDDL)
	err := m.Create(stmt.(*sqlparser.CreateMatView))
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
	var id storage.RowID
	var before sqltypes.Row
	base.Heap.Scan(func(i storage.RowID, row sqltypes.Row) bool {
		if row[0].Int() == 10 {
			id, before = i, row
			return false
		}
		return true
	})
	after := sqltypes.Row{sqltypes.NewInt(10), sqltypes.NewInt(7)}
	if _, err := base.Heap.Update(id, after); err != nil {
		t.Fatal(err)
	}
	m.AfterUpdate(nil, "seq", []sqltypes.Row{before}, []sqltypes.Row{after}, cols)
	if m.Stale("mv") {
		t.Fatal("value update must stay incremental")
	}
	if m.MaintenanceEvents != 1 {
		t.Fatalf("events = %d", m.MaintenanceEvents)
	}
	checkViewMatchesCore(t, cat, m, "mv", core.Sliding(2, 1), core.Sum)
}

func TestIncrementalAppendAndSuffixDelete(t *testing.T) {
	cat, m := fixture(t, 10)
	createView(t, m, seqViewDDL)
	base, _ := cat.Table("seq")
	cols := base.ColumnNames()

	row := sqltypes.Row{sqltypes.NewInt(11), sqltypes.NewInt(1000)}
	base.Heap.Insert(row)
	m.AfterInsert(nil, "seq", []sqltypes.Row{row}, cols)
	if m.Stale("mv") {
		t.Fatal("append must stay incremental")
	}
	// The trailer moved to 11+l: the view's rows say n is 11.
	checkViewMatchesCore(t, cat, m, "mv", core.Sliding(2, 1), core.Sum)

	// Suffix delete.
	var id storage.RowID
	base.Heap.Scan(func(i storage.RowID, r sqltypes.Row) bool {
		if r[0].Int() == 11 {
			id = i
			return false
		}
		return true
	})
	base.Heap.Delete(id)
	m.AfterDelete(nil, "seq", []sqltypes.Row{row}, cols)
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
			m.AfterInsert(nil, "seq", []sqltypes.Row{row}, base.ColumnNames())
		}},
		{"middle delete", func(m *Manager, base *catalog.Table) {
			row := sqltypes.Row{sqltypes.NewInt(3), sqltypes.NewInt(9)}
			m.AfterDelete(nil, "seq", []sqltypes.Row{row}, base.ColumnNames())
		}},
		{"position update", func(m *Manager, base *catalog.Table) {
			before := sqltypes.Row{sqltypes.NewInt(3), sqltypes.NewInt(9)}
			after := sqltypes.Row{sqltypes.NewInt(30), sqltypes.NewInt(9)}
			m.AfterUpdate(nil, "seq", []sqltypes.Row{before}, []sqltypes.Row{after}, base.ColumnNames())
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
	m.AfterInsert(nil, "seq", []sqltypes.Row{{sqltypes.NewInt(5), sqltypes.NewInt(1)}}, base.ColumnNames())
	if !m.Stale("mv") {
		t.Fatal("expected staleness")
	}
	if err := m.Refresh("mv"); err != nil {
		t.Fatal(err)
	}
	if m.Stale("mv") {
		t.Fatal("refresh must clear staleness")
	}
	checkViewMatchesCore(t, cat, m, "mv", core.Sliding(2, 1), core.Sum)
}

func TestShiftInsertDelete(t *testing.T) {
	cases := []struct {
		name, over string
		win        core.Window
		agg        core.Agg
	}{
		{"sum", "SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING)", core.Sliding(2, 1), core.Sum},
		{"avg", "AVG(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 2 FOLLOWING)", core.Sliding(1, 2), core.Avg},
		{"cumulative", "SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING)", core.Cumul(), core.Sum},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cat, m := fixture(t, 12)
			createView(t, m, "CREATE MATERIALIZED VIEW mv AS SELECT pos, "+c.over+" AS val FROM seq")
			check := func() {
				t.Helper()
				if m.Stale("mv") {
					t.Fatal("a positional shift must keep the view fresh")
				}
				checkViewMatches(t, cat, m, "mv", c.win, c.agg, core.ComputeNaive)
			}
			if err := m.ShiftInsert("mv", 5, 999); err != nil {
				t.Fatal(err)
			}
			check()
			// Base must have 13 dense rows with 999 at position 5.
			base, _ := cat.Table("seq")
			raw, err := denseRaw(m, base)
			if err != nil {
				t.Fatal(err)
			}
			if len(raw) != 13 || raw[4] != 999 {
				t.Fatalf("raw after shift insert = %v", raw)
			}
			if err := m.ShiftDelete("mv", 5); err != nil {
				t.Fatal(err)
			}
			check()
			raw, _ = denseRaw(m, base)
			if len(raw) != 12 || raw[4] == 999 {
				t.Fatalf("raw after shift delete = %v", raw)
			}
			// Shifts at both ends of the sequence.
			for _, k := range []int{1, 13} {
				if err := m.ShiftInsert("mv", k, -3); err != nil {
					t.Fatal(err)
				}
				check()
			}
			for _, k := range []int{14, 1} {
				if err := m.ShiftDelete("mv", k); err != nil {
					t.Fatal(err)
				}
				check()
			}
			if err := m.ShiftInsert("nope", 1, 1); err == nil {
				t.Fatal("unknown view must fail")
			}
		})
	}
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
	if err := m.Refresh("mv"); err == nil {
		t.Fatal("refresh of dropped view must fail")
	}
}

func TestCumulativeViewMaintained(t *testing.T) {
	cat, m := fixture(t, 10)
	createView(t, m, `CREATE MATERIALIZED VIEW cum AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS val FROM seq`)
	base, _ := cat.Table("seq")
	cols := base.ColumnNames()
	var id storage.RowID
	var before sqltypes.Row
	base.Heap.Scan(func(i storage.RowID, row sqltypes.Row) bool {
		if row[0].Int() == 4 {
			id, before = i, row
			return false
		}
		return true
	})
	after := sqltypes.Row{sqltypes.NewInt(4), sqltypes.NewInt(-50)}
	base.Heap.Update(id, after)
	m.AfterUpdate(nil, "seq", []sqltypes.Row{before}, []sqltypes.Row{after}, cols)
	if m.Stale("cum") {
		t.Fatal("cumulative update must stay incremental")
	}
	checkViewMatchesCore(t, cat, m, "cum", core.Cumul(), core.Sum)
}

// fakeExec materializes plain views without a full engine: it returns a
// canned result set.
func fakeExec(cols []string, rows []sqltypes.Row) ExecFunc {
	return func(context.Context, sqlparser.SelectStatement) ([]string, []sqltypes.Row, error) {
		out := make([]sqltypes.Row, len(rows))
		copy(out, rows)
		return cols, out, nil
	}
}

func TestPlainViewLifecycle(t *testing.T) {
	cat := emptyCatalog(t)
	rows := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewString("x")},
		{sqltypes.NewInt(2), sqltypes.NewString("y")},
	}
	m := NewManager(cat, fakeExec([]string{"a", ""}, rows))
	stmt, _ := sqlparser.Parse(`CREATE MATERIALIZED VIEW pv AS SELECT a, b FROM wherever`)
	if err := m.Create(stmt.(*sqlparser.CreateMatView)); err != nil {
		t.Fatal(err)
	}
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
	m.AfterInsert(nil, "wherever", rows, []string{"a", "b"})
	if m.Stale("pv") {
		t.Fatal("plain views have no staleness")
	}
	if err := m.Refresh("pv"); err != nil {
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
	cat := emptyCatalog(t)
	m := NewManager(cat, nil)
	stmt, _ := sqlparser.Parse(`CREATE MATERIALIZED VIEW pv AS SELECT a FROM t`)
	if err := m.Create(stmt.(*sqlparser.CreateMatView)); err == nil {
		t.Fatal("plain view without an executor must fail")
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
