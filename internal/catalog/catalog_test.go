package catalog

import (
	"testing"

	"rfview/internal/core"
	"rfview/internal/spill"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
)

// emptyCatalog returns an empty catalog over a small private pager that
// closes with the test.
func emptyCatalog(t testing.TB) *Catalog {
	t.Helper()
	p := storage.NewPager(storage.PagerConfig{Env: spill.NewEnv(t.TempDir())})
	t.Cleanup(func() { p.Close() })
	return New(p)
}

func TestCreateResolveDropTable(t *testing.T) {
	c := emptyCatalog(t)
	tbl, err := c.CreateTable("seq", []Column{{"pos", sqltypes.Int}, {"val", sqltypes.Int}})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ColumnIndex("POS") != 0 || tbl.ColumnIndex("val") != 1 || tbl.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex mismatch (case-insensitive resolution expected)")
	}
	got, err := c.Table("SEQ")
	if err != nil || got != tbl {
		t.Fatal("case-insensitive table resolution failed")
	}
	if _, err := c.CreateTable("seq", tbl.Columns); err == nil {
		t.Error("duplicate table must fail")
	}
	if _, err := c.CreateTable("empty", nil); err == nil {
		t.Error("zero-column table must fail")
	}
	if _, err := c.CreateTable("dup", []Column{{"a", sqltypes.Int}, {"A", sqltypes.Int}}); err == nil {
		t.Error("duplicate column must fail")
	}
	names := c.Tables()
	if len(names) != 1 || names[0] != "seq" {
		t.Errorf("Tables() = %v", names)
	}
	if err := c.DropTable("seq"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("seq"); err == nil {
		t.Error("double drop must fail")
	}
	if _, err := c.Table("seq"); err == nil {
		t.Error("dropped table must not resolve")
	}
}

func TestColumnNames(t *testing.T) {
	c := emptyCatalog(t)
	tbl, _ := c.CreateTable("t", []Column{{"a", sqltypes.Int}, {"b", sqltypes.String}})
	names := tbl.ColumnNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("ColumnNames() = %v", names)
	}
}

func TestIndexLifecycle(t *testing.T) {
	c := emptyCatalog(t)
	tbl, _ := c.CreateTable("t", []Column{{"a", sqltypes.Int}, {"b", sqltypes.Int}})
	tx := c.Clock().Begin()
	if _, err := tbl.Heap.InsertTx(tx, sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	c.Clock().Commit(tx, nil)
	def, err := c.CreateIndex("t_a", "t", []string{"a"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if def.Table != "t" || len(def.Columns) != 1 {
		t.Errorf("IndexDef = %+v", def)
	}
	if len(tbl.Indexes) != 1 {
		t.Error("index not registered on table metadata")
	}
	if _, err := c.CreateIndex("t_x", "t", []string{"missing"}, false); err == nil {
		t.Error("index on missing column must fail")
	}
	if _, err := c.CreateIndex("t_y", "missing", []string{"a"}, false); err == nil {
		t.Error("index on missing table must fail")
	}
	if err := c.DropIndex("t", "t_a"); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Indexes) != 0 {
		t.Error("index metadata survived drop")
	}
	if err := c.DropIndex("t", "t_a"); err == nil {
		t.Error("double index drop must fail")
	}
}

func TestMatViewRegistry(t *testing.T) {
	c := emptyCatalog(t)
	base, _ := c.CreateTable("seq", []Column{{"pos", sqltypes.Int}, {"val", sqltypes.Int}})
	_ = base
	backing, _ := c.CreateTable("mv_backing_internal", []Column{{"pos", sqltypes.Int}, {"val", sqltypes.Float}})
	// Registering under a distinct name works; the backing table is hidden
	// behind the view name.
	mv := &MatView{
		Name: "matseq", Kind: SequenceView, Table: backing,
		BaseTable: "seq", PosColumn: "pos", ValColumn: "val", Agg: core.Sum,
		Window: core.Sliding(2, 1),
	}
	if err := c.RegisterMatView(mv); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterMatView(mv); err != nil {
		if err == nil {
			t.Error("duplicate view must fail")
		}
	}
	if got, ok := c.MatView("MATSEQ"); !ok || got != mv {
		t.Error("case-insensitive view resolution failed")
	}
	// The view name resolves as a scannable table.
	tb, err := c.Table("matseq")
	if err != nil || tb != backing {
		t.Error("view name must resolve to its backing table")
	}
	// Name collisions across namespaces are rejected both ways.
	if _, err := c.CreateTable("matseq", backing.Columns); err == nil {
		t.Error("table name colliding with view must fail")
	}
	if err := c.RegisterMatView(&MatView{Name: "seq", Table: backing}); err == nil {
		t.Error("view name colliding with table must fail")
	}
	views := c.MatViews()
	if len(views) != 1 || views[0].Name != "matseq" {
		t.Errorf("MatViews() = %v", views)
	}
	if err := c.DropMatView("matseq"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropMatView("matseq"); err == nil {
		t.Error("double view drop must fail")
	}
}

func TestSequenceViewsOver(t *testing.T) {
	c := emptyCatalog(t)
	backing, _ := c.CreateTable("b1", []Column{{"pos", sqltypes.Int}, {"val", sqltypes.Float}})
	mk := func(name, base string, agg core.Agg, w core.Window, kind MatViewKind) {
		t.Helper()
		err := c.RegisterMatView(&MatView{
			Name: name, Kind: kind, Table: backing,
			BaseTable: base, PosColumn: "pos", ValColumn: "val", Agg: agg, Window: w,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	mk("v_sum21", "seq", core.Sum, core.Sliding(2, 1), SequenceView)
	mk("v_sum11", "seq", core.Sum, core.Sliding(1, 1), SequenceView)
	mk("v_min21", "seq", core.Min, core.Sliding(2, 1), SequenceView)
	mk("v_other", "other", core.Sum, core.Sliding(2, 1), SequenceView)
	mk("v_plain", "seq", core.Sum, core.Window{}, PlainView)

	got := c.SequenceViewsOver("SEQ", "POS", "", "VAL", core.Sum)
	if len(got) != 2 || got[0].Name != "v_sum11" || got[1].Name != "v_sum21" {
		names := make([]string, len(got))
		for i, v := range got {
			names[i] = v.Name
		}
		t.Fatalf("SequenceViewsOver = %v", names)
	}
	if got := c.SequenceViewsOver("seq", "pos", "", "val", core.Min); len(got) != 1 || got[0].Name != "v_min21" {
		t.Fatal("MIN view matching failed")
	}
	if got := c.SequenceViewsOver("nothere", "pos", "", "val", core.Sum); len(got) != 0 {
		t.Fatal("unexpected match for unknown base table")
	}
}

// TestListingsSorted: every map-backed listing comes back in name order, so
// catalog scans (and anything cached or printed from them) are deterministic
// across runs regardless of map iteration order.
func TestListingsSorted(t *testing.T) {
	c := emptyCatalog(t)
	for _, name := range []string{"zebra", "mango", "apple"} {
		if _, err := c.CreateTable(name, []Column{{"pos", sqltypes.Int}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Tables(); len(got) != 3 || got[0] != "apple" || got[1] != "mango" || got[2] != "zebra" {
		t.Fatalf("Tables() = %v, want sorted names", got)
	}
	for _, name := range []string{"v_z", "v_a", "v_m"} {
		backing, err := c.CreateTable("__mv_"+name, []Column{{"pos", sqltypes.Int}})
		if err != nil {
			t.Fatal(err)
		}
		err = c.RegisterMatView(&MatView{
			Name: name, Kind: SequenceView, Table: backing,
			BaseTable: "zebra", PosColumn: "pos", ValColumn: "pos", Agg: core.Sum,
			Window: core.Sliding(1, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	views := c.MatViews()
	if len(views) != 3 || views[0].Name != "v_a" || views[1].Name != "v_m" || views[2].Name != "v_z" {
		names := make([]string, len(views))
		for i, v := range views {
			names[i] = v.Name
		}
		t.Fatalf("MatViews() = %v, want sorted names", names)
	}
}

// TestSchemaVersionBumpsOnDDL: every DDL mutation advances the schema
// version the engine's plan cache keys validity on.
func TestSchemaVersionBumpsOnDDL(t *testing.T) {
	c := emptyCatalog(t)
	v0 := c.SchemaVersion()
	tbl, err := c.CreateTable("t", []Column{{"pos", sqltypes.Int}, {"val", sqltypes.Int}})
	if err != nil {
		t.Fatal(err)
	}
	if c.SchemaVersion() <= v0 {
		t.Fatal("CreateTable must bump the schema version")
	}
	v1 := c.SchemaVersion()
	if _, err := c.CreateIndex("i", "t", []string{"pos"}, false); err != nil {
		t.Fatal(err)
	}
	if c.SchemaVersion() <= v1 {
		t.Fatal("CreateIndex must bump the schema version")
	}
	v2 := c.SchemaVersion()
	if err := c.RegisterMatView(&MatView{Name: "v", Kind: SequenceView, Table: tbl,
		BaseTable: "t", PosColumn: "pos", ValColumn: "val", Agg: core.Sum,
		Window: core.Sliding(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if c.SchemaVersion() <= v2 {
		t.Fatal("RegisterMatView must bump the schema version")
	}
	v3 := c.SchemaVersion()
	if err := c.DropMatView("v"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropIndex("t", "i"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if c.SchemaVersion() < v3+3 {
		t.Fatalf("drops must each bump the schema version: %d -> %d", v3, c.SchemaVersion())
	}
}
