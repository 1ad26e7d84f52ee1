package rewrite_test

import (
	"testing"

	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/rewrite"
	"rfview/internal/spill"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
)

func parseSelect(t *testing.T, sql string) *sqlparser.Select {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	return sel
}

func TestMatchWindowQueryCanonical(t *testing.T) {
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq`)
	wq, err := rewrite.MatchWindowQuery(sel)
	if err != nil {
		t.Fatal(err)
	}
	if wq.Table != "seq" || wq.PosCol != "pos" || wq.ValCol != "val" || wq.Agg != core.Sum {
		t.Fatalf("wq = %+v", wq)
	}
	if wq.Shape.Cumulative || wq.Shape.Preceding != 2 || wq.Shape.Following != 1 {
		t.Fatalf("shape = %v", wq.Shape)
	}
	if wq.OutAlias != "w" || wq.WindowItemAt != 1 {
		t.Fatalf("wq = %+v", wq)
	}
}

func TestMatchWindowQueryShapes(t *testing.T) {
	cumulative := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) FROM seq`)
	wq, err := rewrite.MatchWindowQuery(cumulative)
	if err != nil || !wq.Shape.Cumulative {
		t.Fatalf("cumulative misdetected: %v %v", wq, err)
	}
	defaulted := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos) FROM seq`)
	wq, err = rewrite.MatchWindowQuery(defaulted)
	if err != nil || !wq.Shape.Cumulative {
		t.Fatalf("default frame must read cumulative: %v %v", wq, err)
	}
	oneSided := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN CURRENT ROW AND 6 FOLLOWING) FROM seq`)
	wq, err = rewrite.MatchWindowQuery(oneSided)
	if err != nil || wq.Shape.Preceding != 0 || wq.Shape.Following != 6 {
		t.Fatalf("prospective window misdetected: %+v %v", wq, err)
	}
	star := parseSelect(t, `SELECT pos, COUNT(*) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq`)
	wq, err = rewrite.MatchWindowQuery(star)
	if err != nil || wq.Agg != core.Count || wq.ValCol != "" {
		t.Fatalf("COUNT(*) misdetected: %+v %v", wq, err)
	}
	partitioned := parseSelect(t, `SELECT pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq`)
	wq, err = rewrite.MatchWindowQuery(partitioned)
	if err != nil || len(wq.PartitionBy) != 1 || wq.PartitionBy[0] != "grp" {
		t.Fatalf("partition misdetected: %+v %v", wq, err)
	}
}

func TestMatchWindowQueryRejections(t *testing.T) {
	bad := []string{
		`SELECT pos FROM seq`, // no window
		`SELECT pos, val + 1 AS x, SUM(val) OVER (ORDER BY pos ROWS 1 PRECEDING) FROM seq`, // computed item
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS 1 PRECEDING) FROM seq WHERE pos > 1`, // WHERE
		`SELECT pos, SUM(val) OVER (ORDER BY pos DESC ROWS 1 PRECEDING) FROM seq`,          // DESC
		`SELECT pos, SUM(val) OVER (ORDER BY pos, val ROWS 1 PRECEDING) FROM seq`,          // two order cols
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) FROM seq`,
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS 1 PRECEDING) FROM (SELECT pos, val FROM seq) d`,
		`SELECT a.pos, SUM(a.val) OVER (ORDER BY a.pos ROWS 1 PRECEDING) FROM seq a, seq b`,
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS 1 PRECEDING), AVG(val) OVER (ORDER BY pos ROWS 1 PRECEDING) FROM seq`,
	}
	for _, q := range bad {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		sel, ok := stmt.(*sqlparser.Select)
		if !ok {
			continue
		}
		if _, err := rewrite.MatchWindowQuery(sel); err == nil {
			t.Errorf("rewrite.MatchWindowQuery(%q) should reject", q)
		}
	}
}

// emptyCatalog returns an empty catalog over a small private pager that
// closes with the test.
func emptyCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	p := storage.NewPager(storage.PagerConfig{Env: spill.NewEnv(t.TempDir())})
	t.Cleanup(func() { p.Close() })
	return catalog.New(p)
}

func newViewCatalog(t *testing.T, win core.Window, agg core.Agg) (*catalog.Catalog, *catalog.MatView) {
	t.Helper()
	cat := emptyCatalog(t)
	if _, err := cat.CreateTable("seq", []catalog.Column{{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int}}); err != nil {
		t.Fatal(err)
	}
	backing, err := cat.CreateTable("__mv_matseq", []catalog.Column{{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int}})
	if err != nil {
		t.Fatal(err)
	}
	mv := &catalog.MatView{
		Name: "matseq", Kind: catalog.SequenceView, Table: backing,
		BaseTable: "seq", PosColumn: "pos", ValColumn: "val", Agg: agg,
		Window: win,
	}
	if err := cat.RegisterMatView(mv); err != nil {
		t.Fatal(err)
	}
	return cat, mv
}

// TestDeriveNoMatch: queries over other tables/columns/aggregates find no
// view.
func TestDeriveNoMatch(t *testing.T) {
	cat, _ := newViewCatalog(t, core.Sliding(2, 1), core.Sum)
	for _, q := range []string{
		`SELECT pos, COUNT(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) FROM seq`,
		`SELECT pos, SUM(other) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) FROM seq`,
		`SELECT pos, SUM(val) OVER (ORDER BY other ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) FROM seq`,
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) FROM elsewhere`,
	} {
		if d := rewrite.Derive(cat, parseSelect(t, q)); d != nil {
			t.Fatalf("%s: unexpected derivation against %s", q, d.View.Name)
		}
	}
}

// TestDeriveOrderAndLimit: the derivation carries the statement's ORDER BY
// and LIMIT when every key names one output column as native evaluation
// resolves it — the window's alias or a plain column — and declines
// otherwise; an unaliased window column is named column_<i>.
func TestDeriveOrderAndLimit(t *testing.T) {
	cat, _ := newViewCatalog(t, core.Sliding(1, 1), core.Sum)
	const win = `SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING)`
	for _, c := range []struct{ query, plan string }{
		{`SELECT pos, ` + win + ` AS s FROM seq ORDER BY s DESC, pos LIMIT 3`,
			"DERIVE pos, s AS SUM (2,2) FROM matseq (1,1) BY MinOA ORDER BY s DESC, pos LIMIT 3"},
		{`SELECT pos, ` + win + ` AS s FROM seq LIMIT 2`, "DERIVE pos, s AS SUM (2,2) FROM matseq (1,1) BY MinOA LIMIT 2"},
		{`SELECT ` + win + `, pos FROM seq ORDER BY POS DESC`, "DERIVE column_1, pos AS SUM (2,2) FROM matseq (1,1) BY MinOA ORDER BY POS DESC"},
		{`SELECT pos, ` + win + ` AS s FROM seq ORDER BY val`, ""},
		{`SELECT pos, ` + win + ` FROM seq ORDER BY column_2`, ""},
		{`SELECT pos, ` + win + ` AS pos FROM seq ORDER BY pos`, ""},
		{`SELECT pos, ` + win + ` AS s FROM seq ORDER BY seq.pos`, ""},
		{`SELECT pos, ` + win + ` AS s FROM seq ORDER BY s + 1`, ""},
	} {
		d := rewrite.Derive(cat, parseSelect(t, c.query))
		if (d == nil) != (c.plan == "") || d != nil && d.Plan.String() != c.plan {
			t.Errorf("%s:\nplan %v, want %q", c.query, d, c.plan)
		}
	}
}

// TestPickView prefers wider materialized windows.
func TestPickView(t *testing.T) {
	cat := emptyCatalog(t)
	cat.CreateTable("seq", []catalog.Column{{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int}})
	add := func(name string, w core.Window) {
		b, _ := cat.CreateTable("__mv_"+name, []catalog.Column{{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int}})
		mv := &catalog.MatView{Name: name, Kind: catalog.SequenceView, Table: b,
			BaseTable: "seq", PosColumn: "pos", ValColumn: "val", Agg: core.Sum, Window: w}
		cat.RegisterMatView(mv)
	}
	add("narrow", core.Sliding(1, 0))
	add("wide", core.Sliding(3, 2))
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 4 PRECEDING AND 3 FOLLOWING) AS w FROM seq`)
	d := rewrite.Derive(cat, sel)
	if d == nil || d.View.Name != "wide" {
		t.Fatalf("picked %+v, want wide", d)
	}
}
