package rewrite_test

import (
	"testing"

	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/rewrite"
	"rfview/internal/sqltypes"
)

// multiViewCatalog builds a catalog with one sliding sequence view per entry
// of wins, registered in the given order.
func multiViewCatalog(t *testing.T, names []string, wins []core.Window) *catalog.Catalog {
	t.Helper()
	cat := emptyCatalog(t)
	if _, err := cat.CreateTable("seq", []catalog.Column{{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int}}); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		backing, err := cat.CreateTable("__mv_"+name, []catalog.Column{{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int}})
		if err != nil {
			t.Fatal(err)
		}
		mv := &catalog.MatView{
			Name: name, Kind: catalog.SequenceView, Table: backing,
			BaseTable: "seq", PosColumn: "pos", ValColumn: "val", Agg: core.Sum,
			Window: wins[i],
		}
		if err := cat.RegisterMatView(mv); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// TestPickViewNameTieBreak: among equally wide applicable views the
// lexicographically smallest name wins, independent of registration order,
// so plans (and the plan cache keyed on them) are deterministic.
func TestPickViewNameTieBreak(t *testing.T) {
	win := core.Sliding(2, 1)
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`)
	for _, names := range [][]string{{"zeta", "alpha"}, {"alpha", "zeta"}} {
		cat := multiViewCatalog(t, names, []core.Window{win, win})
		d := rewrite.Derive(cat, sel)
		if d == nil || d.View.Name != "alpha" {
			t.Fatalf("registration order %v: picked %+v, want alpha", names, d)
		}
	}
}

// TestPickViewPrefersWiderWindow: a wider materialized window beats a
// smaller lexicographic name — the tie-break applies only among equals.
func TestPickViewPrefersWiderWindow(t *testing.T) {
	cat := multiViewCatalog(t,
		[]string{"aaa", "zzz"},
		[]core.Window{core.Sliding(1, 1), core.Sliding(2, 2)})
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) AS w FROM seq`)
	d := rewrite.Derive(cat, sel)
	if d == nil || d.View.Name != "zzz" {
		t.Fatalf("picked %+v, want the wider view zzz", d)
	}
}

// TestPickViewCumulativeTieBreak: when only cumulative views apply, the
// smallest name is chosen deterministically.
func TestPickViewCumulativeTieBreak(t *testing.T) {
	cum := core.Cumul()
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq`)
	for _, names := range [][]string{{"zc", "ac"}, {"ac", "zc"}} {
		cat := multiViewCatalog(t, names, []core.Window{cum, cum})
		d := rewrite.Derive(cat, sel)
		if d == nil || d.View.Name != "ac" {
			t.Fatalf("registration order %v: picked %+v, want ac", names, d)
		}
	}
}
