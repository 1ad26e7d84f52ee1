package rewrite

import (
	"strings"
	"testing"

	"rfview/internal/catalog"
	"rfview/internal/core"
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
	wq, err := MatchWindowQuery(sel)
	if err != nil {
		t.Fatal(err)
	}
	if wq.Table != "seq" || wq.PosCol != "pos" || wq.ValCol != "val" || wq.Agg != "SUM" {
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
	wq, err := MatchWindowQuery(cumulative)
	if err != nil || !wq.Shape.Cumulative {
		t.Fatalf("cumulative misdetected: %v %v", wq, err)
	}
	defaulted := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos) FROM seq`)
	wq, err = MatchWindowQuery(defaulted)
	if err != nil || !wq.Shape.Cumulative {
		t.Fatalf("default frame must read cumulative: %v %v", wq, err)
	}
	oneSided := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN CURRENT ROW AND 6 FOLLOWING) FROM seq`)
	wq, err = MatchWindowQuery(oneSided)
	if err != nil || wq.Shape.Preceding != 0 || wq.Shape.Following != 6 {
		t.Fatalf("prospective window misdetected: %+v %v", wq, err)
	}
	star := parseSelect(t, `SELECT pos, COUNT(*) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq`)
	wq, err = MatchWindowQuery(star)
	if err != nil || wq.Agg != "COUNT" || wq.ValCol != "" {
		t.Fatalf("COUNT(*) misdetected: %+v %v", wq, err)
	}
	partitioned := parseSelect(t, `SELECT pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq`)
	wq, err = MatchWindowQuery(partitioned)
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
		if _, err := MatchWindowQuery(sel); err == nil {
			t.Errorf("MatchWindowQuery(%q) should reject", q)
		}
	}
}

// TestFig2Pattern: the self-join rewrite reproduces the relational mapping
// of Fig. 2 — self join, IN-list on the anchor position, grouped SUM.
func TestFig2Pattern(t *testing.T) {
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq`)
	out, err := SelfJoin(sel)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	want := `SELECT s1.pos AS pos, SUM(s2.val) FROM seq s1, seq s2 WHERE s1.pos IN ((s2.pos - 1), s2.pos, (s2.pos + 1)) GROUP BY s1.pos`
	if got != want {
		t.Fatalf("Fig. 2 pattern mismatch:\n got  %s\n want %s", got, want)
	}
}

func TestSelfJoinCumulative(t *testing.T) {
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS c FROM seq`)
	out, err := SelfJoin(sel)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "s2.pos <= s1.pos") {
		t.Fatalf("cumulative self-join must use a range predicate: %s", got)
	}
	if !strings.Contains(got, "GROUP BY s1.pos") {
		t.Fatalf("missing grouping: %s", got)
	}
}

func TestSelfJoinPartitioned(t *testing.T) {
	sel := parseSelect(t, `SELECT pos, grp, SUM(val) OVER (PARTITION BY grp ORDER BY pos
	  ROWS BETWEEN 1 PRECEDING AND 0 FOLLOWING) AS w FROM seq`)
	out, err := SelfJoin(sel)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "s1.grp = s2.grp") {
		t.Fatalf("partition columns must join: %s", got)
	}
	if !strings.Contains(got, "GROUP BY s1.pos, s1.grp") {
		t.Fatalf("partition columns must group: %s", got)
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

func newViewCatalog(t *testing.T, win catalog.WindowSpec, agg string) (*catalog.Catalog, *catalog.MatView) {
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

// TestFig10Pattern: MaxOA disjunctive form carries the Fig. 10 signature —
// the view self-joined under an OR of MOD-residue branches, a CASE negation
// inside a grouped SUM, and a LEFT OUTER JOIN with COALESCE re-attaching the
// compensation to the original sequence values.
func TestFig10Pattern(t *testing.T) {
	cat, _ := newViewCatalog(t, catalog.WindowSpec{Preceding: 2, Following: 1}, "SUM")
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`)
	d := Derive(cat, sel)
	if d == nil {
		t.Fatal("no derivation")
	}
	if d.DeltaL != 1 || d.DeltaH != 0 || d.Wx != 4 {
		t.Fatalf("derivation = %+v", d)
	}
	got := mustPattern(t, d, StrategyMaxOA, FormDisjunctive, 100)
	for _, sig := range []string{
		"LEFT OUTER JOIN",
		"s.val + COALESCE(d.val, 0)",
		"CASE WHEN MOD(",
		"ELSE (-1 * s2.val)",
		"GROUP BY s1.pos",
		" OR ",
		"FROM matseq s1, matseq s2",
		"s.pos BETWEEN 1 AND 100",
	} {
		if !strings.Contains(got, sig) {
			t.Fatalf("Fig. 10 signature %q missing in:\n%s", sig, got)
		}
	}
	// Single-side derivation: exactly one OR (two branches).
	if strings.Count(got, " OR ") != 1 {
		t.Fatalf("expected two branches: %s", got)
	}
}

// TestFig13Pattern: MinOA disjunctive form — no s.val term of its own, the
// positive chain anchored at pos+Δh, and the left outer join keeping
// positions without compensation terms.
func TestFig13Pattern(t *testing.T) {
	cat, _ := newViewCatalog(t, catalog.WindowSpec{Preceding: 2, Following: 1}, "SUM")
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) AS w FROM seq`)
	d := Derive(cat, sel)
	if d == nil {
		t.Fatal("no derivation")
	}
	if d.DeltaL != 1 || d.DeltaH != 1 {
		t.Fatalf("derivation = %+v", d)
	}
	got := mustPattern(t, d, StrategyMinOA, FormDisjunctive, 100)
	if strings.Contains(got, "s.val +") {
		t.Fatalf("MinOA must not add the outer sequence value:\n%s", got)
	}
	for _, sig := range []string{
		"LEFT OUTER JOIN",
		"COALESCE(d.val, 0)",
		"CASE WHEN MOD(",
		"GROUP BY s1.pos",
		" OR ",
	} {
		if !strings.Contains(got, sig) {
			t.Fatalf("Fig. 13 signature %q missing in:\n%s", sig, got)
		}
	}
}

// TestUnionForm: the UNION-of-simple-predicates variant splits each branch
// into its own select, combined with UNION ALL.
func TestUnionForm(t *testing.T) {
	cat, _ := newViewCatalog(t, catalog.WindowSpec{Preceding: 2, Following: 1}, "SUM")
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`)
	d := Derive(cat, sel)
	if d == nil {
		t.Fatal("no derivation")
	}
	got := mustPattern(t, d, StrategyMaxOA, FormUnion, 100)
	if !strings.Contains(got, "UNION ALL") {
		t.Fatalf("union form must use UNION ALL:\n%s", got)
	}
	if strings.Contains(got, " OR ") {
		t.Fatalf("union form must not contain disjunctions:\n%s", got)
	}
	if !strings.Contains(got, "(-1 * s2.val)") {
		t.Fatalf("negative branches must negate values:\n%s", got)
	}
}

// TestFig4Pattern: raw-data reconstruction from a cumulative view.
func TestFig4Pattern(t *testing.T) {
	cat, mv := newViewCatalog(t, catalog.WindowSpec{Cumulative: true}, "SUM")
	out, err := RawFromCumulative(mv, 100)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, sig := range []string{
		"CASE WHEN s1.pos = s2.pos THEN s2.val ELSE (-1 * s2.val) END",
		"s1.pos IN (s2.pos, (s2.pos + 1))",
		"GROUP BY s1.pos",
		"FROM matseq s1, matseq s2",
	} {
		if !strings.Contains(got, sig) {
			t.Fatalf("Fig. 4 signature %q missing in:\n%s", sig, got)
		}
	}
	_ = cat
	// Non-cumulative views are rejected.
	_, mv2 := func() (*catalog.Catalog, *catalog.MatView) {
		c := emptyCatalog(t)
		b, _ := c.CreateTable("__mv_x", []catalog.Column{{Name: "pos", Type: sqltypes.Int}})
		v := &catalog.MatView{Name: "x", Kind: catalog.SequenceView, Table: b,
			Window: catalog.WindowSpec{Preceding: 1, Following: 1}}
		c.RegisterMatView(v)
		return c, v
	}()
	if _, err := RawFromCumulative(mv2, 100); err == nil {
		t.Fatal("sliding view must be rejected")
	}
}

// TestExactMatch: an identically-windowed view answers without derivation
// machinery.
func TestExactMatch(t *testing.T) {
	cat, _ := newViewCatalog(t, catalog.WindowSpec{Preceding: 2, Following: 1}, "SUM")
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq`)
	d := Derive(cat, sel)
	if d == nil || d.Plan.Source.Algo != core.AlgoExact {
		t.Fatalf("derivation %+v, want an exact match", d)
	}
	got := mustPattern(t, d, StrategyAuto, FormDisjunctive, 100)
	if strings.Contains(got, "JOIN") || strings.Contains(got, "GROUP") {
		t.Fatalf("exact match must be a plain scan:\n%s", got)
	}
}

// TestDeriveNoMatch: queries over other tables/columns/aggregates find no
// view.
func TestDeriveNoMatch(t *testing.T) {
	cat, _ := newViewCatalog(t, catalog.WindowSpec{Preceding: 2, Following: 1}, "SUM")
	for _, q := range []string{
		`SELECT pos, COUNT(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) FROM seq`,
		`SELECT pos, SUM(other) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) FROM seq`,
		`SELECT pos, SUM(val) OVER (ORDER BY other ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) FROM seq`,
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) FROM elsewhere`,
	} {
		if d := Derive(cat, parseSelect(t, q)); d != nil {
			t.Fatalf("%s: unexpected derivation against %s", q, d.View.Name)
		}
	}
}

// TestStrategyResolution pins the precondition matrix.
func TestStrategyResolution(t *testing.T) {
	cases := []struct {
		req        Strategy
		dl, dh, wx int
		want       Strategy
	}{
		{StrategyMaxOA, 1, 0, 4, StrategyMaxOA},
		{StrategyMaxOA, -1, 0, 4, StrategyAuto}, // narrowing: MaxOA refuses
		{StrategyMaxOA, 4, 0, 4, StrategyAuto},  // Δl ≥ W_x: residues collide
		{StrategyMinOA, -1, 0, 4, StrategyMinOA},
		{StrategyMinOA, 2, 2, 4, StrategyAuto}, // Δl+Δh ≡ 0 (mod W_x)
		{StrategyAuto, 1, 0, 4, StrategyMinOA},
		{StrategyAuto, 2, 2, 4, StrategyMaxOA}, // MinOA corner → MaxOA
		{StrategyAuto, 4, 4, 4, StrategyAuto},  // neither applies
	}
	for _, c := range cases {
		if got := resolveStrategy(c.req, c.dl, c.dh, c.wx); got != c.want {
			t.Errorf("resolveStrategy(%v, %d, %d, %d) = %v, want %v", c.req, c.dl, c.dh, c.wx, got, c.want)
		}
	}
}

// TestPickView prefers wider materialized windows.
func TestPickView(t *testing.T) {
	cat := emptyCatalog(t)
	cat.CreateTable("seq", []catalog.Column{{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int}})
	add := func(name string, w catalog.WindowSpec) {
		b, _ := cat.CreateTable("__mv_"+name, []catalog.Column{{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int}})
		mv := &catalog.MatView{Name: name, Kind: catalog.SequenceView, Table: b,
			BaseTable: "seq", PosColumn: "pos", ValColumn: "val", Agg: "SUM", Window: w}
		cat.RegisterMatView(mv)
	}
	add("narrow", catalog.WindowSpec{Preceding: 1, Following: 0})
	add("wide", catalog.WindowSpec{Preceding: 3, Following: 2})
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 4 PRECEDING AND 3 FOLLOWING) AS w FROM seq`)
	d := Derive(cat, sel)
	if d == nil || d.View.Name != "wide" {
		t.Fatalf("picked %+v, want wide", d)
	}
}

// TestResidueOffset keeps every MOD operand non-negative.
func TestResidueOffset(t *testing.T) {
	_, mv := newViewCatalog(t, catalog.WindowSpec{Preceding: 2, Following: 5}, "SUM")
	off := residueOffset(mv, []int{-7, 3}, 8)
	if off%8 != 0 {
		t.Fatalf("offset %d must be a multiple of the window size", off)
	}
	// Smallest possible operand: pos = 1-h_x = -4, shift = -7 → -11 + off > 0.
	if -11+off <= 0 {
		t.Fatalf("offset %d too small", off)
	}
}

// TestRawFromSlidingPattern — the §3.2 explicit reconstruction as SQL.
func TestRawFromSlidingPattern(t *testing.T) {
	_, mv := newViewCatalog(t, catalog.WindowSpec{Preceding: 2, Following: 1}, "SUM")
	out, err := RawFromSliding(mv, 100)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, sig := range []string{"CASE WHEN MOD(", "GROUP BY s1.pos", " OR ", "BETWEEN 1 AND 100"} {
		if !strings.Contains(got, sig) {
			t.Fatalf("signature %q missing in:\n%s", sig, got)
		}
	}
	// Cumulative and MIN views are rejected.
	_, cum := newViewCatalog2(t, "c2", catalog.WindowSpec{Cumulative: true}, "SUM")
	if _, err := RawFromSliding(cum, 50); err == nil {
		t.Fatal("cumulative view must be rejected")
	}
	_, mn := newViewCatalog2(t, "c3", catalog.WindowSpec{Preceding: 1, Following: 1}, "MIN")
	if _, err := RawFromSliding(mn, 50); err == nil {
		t.Fatal("MIN view must be rejected")
	}
}

// newViewCatalog2 is newViewCatalog with a unique backing-table name so one
// test can build several catalogs.
func newViewCatalog2(t *testing.T, tag string, win catalog.WindowSpec, agg string) (*catalog.Catalog, *catalog.MatView) {
	t.Helper()
	cat := emptyCatalog(t)
	cat.CreateTable("seq", []catalog.Column{{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int}})
	backing, err := cat.CreateTable("__mv_"+tag, []catalog.Column{{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int}})
	if err != nil {
		t.Fatal(err)
	}
	mv := &catalog.MatView{
		Name: tag, Kind: catalog.SequenceView, Table: backing,
		BaseTable: "seq", PosColumn: "pos", ValColumn: "val", Agg: agg,
		Window: win,
	}
	if err := cat.RegisterMatView(mv); err != nil {
		t.Fatal(err)
	}
	return cat, mv
}

// TestAvgComposition — §2.1's AVG = SUM/COUNT at the rewrite level, the
// COUNT implied by the window: one SUM view answers every AVG window it
// answers as SUM, simple or partitioned, sliding or cumulative, and no COUNT
// view is asked for. An AVG view stores its window sums, so it answers SUM
// and AVG windows as a SUM view does (the first of equal views by name).
func TestAvgComposition(t *testing.T) {
	cat := emptyCatalog(t)
	cat.CreateTable("seq", []catalog.Column{{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int}})
	cat.CreateTable("pt", []catalog.Column{{Name: "grp", Type: sqltypes.Int}, {Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int}})
	mk := func(name, base, part, agg string, win catalog.WindowSpec) {
		b, _ := cat.CreateTable("__mv_"+name, []catalog.Column{{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int}})
		cat.RegisterMatView(&catalog.MatView{
			Name: name, Kind: catalog.SequenceView, Table: b,
			BaseTable: base, PosColumn: "pos", PartColumn: part, ValColumn: "val", Agg: agg, Window: win,
		})
	}
	sliding := catalog.WindowSpec{Preceding: 2, Following: 1}
	mk("vsum", "seq", "", "SUM", sliding)
	mk("vavg", "seq", "", "AVG", sliding)
	mk("psum", "pt", "grp", "SUM", catalog.WindowSpec{Cumulative: true})

	for _, c := range []struct{ query, plan string }{
		{`SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
			"DERIVE pos, w AS AVG (3,1) FROM vavg (2,1) BY MinOA"},
		{`SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
			"DERIVE pos, w AS AVG (2,1) FROM vavg (2,1) BY exact"},
		{`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
			"DERIVE pos, w AS SUM (1,1) FROM vavg (2,1) BY MinOA"},
		{`SELECT grp, pos, AVG(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 2 FOLLOWING) AS w FROM pt`,
			"DERIVE grp, pos, w AS AVG (1,2) FROM psum cumulative BY cumulative"},
		{`SELECT grp, pos, AVG(val) OVER (PARTITION BY grp ORDER BY pos ROWS UNBOUNDED PRECEDING) AS w FROM pt`,
			"DERIVE grp, pos, w AS AVG cumulative FROM psum cumulative BY exact"},
	} {
		d := Derive(cat, parseSelect(t, c.query))
		if d == nil || d.Plan.String() != c.plan {
			t.Fatalf("%s:\nplan %v, want %s", c.query, d, c.plan)
		}
	}

	// Rendered for a simple view, AVG is the SUM pattern's value over the
	// count expression — no join with a second derivation.
	d := Derive(cat, parseSelect(t, `SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`))
	got := mustPattern(t, d, StrategyAuto, FormDisjunctive, 40)
	sum := mustPattern(t, Derive(cat, parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`)),
		StrategyAuto, FormDisjunctive, 40)
	if want := "/ ((LEAST((s.pos + 1), 40) - GREATEST((s.pos - 3), 1)) + 1)"; !strings.Contains(got, want) || strings.Count(got, "JOIN") != strings.Count(sum, "JOIN") {
		t.Fatalf("AVG pattern is not the SUM pattern over %q:\n%s", want, got)
	}
	// The AVG view's name reads quotients: its sums are its backing table's.
	if strings.Contains(got, " vavg ") || !strings.Contains(got, "__mv_vavg s") {
		t.Fatalf("the pattern over the AVG view does not read its backing table:\n%s", got)
	}
	// A partitioned view's counts vary by partition; no pattern divides them.
	d = Derive(cat, parseSelect(t, `SELECT grp, pos, AVG(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 2 FOLLOWING) AS w FROM pt`))
	if stmt, err := Pattern(d, StrategyAuto, FormDisjunctive, 40); err == nil {
		t.Fatalf("partitioned AVG rendered:\n%s", stmt)
	}
}

// TestDerivationPlan: every shape Derive accepts comes out as the planner's
// node — the view, windows and the algorithm core.Algorithm names, and the
// query's columns in select-list order — and the auto strategy renders it.
func TestDerivationPlan(t *testing.T) {
	for _, c := range []struct {
		name  string
		win   catalog.WindowSpec
		agg   string
		query string
		want  string
	}{
		{"exact", catalog.WindowSpec{Preceding: 2, Following: 1}, "SUM",
			`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
			"DERIVE pos, w AS SUM (2,1) FROM matseq (2,1) BY exact"},
		{"cumulative", catalog.WindowSpec{Cumulative: true}, "SUM",
			`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
			"DERIVE pos, w AS SUM (3,1) FROM matseq cumulative BY cumulative"},
		{"minmax", catalog.WindowSpec{Preceding: 2, Following: 1}, "MAX",
			`SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) AS w FROM seq`,
			"DERIVE pos, w AS MAX (3,2) FROM matseq (2,1) BY MaxOA"},
		{"MinOA, a narrower target, value first and unnamed", catalog.WindowSpec{Preceding: 2, Following: 1}, "SUM",
			`SELECT SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING), pos FROM seq`,
			"DERIVE val, pos AS SUM (1,1) FROM matseq (2,1) BY MinOA"},
		{"MinOA at the residue collision", catalog.WindowSpec{Preceding: 2, Following: 1}, "SUM",
			`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING AND 3 FOLLOWING) AS w FROM seq`,
			"DERIVE pos, w AS SUM (4,3) FROM matseq (2,1) BY MinOA"},
		{"MinOA of a one-row frame", catalog.WindowSpec{Preceding: 1, Following: 1}, "COUNT",
			`SELECT pos, COUNT(val) OVER (ORDER BY pos ROWS BETWEEN CURRENT ROW AND CURRENT ROW) AS w FROM seq`,
			"DERIVE pos, w AS COUNT (0,0) FROM matseq (1,1) BY MinOA"},
	} {
		cat, mv := newViewCatalog(t, c.win, c.agg)
		d := Derive(cat, parseSelect(t, c.query))
		if d == nil {
			t.Fatalf("%s: no derivation", c.name)
		}
		if got := d.Plan.String(); got != c.want || d.Plan.Source.View != mv.Name || d.Plan.Source.Agg != c.agg {
			t.Errorf("%s: plan %q, want %q", c.name, got, c.want)
		}
		if _, err := Pattern(d, StrategyAuto, FormDisjunctive, 100); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestPatternPreconditions: a derivation the served path runs may have no
// rendering under a forced strategy; Pattern says so instead of rendering a
// wrong statement.
func TestPatternPreconditions(t *testing.T) {
	cat, _ := newViewCatalog(t, catalog.WindowSpec{Preceding: 2, Following: 1}, "SUM")
	for _, c := range []struct {
		query    string
		strategy Strategy
	}{
		// (4,3) from (2,1): Δl+Δh ≡ 0 (mod W_x), MinOA's pattern corner.
		{`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING AND 3 FOLLOWING) AS w FROM seq`, StrategyMinOA},
		// A narrower target: MaxOA's pattern cannot subtract.
		{`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq`, StrategyMaxOA},
	} {
		d := Derive(cat, parseSelect(t, c.query))
		if d == nil || d.Plan.Source.Algo != core.AlgoMinOA {
			t.Fatalf("%s: derivation %+v, want MinOA", c.query, d)
		}
		if stmt, err := Pattern(d, c.strategy, FormDisjunctive, 100); err == nil {
			t.Errorf("%v rendered %s", c.strategy, stmt)
		}
	}
}

// mustPattern renders d and returns the SQL text.
func mustPattern(t *testing.T, d *Derivation, strategy Strategy, form Form, n int) string {
	t.Helper()
	stmt, err := Pattern(d, strategy, form, n)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.String()
}
