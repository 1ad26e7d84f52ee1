package rewrite_test

// The paper's renderings (internal/paper) of the derivations Derive makes.

import (
	"strings"
	"testing"

	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/paper"
	"rfview/internal/rewrite"
	"rfview/internal/sqltypes"
)

// TestFig2Pattern: the self-join rewrite reproduces the relational mapping
// of Fig. 2 — self join, IN-list on the anchor position, grouped SUM.
func TestFig2Pattern(t *testing.T) {
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq`)
	out, err := paper.SelfJoin(sel)
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
	out, err := paper.SelfJoin(sel)
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
	out, err := paper.SelfJoin(sel)
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

// TestFig10Pattern: MaxOA disjunctive form carries the Fig. 10 signature —
// the view self-joined under an OR of MOD-residue branches, a CASE negation
// inside a grouped SUM, and a LEFT OUTER JOIN with COALESCE re-attaching the
// compensation to the original sequence values.
func TestFig10Pattern(t *testing.T) {
	cat, _ := newViewCatalog(t, core.Sliding(2, 1), core.Sum)
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`)
	d := rewrite.Derive(cat, sel)
	if d == nil {
		t.Fatal("no derivation")
	}
	if d.DeltaL != 1 || d.DeltaH != 0 || d.Wx != 4 {
		t.Fatalf("derivation = %+v", d)
	}
	got := mustPattern(t, d, paper.StrategyMaxOA, paper.FormDisjunctive, 100)
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
	cat, _ := newViewCatalog(t, core.Sliding(2, 1), core.Sum)
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) AS w FROM seq`)
	d := rewrite.Derive(cat, sel)
	if d == nil {
		t.Fatal("no derivation")
	}
	if d.DeltaL != 1 || d.DeltaH != 1 {
		t.Fatalf("derivation = %+v", d)
	}
	got := mustPattern(t, d, paper.StrategyMinOA, paper.FormDisjunctive, 100)
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
	cat, _ := newViewCatalog(t, core.Sliding(2, 1), core.Sum)
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`)
	d := rewrite.Derive(cat, sel)
	if d == nil {
		t.Fatal("no derivation")
	}
	got := mustPattern(t, d, paper.StrategyMaxOA, paper.FormUnion, 100)
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
	cat, mv := newViewCatalog(t, core.Cumul(), core.Sum)
	out, err := paper.RawFromCumulative(mv, 100)
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
			Window: core.Sliding(1, 1)}
		c.RegisterMatView(v)
		return c, v
	}()
	if _, err := paper.RawFromCumulative(mv2, 100); err == nil {
		t.Fatal("sliding view must be rejected")
	}
}

// TestExactMatch: an identically-windowed view answers without derivation
// machinery.
func TestExactMatch(t *testing.T) {
	cat, _ := newViewCatalog(t, core.Sliding(2, 1), core.Sum)
	sel := parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq`)
	d := rewrite.Derive(cat, sel)
	if d == nil || d.Plan.Source.Algo != core.AlgoExact {
		t.Fatalf("derivation %+v, want an exact match", d)
	}
	got := mustPattern(t, d, paper.StrategyAuto, paper.FormDisjunctive, 100)
	if strings.Contains(got, "JOIN") || strings.Contains(got, "GROUP") {
		t.Fatalf("exact match must be a plain scan:\n%s", got)
	}
}

// TestRawFromSlidingPattern — the §3.2 explicit reconstruction as SQL.
func TestRawFromSlidingPattern(t *testing.T) {
	_, mv := newViewCatalog(t, core.Sliding(2, 1), core.Sum)
	out, err := paper.RawFromSliding(mv, 100)
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
	_, cum := newViewCatalog2(t, "c2", core.Cumul(), core.Sum)
	if _, err := paper.RawFromSliding(cum, 50); err == nil {
		t.Fatal("cumulative view must be rejected")
	}
	_, mn := newViewCatalog2(t, "c3", core.Sliding(1, 1), core.Min)
	if _, err := paper.RawFromSliding(mn, 50); err == nil {
		t.Fatal("MIN view must be rejected")
	}
}

// newViewCatalog2 is newViewCatalog with a unique backing-table name so one
// test can build several catalogs.
func newViewCatalog2(t *testing.T, tag string, win core.Window, agg core.Agg) (*catalog.Catalog, *catalog.MatView) {
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
	mk := func(name, base, part string, agg core.Agg, win core.Window) {
		b, _ := cat.CreateTable("__mv_"+name, []catalog.Column{{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int}})
		cat.RegisterMatView(&catalog.MatView{
			Name: name, Kind: catalog.SequenceView, Table: b,
			BaseTable: base, PosColumn: "pos", PartColumn: part, ValColumn: "val", Agg: agg, Window: win,
		})
	}
	sliding := core.Sliding(2, 1)
	mk("vsum", "seq", "", core.Sum, sliding)
	mk("vavg", "seq", "", core.Avg, sliding)
	mk("psum", "pt", "grp", core.Sum, core.Cumul())

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
		d := rewrite.Derive(cat, parseSelect(t, c.query))
		if d == nil || d.Plan.String() != c.plan {
			t.Fatalf("%s:\nplan %v, want %s", c.query, d, c.plan)
		}
	}

	// Rendered for a simple view, AVG is the SUM pattern's value over the
	// count expression — no join with a second derivation.
	d := rewrite.Derive(cat, parseSelect(t, `SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`))
	got := mustPattern(t, d, paper.StrategyAuto, paper.FormDisjunctive, 40)
	sum := mustPattern(t, rewrite.Derive(cat, parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`)),
		paper.StrategyAuto, paper.FormDisjunctive, 40)
	if want := "/ ((LEAST((s.pos + 1), 40) - GREATEST((s.pos - 3), 1)) + 1)"; !strings.Contains(got, want) || strings.Count(got, "JOIN") != strings.Count(sum, "JOIN") {
		t.Fatalf("AVG pattern is not the SUM pattern over %q:\n%s", want, got)
	}
	// The AVG view's name reads quotients: its sums are its backing table's.
	if strings.Contains(got, " vavg ") || !strings.Contains(got, "__mv_vavg s") {
		t.Fatalf("the pattern over the AVG view does not read its backing table:\n%s", got)
	}
	// A partitioned view's counts vary by partition; no pattern divides them.
	d = rewrite.Derive(cat, parseSelect(t, `SELECT grp, pos, AVG(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 2 FOLLOWING) AS w FROM pt`))
	if stmt, err := paper.Pattern(d, paper.StrategyAuto, paper.FormDisjunctive, 40); err == nil {
		t.Fatalf("partitioned AVG rendered:\n%s", stmt)
	}
}

// TestDerivationPlan: every shape rewrite.Derive accepts comes out as the planner's
// node — the view, windows and the algorithm core.Algorithm names, and the
// query's columns in select-list order — and the auto strategy renders it.
func TestDerivationPlan(t *testing.T) {
	for _, c := range []struct {
		name  string
		win   core.Window
		agg   core.Agg
		query string
		want  string
	}{
		{"exact", core.Sliding(2, 1), core.Sum,
			`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
			"DERIVE pos, w AS SUM (2,1) FROM matseq (2,1) BY exact"},
		{"cumulative", core.Cumul(), core.Sum,
			`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
			"DERIVE pos, w AS SUM (3,1) FROM matseq cumulative BY cumulative"},
		{"minmax", core.Sliding(2, 1), core.Max,
			`SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) AS w FROM seq`,
			"DERIVE pos, w AS MAX (3,2) FROM matseq (2,1) BY MaxOA"},
		{"MinOA, a narrower target, value first and unnamed", core.Sliding(2, 1), core.Sum,
			`SELECT SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING), pos FROM seq`,
			"DERIVE column_1, pos AS SUM (1,1) FROM matseq (2,1) BY MinOA"},
		{"MinOA at the residue collision", core.Sliding(2, 1), core.Sum,
			`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING AND 3 FOLLOWING) AS w FROM seq`,
			"DERIVE pos, w AS SUM (4,3) FROM matseq (2,1) BY MinOA"},
		{"MinOA of a one-row frame", core.Sliding(1, 1), core.Count,
			`SELECT pos, COUNT(val) OVER (ORDER BY pos ROWS BETWEEN CURRENT ROW AND CURRENT ROW) AS w FROM seq`,
			"DERIVE pos, w AS COUNT (0,0) FROM matseq (1,1) BY MinOA"},
	} {
		cat, mv := newViewCatalog(t, c.win, c.agg)
		d := rewrite.Derive(cat, parseSelect(t, c.query))
		if d == nil {
			t.Fatalf("%s: no derivation", c.name)
		}
		if got := d.Plan.String(); got != c.want || d.Plan.Source.View != mv.Name || d.Plan.Source.Agg != c.agg {
			t.Errorf("%s: plan %q, want %q", c.name, got, c.want)
		}
		if _, err := paper.Pattern(d, paper.StrategyAuto, paper.FormDisjunctive, 100); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestPatternOrderAndLimit: a rendering keeps the statement's ORDER BY and
// LIMIT, whose keys name its output columns.
func TestPatternOrderAndLimit(t *testing.T) {
	cat, _ := newViewCatalog(t, core.Sliding(2, 1), core.Sum)
	d := rewrite.Derive(cat, parseSelect(t, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq ORDER BY w DESC, pos LIMIT 4`))
	if d == nil {
		t.Fatal("no derivation")
	}
	for _, strategy := range []paper.Strategy{paper.StrategyMaxOA, paper.StrategyMinOA} {
		if got := mustPattern(t, d, strategy, paper.FormUnion, 100); !strings.HasSuffix(got, " ORDER BY w DESC, pos LIMIT 4") {
			t.Errorf("%v rendering lost the ORDER BY or LIMIT:\n%s", strategy, got)
		}
	}
}

// TestPatternPreconditions: a derivation the served path runs may have no
// rendering under a forced strategy; paper.Pattern says so instead of rendering a
// wrong statement.
func TestPatternPreconditions(t *testing.T) {
	cat, _ := newViewCatalog(t, core.Sliding(2, 1), core.Sum)
	for _, c := range []struct {
		query    string
		strategy paper.Strategy
	}{
		// (4,3) from (2,1): Δl+Δh ≡ 0 (mod W_x), MinOA's pattern corner.
		{`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING AND 3 FOLLOWING) AS w FROM seq`, paper.StrategyMinOA},
		// A narrower target: MaxOA's pattern cannot subtract.
		{`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq`, paper.StrategyMaxOA},
	} {
		d := rewrite.Derive(cat, parseSelect(t, c.query))
		if d == nil || d.Plan.Source.Algo != core.AlgoMinOA {
			t.Fatalf("%s: derivation %+v, want MinOA", c.query, d)
		}
		if stmt, err := paper.Pattern(d, c.strategy, paper.FormDisjunctive, 100); err == nil {
			t.Errorf("%v rendered %s", c.strategy, stmt)
		}
	}
}

// mustPattern renders d and returns the SQL text.
func mustPattern(t *testing.T, d *rewrite.Derivation, strategy paper.Strategy, form paper.Form, n int) string {
	t.Helper()
	stmt, err := paper.Pattern(d, strategy, form, n)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.String()
}
