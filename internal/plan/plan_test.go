package plan

import (
	"strings"
	"testing"

	rferrors "rfview/errors"
	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/exec"
	"rfview/internal/spill"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
)

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

// newTestCatalog builds seq(pos,val) [optionally indexed], t1(a,b), t2(a,c).
func newTestCatalog(t *testing.T, indexSeq bool) *catalog.Catalog {
	t.Helper()
	p := storage.NewPager(storage.PagerConfig{Env: spill.NewEnv(t.TempDir())})
	t.Cleanup(func() { p.Close() })
	cat := catalog.New(p)
	mk := func(name string, cols ...string) *catalog.Table {
		defs := make([]catalog.Column, len(cols))
		for i, c := range cols {
			defs[i] = catalog.Column{Name: c, Type: sqltypes.Int}
		}
		tbl, err := cat.CreateTable(name, defs)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	seq := mk("seq", "pos", "val")
	mk("t1", "a", "b")
	mk("t2", "a", "c")
	for i := int64(1); i <= 20; i++ {
		insertRows(t, seq, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(i * 2)})
	}
	if indexSeq {
		if _, err := cat.CreateIndex("seq_pk", "seq", []string{"pos"}, true); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func planQuery(t *testing.T, cat *catalog.Catalog, opts Options, sql string) exec.Operator {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	op, err := New(cat, opts).PlanSelect(stmt.(sqlparser.SelectStatement))
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return op
}

func TestPlanUsesIndexJoinForInList(t *testing.T) {
	cat := newTestCatalog(t, true)
	// The Fig. 2 self-join pattern: the planner must probe seq.pos.
	op := planQuery(t, cat, DefaultOptions(),
		`SELECT s1.pos, SUM(s2.val) AS w FROM seq s1, seq s2
		 WHERE s1.pos IN (s2.pos - 1, s2.pos, s2.pos + 1) GROUP BY s1.pos`)
	if !exec.PlanContains(op, "IndexNestedLoopJoin") {
		t.Fatalf("expected index join:\n%s", exec.FormatPlan(op))
	}
	// Without the index, the same query nested-loops.
	cat2 := newTestCatalog(t, false)
	op = planQuery(t, cat2, DefaultOptions(),
		`SELECT s1.pos, SUM(s2.val) AS w FROM seq s1, seq s2
		 WHERE s1.pos IN (s2.pos - 1, s2.pos, s2.pos + 1) GROUP BY s1.pos`)
	if exec.PlanContains(op, "IndexNestedLoopJoin") {
		t.Fatalf("index join without an index:\n%s", exec.FormatPlan(op))
	}
	if !exec.PlanContains(op, "NestedLoopJoin") {
		t.Fatalf("expected nested loop:\n%s", exec.FormatPlan(op))
	}
}

func TestPlanUsesHashJoinForComputedEquiKeys(t *testing.T) {
	cat := newTestCatalog(t, false)
	// The Table 2 union-branch shape: MOD-residue equality is hash-joinable.
	op := planQuery(t, cat, DefaultOptions(),
		`SELECT s1.pos, s2.val FROM seq s1, seq s2
		 WHERE MOD(s1.pos, 4) = MOD(s2.pos, 4) AND s1.pos > s2.pos`)
	if !exec.PlanContains(op, "HashJoin") {
		t.Fatalf("expected hash join:\n%s", exec.FormatPlan(op))
	}
	if !strings.Contains(exec.FormatPlan(op), "residual") {
		t.Fatalf("range condition must become a residual:\n%s", exec.FormatPlan(op))
	}
	// The disjunctive form defeats the hash join (OR of conditions).
	op = planQuery(t, cat, DefaultOptions(),
		`SELECT s1.pos, s2.val FROM seq s1, seq s2
		 WHERE (s1.pos > s2.pos AND MOD(s1.pos, 4) = MOD(s2.pos, 4))
		    OR (s1.pos - 1 > s2.pos AND MOD(s1.pos - 1, 4) = MOD(s2.pos, 4))`)
	if exec.PlanContains(op, "HashJoin") {
		t.Fatalf("hash join on a disjunctive predicate:\n%s", exec.FormatPlan(op))
	}
	if !exec.PlanContains(op, "NestedLoopJoin") {
		t.Fatalf("expected nested loop:\n%s", exec.FormatPlan(op))
	}
}

// TestJoinChoiceFollowsData: no switch picks the join algorithm — the same
// equi-join probes an index while one exists, hashes once it is dropped, and
// only a predicate with no equi-conjunct nested-loops.
func TestJoinChoiceFollowsData(t *testing.T) {
	cat := newTestCatalog(t, true)
	const equi = `SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s1.pos = s2.pos`
	expect := func(when, sql, want string) {
		t.Helper()
		op := planQuery(t, cat, DefaultOptions(), sql)
		got := "no join"
		for _, j := range []string{"IndexNestedLoopJoin", "HashJoin", "NestedLoopJoin"} {
			if exec.PlanContains(op, j) {
				got = j
				break
			}
		}
		if got != want {
			t.Fatalf("%s: planned a %s, want a %s:\n%s", when, got, want, exec.FormatPlan(op))
		}
	}
	expect("index present", equi, "IndexNestedLoopJoin")
	if err := cat.DropIndex("seq", "seq_pk"); err != nil {
		t.Fatal(err)
	}
	expect("index dropped", equi, "HashJoin")
	expect("non-equi predicate", `SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s1.pos > s2.pos`, "NestedLoopJoin")
}

func TestPlanPushesSingleTableFilters(t *testing.T) {
	cat := newTestCatalog(t, false)
	op := planQuery(t, cat, DefaultOptions(),
		`SELECT t1.a FROM t1, t2 WHERE t1.b > 5 AND t2.c < 3 AND t1.a = t2.a`)
	plan := exec.FormatPlan(op)
	// Filters must sit below the join (appear after the join line, indented
	// under scans). Check there are two Filter operators and a HashJoin.
	if exec.CountOps(op, "Filter") < 2 {
		t.Fatalf("single-table predicates not pushed down:\n%s", plan)
	}
	if !exec.PlanContains(op, "HashJoin") {
		t.Fatalf("equi conjunct must drive a hash join:\n%s", plan)
	}
}

func TestPlanWindowGrouping(t *testing.T) {
	cat := newTestCatalog(t, false)
	// Two windows sharing (partition, order) land in one Window operator;
	// a third with a different order gets its own.
	op := planQuery(t, cat, DefaultOptions(), `
	  SELECT pos,
	    SUM(val) OVER (ORDER BY pos ROWS 1 PRECEDING) AS a,
	    MIN(val) OVER (ORDER BY pos ROWS 2 PRECEDING) AS b,
	    SUM(val) OVER (ORDER BY val ROWS 1 PRECEDING) AS c
	  FROM seq`)
	if got := exec.CountOps(op, "Window"); got != 2 {
		t.Fatalf("expected 2 Window operators, got %d:\n%s", got, exec.FormatPlan(op))
	}
}

func TestPlanStarExpansion(t *testing.T) {
	cat := newTestCatalog(t, false)
	op := planQuery(t, cat, DefaultOptions(), `SELECT * FROM t1, t2 WHERE t1.a = t2.a`)
	names := OutputNames(op)
	if len(names) != 4 {
		t.Fatalf("star expanded to %v", names)
	}
	op = planQuery(t, cat, DefaultOptions(), `SELECT t2.* FROM t1, t2 WHERE t1.a = t2.a`)
	names = OutputNames(op)
	if len(names) != 2 || names[0] != "a" || names[1] != "c" {
		t.Fatalf("qualified star expanded to %v", names)
	}
}

func TestPlanErrors(t *testing.T) {
	cat := newTestCatalog(t, false)
	bad := []string{
		`SELECT nope FROM seq`,
		`SELECT pos FROM nope`,
		`SELECT a FROM t1, t2`, // ambiguous
		`SELECT pos FROM seq HAVING pos > 1`,
		`SELECT pos FROM seq LIMIT pos`,
		`SELECT SUM(val, pos) FROM seq`,
		`SELECT x.* FROM seq`,
		`SELECT pos FROM seq ORDER BY nope`,
	}
	for _, q := range bad {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := New(cat, DefaultOptions()).PlanSelect(stmt.(sqlparser.SelectStatement)); err == nil {
			t.Errorf("PlanSelect(%q) should fail", q)
		}
	}
}

func TestPlanLeftOuterKeepsPreservedSide(t *testing.T) {
	cat := newTestCatalog(t, true)
	// The probed side of a LOJ index join must be the right (null-supplying)
	// relation.
	op := planQuery(t, cat, DefaultOptions(),
		`SELECT t1.a, s.val FROM t1 LEFT OUTER JOIN seq s ON s.pos = t1.a`)
	if !exec.PlanContains(op, "IndexNestedLoopJoin (LeftOuter)") {
		t.Fatalf("expected left-outer index join:\n%s", exec.FormatPlan(op))
	}
}

func TestOutputNamesSynthesis(t *testing.T) {
	cat := newTestCatalog(t, false)
	op := planQuery(t, cat, DefaultOptions(), `SELECT pos + 1, val AS v FROM seq`)
	names := OutputNames(op)
	if names[0] != "column_1" || names[1] != "v" {
		t.Fatalf("names = %v", names)
	}
}

// TestPlanDeriveSelect: the rewriter's node plans against a catalog alone —
// no engine, no rewriter — into one Derive over one scan of the view, emits
// the node's columns in their order, and refuses a node whose view is gone or
// no longer the view the derivation was made for.
func TestPlanDeriveSelect(t *testing.T) {
	cat := newTestCatalog(t, false)
	backing, err := cat.CreateTable("__mv_v", []catalog.Column{{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int}})
	if err != nil {
		t.Fatal(err)
	}
	// The complete (1,1) SUM sequence over ten ones: positions 0 … 11.
	for k := 0; k <= 11; k++ {
		insertRows(t, backing, sqltypes.Row{sqltypes.NewInt(int64(k)), sqltypes.NewInt(int64(min(k+1, 10) - max(k-1, 1) + 1))})
	}
	view := &catalog.MatView{Name: "v", Kind: catalog.SequenceView, Table: backing, BaseTable: "seq",
		PosColumn: "pos", ValColumn: "val", Agg: core.Sum, Window: core.Sliding(1, 1)}
	if err := cat.RegisterMatView(view); err != nil {
		t.Fatal(err)
	}
	node := &sqlparser.DeriveSelect{
		Source: sqlparser.DeriveSource{View: "v", Agg: core.Sum, Window: core.Sliding(1, 1), Algo: core.AlgoMinOA},
		Agg:    core.Sum,
		Target: core.Sliding(2, 1),
		Columns: []sqlparser.DeriveColumn{
			{Name: "w", Kind: sqlparser.DeriveValue}, {Name: "pos", Kind: sqlparser.DerivePos},
		},
	}
	op, err := New(cat, DefaultOptions()).PlanSelect(node)
	if err != nil {
		t.Fatal(err)
	}
	if got := exec.FormatPlan(op); got != "Derive view=v algo=MinOA Δl=1 Δh=0 Wx=3\n  SeqScan __mv_v AS v\n" {
		t.Fatalf("plan:\n%s", got)
	}
	if names := OutputNames(op); len(names) != 2 || names[0] != "w" || names[1] != "pos" {
		t.Fatalf("columns %v, want [w pos]", names)
	}
	rows, err := exec.Collect(op)
	if err != nil || len(rows) != 10 {
		t.Fatalf("%d rows, err %v; want 10", len(rows), err)
	}
	for i, r := range rows {
		k := i + 1
		if want := int64(min(k+1, 10) - max(k-2, 1) + 1); r[0].Int() != want || r[1].Int() != int64(k) {
			t.Fatalf("row %d = %v, want (%d, %d)", i, r, want, k)
		}
	}

	gone := *node
	gone.Source.View = "nope"
	if _, err := New(cat, DefaultOptions()).PlanSelect(&gone); rferrors.CodeOf(err) != rferrors.CodeUnknownView {
		t.Fatalf("unknown view: %v", err)
	}
	changed := *node
	changed.Source.Window.Preceding = 2
	if _, err := New(cat, DefaultOptions()).PlanSelect(&changed); err == nil {
		t.Fatal("a node made for a (2,1) view planned over the (1,1) view")
	}
	minOfSum := *node
	minOfSum.Agg = core.Min
	if _, err := New(cat, DefaultOptions()).PlanSelect(&minOfSum); err == nil {
		t.Fatal("a MIN node planned over a SUM view")
	}

	// AVG over the SUM view: the same one Derive, the sums divided by the
	// counts the (2,1) window implies over n = 10, in FLOAT.
	avg := *node
	avg.Agg = core.Avg
	op, err = New(cat, DefaultOptions()).PlanSelect(&avg)
	if err != nil {
		t.Fatal(err)
	}
	if got := exec.FormatPlan(op); got != "Derive view=v algo=MinOA Δl=1 Δh=0 Wx=3 agg=AVG\n  SeqScan __mv_v AS v\n" {
		t.Fatalf("plan:\n%s", got)
	}
	if rows, err = exec.Collect(op); err != nil || len(rows) != 10 {
		t.Fatalf("%d rows, err %v; want 10", len(rows), err)
	}
	for i, r := range rows {
		if r[0].Typ() != sqltypes.Float || r[0].Float() != 1 {
			t.Fatalf("AVG row %d = %v, want the FLOAT average 1 of ten ones", i, r)
		}
	}
}
