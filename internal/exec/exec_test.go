package exec

import (
	"math/rand"
	"strings"
	"testing"

	"rfview/internal/catalog"
	"rfview/internal/expr"
	"rfview/internal/spill"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
	"rfview/internal/txn"
)

// insertRows writes rows into heap in one committed transaction.
func insertRows(t testing.TB, heap *storage.Table, rows ...sqltypes.Row) {
	t.Helper()
	commitWrite(t, heap, func(tx *txn.Txn) error {
		for _, r := range rows {
			if _, err := heap.InsertTx(tx, r); err != nil {
				return err
			}
		}
		return nil
	})
}

// commitWrite runs write in a transaction of its own and commits it.
func commitWrite(t testing.TB, heap *storage.Table, write func(*txn.Txn) error) {
	t.Helper()
	tx := heap.Clock().Begin()
	if err := write(tx); err != nil {
		t.Fatal(err)
	}
	heap.Clock().Commit(tx, nil)
}

func intRow(vals ...int64) sqltypes.Row {
	r := make(sqltypes.Row, len(vals))
	for i, v := range vals {
		r[i] = sqltypes.NewInt(v)
	}
	return r
}

func schema2(t1, c1, t2, c2 string) *expr.Schema {
	return expr.NewSchema(
		expr.ColInfo{Table: t1, Name: c1, Type: sqltypes.Int},
		expr.ColInfo{Table: t2, Name: c2, Type: sqltypes.Int},
	)
}

func valuesOp(schema *expr.Schema, rows ...sqltypes.Row) *Values {
	return NewValues(schema, rows)
}

func newCatalogTable(t *testing.T, rows ...sqltypes.Row) *catalog.Table {
	t.Helper()
	p := storage.NewPager(storage.PagerConfig{Env: spill.NewEnv(t.TempDir())})
	t.Cleanup(func() { p.Close() })
	cat := catalog.New(p)
	tbl, err := cat.CreateTable("t", []catalog.Column{
		{Name: "a", Type: sqltypes.Int}, {Name: "b", Type: sqltypes.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	insertRows(t, tbl.Heap, rows...)
	return tbl
}

func TestScanAndFilter(t *testing.T) {
	tbl := newCatalogTable(t, intRow(1, 10), intRow(2, 20), intRow(3, 30))
	scan := NewScan(tbl, "t")
	rows, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("scan rows = %d", len(rows))
	}
	// Filter a > 1.
	pred, err := expr.Compile(mustExpr(t, "a > 1"), scan.Schema())
	if err != nil {
		t.Fatal(err)
	}
	rows, err = Collect(&Filter{Input: NewScan(tbl, "t"), Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("filtered rows = %d", len(rows))
	}
}

func TestProjectAndLimit(t *testing.T) {
	tbl := newCatalogTable(t, intRow(1, 10), intRow(2, 20), intRow(3, 30))
	scan := NewScan(tbl, "t")
	e, _ := expr.Compile(mustExpr(t, "a + b"), scan.Schema())
	proj := NewProject(scan, []expr.Expr{e}, []string{"s"})
	rows, err := Collect(&Limit{Input: proj, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1][0].Int() != 22 {
		t.Fatalf("rows = %v", rows)
	}
	if proj.Schema().Cols[0].Name != "s" {
		t.Fatalf("schema = %v", proj.Schema().Cols)
	}
}

func TestNestedLoopJoinKinds(t *testing.T) {
	left := valuesOp(expr.NewSchema(expr.ColInfo{Table: "l", Name: "x", Type: sqltypes.Int}),
		intRow(1), intRow(2), intRow(3))
	right := valuesOp(expr.NewSchema(expr.ColInfo{Table: "r", Name: "y", Type: sqltypes.Int}),
		intRow(2), intRow(3), intRow(4))
	pred, err := expr.Compile(mustExpr(t, "x = y"), schema2("l", "x", "r", "y"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(NewNestedLoopJoin(left, right, JoinInner, pred))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("inner rows = %v", rows)
	}
	left2 := valuesOp(left.Schema(), intRow(1), intRow(2), intRow(3))
	right2 := valuesOp(right.Schema(), intRow(2), intRow(3), intRow(4))
	rows, err = Collect(NewNestedLoopJoin(left2, right2, JoinLeftOuter, pred))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("louter rows = %v", rows)
	}
	foundNull := false
	for _, r := range rows {
		if r[1].IsNull() {
			foundNull = true
		}
	}
	if !foundNull {
		t.Fatal("unmatched left row must produce NULLs")
	}
	// Cross join (nil predicate).
	left3 := valuesOp(left.Schema(), intRow(1), intRow(2))
	right3 := valuesOp(right.Schema(), intRow(5), intRow(6), intRow(7))
	rows, err = Collect(NewNestedLoopJoin(left3, right3, JoinInner, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("cross rows = %d", len(rows))
	}
}

func TestHashJoin(t *testing.T) {
	lschema := expr.NewSchema(expr.ColInfo{Table: "l", Name: "x", Type: sqltypes.Int})
	rschema := expr.NewSchema(expr.ColInfo{Table: "r", Name: "y", Type: sqltypes.Int})
	left := valuesOp(lschema, intRow(1), intRow(2), intRow(2), intRow(9))
	right := valuesOp(rschema, intRow(2), intRow(2), intRow(3))
	lk, _ := expr.Compile(mustExpr(t, "x"), lschema)
	rk, _ := expr.Compile(mustExpr(t, "y"), rschema)
	rows, err := Collect(NewHashJoin(left, right, []expr.Expr{lk}, []expr.Expr{rk}, nil, JoinInner))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2x2 matches
		t.Fatalf("hash inner rows = %v", rows)
	}
	left2 := valuesOp(lschema, intRow(1), intRow(2))
	right2 := valuesOp(rschema, intRow(2), intRow(3))
	rows, err = Collect(NewHashJoin(left2, right2, []expr.Expr{lk}, []expr.Expr{rk}, nil, JoinLeftOuter))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("hash louter rows = %v", rows)
	}
	// NULL keys never match but survive left outer.
	left3 := valuesOp(lschema, sqltypes.Row{sqltypes.NullDatum})
	right3 := valuesOp(rschema, sqltypes.Row{sqltypes.NullDatum})
	rows, err = Collect(NewHashJoin(left3, right3, []expr.Expr{lk}, []expr.Expr{rk}, nil, JoinLeftOuter))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0][1].IsNull() {
		t.Fatalf("NULL-key louter rows = %v", rows)
	}
}

func TestIndexNestedLoopJoin(t *testing.T) {
	tbl := newCatalogTable(t, intRow(1, 10), intRow(2, 20), intRow(3, 30), intRow(4, 40))
	if _, err := tbl.Heap.AddIndex("pk", []int{0}, true); err != nil {
		t.Fatal(err)
	}
	handle := tbl.Heap.IndexOn([]int{0})
	outerSchema := expr.NewSchema(expr.ColInfo{Table: "o", Name: "k", Type: sqltypes.Int})
	outer := valuesOp(outerSchema, intRow(2), intRow(4), intRow(9))
	key, _ := expr.Compile(mustExpr(t, "k"), outerSchema)
	join := NewIndexNestedLoopJoin(outer, tbl, "t", handle, []expr.Expr{key}, nil, JoinInner, true)
	rows, err := Collect(join)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("inlj rows = %v", rows)
	}
	// The probes' page traffic, summed: keys 2 and 4 each read one slot of
	// an uncached page, the one page the iterator keeps pinned between
	// probes, and key 9 none.
	if d := join.Describe(); !strings.HasSuffix(d, " (slots=2 pages=1 hit_ratio=1.00 decoded=2)") {
		t.Fatalf("inlj Describe = %q", d)
	}
	// Multiple probe keys (IN-list style): k-1 and k+1.
	outer2 := valuesOp(outerSchema, intRow(2))
	k1, _ := expr.Compile(mustExpr(t, "k - 1"), outerSchema)
	k2, _ := expr.Compile(mustExpr(t, "k + 1"), outerSchema)
	join2 := NewIndexNestedLoopJoin(outer2, tbl, "t", handle, []expr.Expr{k1, k2}, nil, JoinInner, true)
	rows, err = Collect(join2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("multi-probe rows = %v", rows)
	}
	// An IN-list repeating a key, as itself and as the FLOAT 2.0, beside a
	// NULL: one probe, one row.
	var inList []expr.Expr
	for _, src := range []string{"k", "NULL", "k * 1.0", "k"} {
		e, err := expr.Compile(mustExpr(t, src), outerSchema)
		if err != nil {
			t.Fatal(err)
		}
		inList = append(inList, e)
	}
	join5 := NewIndexNestedLoopJoin(valuesOp(outerSchema, intRow(2)), tbl, "t", handle, inList, nil, JoinInner, true)
	rows, err = Collect(join5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 2 || rows[0][2].Int() != 20 {
		t.Fatalf("repeated-key rows = %v", rows)
	}
	if d := join5.Describe(); !strings.Contains(d, " (slots=1 ") {
		t.Fatalf("repeated keys probed more than once: %q", d)
	}
	// Left outer keeps unmatched outer rows.
	outer3 := valuesOp(outerSchema, intRow(99))
	join3 := NewIndexNestedLoopJoin(outer3, tbl, "t", handle, []expr.Expr{key}, nil, JoinLeftOuter, true)
	rows, err = Collect(join3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0][1].IsNull() {
		t.Fatalf("louter rows = %v", rows)
	}
	// Swapped emission order: probed columns first.
	outer4 := valuesOp(outerSchema, intRow(3))
	join4 := NewIndexNestedLoopJoin(outer4, tbl, "t", handle, []expr.Expr{key}, nil, JoinInner, false)
	rows, err = Collect(join4)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 3 || rows[0][1].Int() != 30 || rows[0][2].Int() != 3 {
		t.Fatalf("swapped row = %v", rows[0])
	}
	if join4.Schema().Cols[0].Table != "t" {
		t.Fatalf("swapped schema = %v", join4.Schema().Cols)
	}
}

func TestSortOperator(t *testing.T) {
	schema := expr.NewSchema(expr.ColInfo{Name: "a", Type: sqltypes.Int})
	input := valuesOp(schema, intRow(3), intRow(1), intRow(2), sqltypes.Row{sqltypes.NullDatum})
	key, _ := expr.Compile(mustExpr(t, "a"), schema)
	rows, err := Collect(&Sort{Input: valuesOp(schema, input.Rows...), Keys: []SortKey{{Expr: key}}})
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0][0].IsNull() || rows[1][0].Int() != 1 || rows[3][0].Int() != 3 {
		t.Fatalf("asc rows = %v", rows)
	}
	rows, err = Collect(&Sort{Input: valuesOp(schema, input.Rows...), Keys: []SortKey{{Expr: key, Desc: true}}})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 3 || !rows[3][0].IsNull() {
		t.Fatalf("desc rows = %v", rows)
	}
}

func TestUnionAllAndDistinct(t *testing.T) {
	schema := expr.NewSchema(expr.ColInfo{Name: "a", Type: sqltypes.Int})
	u := &UnionAll{Inputs: []Operator{
		valuesOp(schema, intRow(1), intRow(2)),
		valuesOp(schema, intRow(2), intRow(3)),
	}}
	rows, err := Collect(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("union all rows = %v", rows)
	}
	d := &Distinct{Input: &UnionAll{Inputs: []Operator{
		valuesOp(schema, intRow(1), intRow(2)),
		valuesOp(schema, intRow(2), intRow(3)),
	}}}
	rows, err = Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("distinct rows = %v", rows)
	}
}

func TestHashAggregate(t *testing.T) {
	schema := expr.NewSchema(
		expr.ColInfo{Name: "g", Type: sqltypes.Int},
		expr.ColInfo{Name: "v", Type: sqltypes.Int},
	)
	input := valuesOp(schema, intRow(1, 10), intRow(2, 20), intRow(1, 30), intRow(2, 5))
	g, _ := expr.Compile(mustExpr(t, "g"), schema)
	v, _ := expr.Compile(mustExpr(t, "v"), schema)
	agg := NewHashAggregate(input, []expr.Expr{g}, []string{"g"}, []AggSpec{
		{Name: "SUM", Arg: v, OutName: "s"},
		{Name: "COUNT", Arg: nil, OutName: "c"},
		{Name: "MIN", Arg: v, OutName: "mn"},
		{Name: "MAX", Arg: v, OutName: "mx"},
		{Name: "AVG", Arg: v, OutName: "av"},
	})
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %v", rows)
	}
	// First-appearance order: group 1 first.
	if rows[0][0].Int() != 1 || rows[0][1].Int() != 40 || rows[0][2].Int() != 2 ||
		rows[0][3].Int() != 10 || rows[0][4].Int() != 30 || rows[0][5].Float() != 20 {
		t.Fatalf("group1 = %v", rows[0])
	}
	if rows[1][1].Int() != 25 {
		t.Fatalf("group2 = %v", rows[1])
	}
}

func TestWindowOperatorAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	schema := expr.NewSchema(
		expr.ColInfo{Name: "pos", Type: sqltypes.Int},
		expr.ColInfo{Name: "v", Type: sqltypes.Int},
	)
	n := 50
	rows := make([]sqltypes.Row, n)
	vals := make([]int64, n)
	perm := rng.Perm(n) // shuffled input order: the operator must sort
	for i, p := range perm {
		vals[p] = int64(rng.Intn(100) - 50)
		rows[i] = intRow(int64(p+1), vals[p])
	}
	posEx, _ := expr.Compile(mustExpr(t, "pos"), schema)
	vEx, _ := expr.Compile(mustExpr(t, "v"), schema)
	frames := []FrameSpec{
		{Start: FrameBound{Kind: BoundUnboundedPreceding}, End: FrameBound{Kind: BoundCurrentRow}},
		{Start: FrameBound{Kind: BoundPreceding, Offset: 2}, End: FrameBound{Kind: BoundFollowing, Offset: 1}},
		{Start: FrameBound{Kind: BoundCurrentRow}, End: FrameBound{Kind: BoundFollowing, Offset: 6}},
		{Start: FrameBound{Kind: BoundUnboundedPreceding}, End: FrameBound{Kind: BoundUnboundedFollowing}},
		{Start: FrameBound{Kind: BoundFollowing, Offset: 1}, End: FrameBound{Kind: BoundFollowing, Offset: 3}},
	}
	for _, fr := range frames {
		for _, agg := range []string{"SUM", "MIN", "MAX", "COUNT", "AVG"} {
			w := NewWindow(valuesOp(schema, rows...), nil,
				[]SortKey{{Expr: posEx}},
				[]WindowFunc{{Name: agg, Arg: vEx, Frame: fr, OutName: "w"}})
			out, err := Collect(w)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != n {
				t.Fatalf("window emitted %d rows", len(out))
			}
			for _, r := range out {
				k := int(r[0].Int()) // 1-based position
				i := k - 1
				lo, hi := frameRows(fr, i, n)
				acc, _ := expr.NewAgg(agg)
				for j := lo; j <= hi; j++ {
					acc.Add(sqltypes.NewInt(vals[j]))
				}
				want := acc.Result()
				got := r[2]
				if want.IsNull() != got.IsNull() {
					t.Fatalf("%s frame %v pos %d: got %v want %v", agg, fr, k, got, want)
				}
				if !want.IsNull() {
					cmp, _ := sqltypes.Compare(got, want)
					if cmp != 0 {
						t.Fatalf("%s frame %v pos %d: got %v want %v", agg, fr, k, got, want)
					}
				}
			}
		}
	}
}

// TestWindowPreservesInputOrder: rows come back in arrival order even though
// frames are computed in sorted order.
func TestWindowPreservesInputOrder(t *testing.T) {
	schema := expr.NewSchema(
		expr.ColInfo{Name: "pos", Type: sqltypes.Int},
		expr.ColInfo{Name: "v", Type: sqltypes.Int},
	)
	rows := []sqltypes.Row{intRow(3, 30), intRow(1, 10), intRow(2, 20)}
	posEx, _ := expr.Compile(mustExpr(t, "pos"), schema)
	vEx, _ := expr.Compile(mustExpr(t, "v"), schema)
	w := NewWindow(valuesOp(schema, rows...), nil, []SortKey{{Expr: posEx}},
		[]WindowFunc{{Name: "SUM", Arg: vEx,
			Frame: DefaultFrame(true), OutName: "cum"}})
	out, err := Collect(w)
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0].Int() != 3 || out[0][2].Int() != 60 {
		t.Fatalf("first row = %v (input order lost?)", out[0])
	}
	if out[1][0].Int() != 1 || out[1][2].Int() != 10 {
		t.Fatalf("second row = %v", out[1])
	}
}

func TestPlanHelpers(t *testing.T) {
	tbl := newCatalogTable(t, intRow(1, 2))
	scan := NewScan(tbl, "t")
	f := &Filter{Input: scan, Pred: mustCompile(t, "a = 1", scan.Schema())}
	txt := FormatPlan(f)
	if !PlanContains(f, "SeqScan") || !PlanContains(f, "Filter") {
		t.Fatalf("plan = %s", txt)
	}
	if PlanContains(f, "HashJoin") {
		t.Fatal("plan should not contain HashJoin")
	}
	if CountOps(f, "SeqScan") != 1 {
		t.Fatal("CountOps mismatch")
	}
}

func mustCompile(t *testing.T, src string, schema *expr.Schema) expr.Expr {
	t.Helper()
	e, err := expr.Compile(mustExpr(t, src), schema)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustExpr(t *testing.T, src string) sqlparser.Expr {
	t.Helper()
	e, err := sqlparser.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
