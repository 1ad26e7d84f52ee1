package exec

import (
	"context"
	"errors"
	"slices"
	"testing"
	"unsafe"

	rferrors "rfview/errors"
	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/expr"
	"rfview/internal/spill"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
)

// failingOp injects errors at a chosen point of the Volcano lifecycle, to
// verify every operator propagates child failures instead of swallowing
// them.
type failingOp struct {
	schema   *expr.Schema
	failOpen bool
	failAt   int // fail on the Nth Next call (1-based); 0 = never
	rows     []sqltypes.Row
	pos      int
	calls    int
}

var errInjected = errors.New("injected failure")

func (f *failingOp) Schema() *expr.Schema { return f.schema }

func (f *failingOp) Open() error {
	f.pos = 0
	f.calls = 0
	if f.failOpen {
		return errInjected
	}
	return nil
}

func (f *failingOp) Next() (sqltypes.Row, error) {
	f.calls++
	if f.failAt > 0 && f.calls >= f.failAt {
		return nil, errInjected
	}
	if f.pos >= len(f.rows) {
		return nil, nil
	}
	row := f.rows[f.pos]
	f.pos++
	return row, nil
}

func (f *failingOp) Close() error         { return nil }
func (f *failingOp) Describe() string     { return "FailingOp" }
func (f *failingOp) Children() []Operator { return nil }

func intSchema(names ...string) *expr.Schema {
	cols := make([]expr.ColInfo, len(names))
	for i, n := range names {
		cols[i] = expr.ColInfo{Name: n, Type: sqltypes.Int}
	}
	return expr.NewSchema(cols...)
}

func expectInjected(t *testing.T, op Operator, ctx string) {
	t.Helper()
	_, err := Collect(op)
	if !errors.Is(err, errInjected) {
		t.Fatalf("%s: error = %v, want injected failure", ctx, err)
	}
}

func TestOperatorsPropagateChildErrors(t *testing.T) {
	mkFail := func(open bool, at int) *failingOp {
		return &failingOp{
			schema:   intSchema("a"),
			failOpen: open,
			failAt:   at,
			rows:     []sqltypes.Row{intRow(1), intRow(2), intRow(3)},
		}
	}
	colA := func(s *expr.Schema) expr.Expr { return mustCompile(t, "a", s) }

	// Filter: open and mid-stream.
	expectInjected(t, &Filter{Input: mkFail(true, 0), Pred: colA(intSchema("a"))}, "filter open")
	f := mkFail(false, 2)
	expectInjected(t, &Filter{Input: f, Pred: mustCompile(t, "a > 0", f.schema)}, "filter next")

	// Project.
	p := mkFail(false, 2)
	expectInjected(t, NewProject(p, []expr.Expr{colA(p.schema)}, []string{"a"}), "project next")

	// Sort materializes on Open.
	s := mkFail(false, 2)
	expectInjected(t, &Sort{Input: s, Keys: []SortKey{{Expr: colA(s.schema)}}}, "sort")

	// Limit.
	l := mkFail(false, 1)
	expectInjected(t, &Limit{Input: l, N: 10}, "limit")

	// Distinct.
	d := mkFail(false, 2)
	expectInjected(t, &Distinct{Input: d}, "distinct")

	// UnionAll: failure in the second input.
	ok := &failingOp{schema: intSchema("a"), rows: []sqltypes.Row{intRow(9)}}
	u := &UnionAll{Inputs: []Operator{ok, mkFail(false, 1)}}
	expectInjected(t, u, "union all")

	// HashAggregate drains its input in Open.
	h := mkFail(false, 2)
	expectInjected(t, NewHashAggregate(h, []expr.Expr{colA(h.schema)}, []string{"g"},
		[]AggSpec{{Name: "COUNT", OutName: "c"}}), "hash aggregate")

	// Window drains in Open.
	w := mkFail(false, 2)
	expectInjected(t, NewWindow(w, nil, []SortKey{{Expr: colA(w.schema)}},
		[]WindowFunc{{Name: "SUM", Arg: colA(w.schema), Frame: DefaultFrame(true), OutName: "x"}}), "window")

	// Joins: failure on either side.
	left := mkFail(false, 2)
	right := &failingOp{schema: intSchema("b"), rows: []sqltypes.Row{intRow(1)}}
	expectInjected(t, NewNestedLoopJoin(left, right, JoinInner, nil), "nlj left")
	left2 := &failingOp{schema: intSchema("a"), rows: []sqltypes.Row{intRow(1)}}
	expectInjected(t, NewNestedLoopJoin(left2, mkFail(false, 1), JoinInner, nil), "nlj right (materialized in open)")

	colB := mustCompile(t, "b", intSchema("b"))
	hj := NewHashJoin(mkFail(false, 2), &failingOp{schema: intSchema("b"), rows: []sqltypes.Row{intRow(1)}},
		[]expr.Expr{colA(intSchema("a"))}, []expr.Expr{colB}, nil, JoinInner)
	expectInjected(t, hj, "hash join probe side")
	hj2 := NewHashJoin(&failingOp{schema: intSchema("a"), rows: []sqltypes.Row{intRow(1)}}, mkFail(false, 1),
		[]expr.Expr{colA(intSchema("a"))}, []expr.Expr{colB}, nil, JoinInner)
	expectInjected(t, hj2, "hash join build side")
}

// TestExprErrorsPropagate: a type error inside a predicate surfaces as a
// query error, not a silent skip.
func TestExprErrorsPropagate(t *testing.T) {
	schema := expr.NewSchema(
		expr.ColInfo{Name: "a", Type: sqltypes.Int},
		expr.ColInfo{Name: "s", Type: sqltypes.String},
	)
	rows := []sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewString("x")}}
	pred := mustCompile(t, "a + s > 0", schema) // int + string fails at eval
	_, err := Collect(&Filter{Input: NewValues(schema, rows), Pred: pred})
	if err == nil {
		t.Fatal("type error must propagate")
	}
	// Same inside an aggregate argument.
	agg := NewHashAggregate(NewValues(schema, rows), nil, nil,
		[]AggSpec{{Name: "SUM", Arg: mustCompile(t, "a + s", schema), OutName: "x"}})
	if _, err := Collect(agg); err == nil {
		t.Fatal("aggregate argument error must propagate")
	}
	// And inside a window argument.
	w := NewWindow(NewValues(schema, rows), nil, nil,
		[]WindowFunc{{Name: "SUM", Arg: mustCompile(t, "a + s", schema),
			Frame: DefaultFrame(false), OutName: "x"}})
	if _, err := Collect(w); err == nil {
		t.Fatal("window argument error must propagate")
	}
}

// TestDivisionByZeroSurfaces at the SQL operator level.
func TestDivisionByZeroSurfaces(t *testing.T) {
	schema := intSchema("a")
	rows := []sqltypes.Row{intRow(0)}
	proj := NewProject(NewValues(schema, rows),
		[]expr.Expr{mustCompile(t, "1 / a", schema)}, []string{"x"})
	if _, err := Collect(proj); err == nil {
		t.Fatal("division by zero must propagate")
	}
}

// seqTable stores rows as a simple view's backing table does — (pos, val) in
// heap order, on small pages so a scan hands them over in several batches —
// and returns it with its pager, whose pins the leak checks read.
func seqTable(t *testing.T, rows ...sqltypes.Row) (*catalog.Table, *storage.Pager) {
	t.Helper()
	pager := storage.NewPager(storage.PagerConfig{PageSize: storage.MinPageSize, Env: spill.NewEnv(t.TempDir())})
	t.Cleanup(func() { pager.Close() })
	tbl, err := catalog.New(pager).CreateTable("__mv_v", []catalog.Column{
		{Name: "pos", Type: sqltypes.Int}, {Name: "val", Type: sqltypes.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	insertRows(t, tbl.Heap, rows...)
	return tbl, pager
}

// sumSequence is the complete (1,1) SUM sequence over n ones: positions
// 0 … n+1, header and trailer included.
func sumSequence(n int) []sqltypes.Row {
	var rows []sqltypes.Row
	for k := 0; k <= n+1; k++ {
		lo, hi := max(k-1, 1), min(k+1, n)
		rows = append(rows, intRow(int64(k), int64(hi-lo+1)))
	}
	return rows
}

// deriveOver plans the (2,1) target over a (1,1) SUM view whose stored rows
// are tbl's, charged to a fresh budget.
func deriveOver(ctx context.Context, tbl *catalog.Table) (*Derive, *spill.Budget) {
	in := DeriveInput{Scan: NewScan(tbl, "v"), View: "v", Win: core.Sliding(1, 1), Agg: core.Sum, Algo: core.AlgoMinOA, Part: -1, Pos: 0, Val: 1, Body: -1}
	d := NewDerive(in, core.Sum, core.Sliding(2, 1), []sqlparser.DeriveColumn{{Name: "pos", Kind: sqlparser.DerivePos}, {Name: "w", Kind: sqlparser.DeriveValue}})
	d.Ctx, d.Spill = ctx, &spill.Config{Budget: spill.NewBudget(0)}
	return d, d.Spill.Budget
}

// TestDeriveLeaksNothing: a derive that completes, one that is cancelled in
// the middle of its scan and one that meets an incomplete sequence all end
// with no budget bytes charged and no page pinned — and the incomplete
// sequence is a typed error, never a row.
func TestDeriveLeaksNothing(t *testing.T) {
	const n = 400
	settled := func(t *testing.T, b *spill.Budget, p *storage.Pager) {
		t.Helper()
		if b.Used() != 0 {
			t.Errorf("budget still charged with %d bytes", b.Used())
		}
		if pins := p.Stats().PagesPinned; pins != 0 {
			t.Errorf("%d pages still pinned", pins)
		}
	}

	t.Run("complete", func(t *testing.T) {
		tbl, pager := seqTable(t, sumSequence(n)...)
		d, budget := deriveOver(context.Background(), tbl)
		var scanning int64
		d.In.Scan = &afterRows{batchOperator: d.In.Scan.(*Scan), rows: 200, do: func() { scanning = budget.Used() }}
		if err := d.Open(); err != nil {
			t.Fatal(err)
		}
		// The buffered rows are charged while the scan runs; once Open is done
		// they and the slab are let go and the output rows remain.
		output := int64(n) * int64(unsafe.Sizeof(sqltypes.Row{})+2*unsafe.Sizeof(sqltypes.Datum{}))
		if open := budget.Used(); scanning < 200*16 || open != output {
			t.Errorf("budget held %d bytes 200 rows into the scan and %d once open; want at least %d and %d", scanning, open, 200*16, output)
		}
		rows, err := Collect(d)
		if err != nil || len(rows) != n {
			t.Fatalf("derived %d rows, err %v; want %d", len(rows), err, n)
		}
		// The (2,1) window over ones holds min(k+1,n) − max(k−2,1) + 1 of them.
		for i, r := range rows {
			k := i + 1
			if want := int64(min(k+1, n) - max(k-2, 1) + 1); r[0].Int() != int64(k) || r[1].Int() != want {
				t.Fatalf("row %d = %v, want (%d, %d)", i, r, k, want)
			}
		}
		settled(t, budget, pager)
	})

	t.Run("cancelled", func(t *testing.T) {
		tbl, pager := seqTable(t, sumSequence(n)...)
		ctx, cancel := context.WithCancel(context.Background())
		d, budget := deriveOver(ctx, tbl)
		// The scan hands over 200 rows — its iterator holding a page — and
		// then the caller gives up.
		d.In.Scan = &afterRows{batchOperator: d.In.Scan.(*Scan), rows: 200, do: cancel}
		if _, err := CollectCtx(ctx, d); !errors.Is(err, rferrors.ErrCancelled) {
			t.Fatalf("cancelled derive: %v, want ErrCancelled", err)
		}
		settled(t, budget, pager)
	})

	seq := sumSequence(n)
	for name, rows := range map[string][]sqltypes.Row{
		"gap":            append(slices.Clone(seq[:100]), seq[101:]...),
		"duplicate":      append(append(slices.Clone(seq[:100]), seq[99]), seq[101:]...),
		"missing header": seq[1:],
		"no trailer":     seq[:1],
		"NULL value":     append(slices.Clone(seq[:n+1]), sqltypes.Row{sqltypes.NewInt(n + 1), sqltypes.NullDatum}),
	} {
		t.Run(name, func(t *testing.T) {
			tbl, pager := seqTable(t, rows...)
			d, budget := deriveOver(context.Background(), tbl)
			got, err := Collect(d)
			var seqErr *SequenceError
			if !errors.As(err, &seqErr) || got != nil {
				t.Fatalf("incomplete sequence: %d rows, err %v; want a *SequenceError and no row", len(got), err)
			}
			settled(t, budget, pager)
		})
	}
}

// afterRows calls do once it has passed rows rows, when the next batch is
// asked for — to cancel the statement's context in the middle of a scan, or
// to look at the budget there.
type afterRows struct {
	batchOperator
	rows int
	do   func()
}

func (a *afterRows) NextBatch(cols []int, b *sqltypes.Batch) (bool, error) {
	if a.rows <= 0 && a.do != nil {
		a.do()
		a.do = nil
	}
	ok, err := a.batchOperator.NextBatch(cols, b)
	if ok {
		a.rows -= b.Len()
	}
	return ok, err
}
