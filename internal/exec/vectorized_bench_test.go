package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rfview/internal/catalog"
	"rfview/internal/expr"
	"rfview/internal/spill"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
)

// Microbenchmarks for the Sort and Window operators over the key and
// argument shapes that select their paths — typed records and kernels for
// homogeneous columns, two order words a value and a FLOAT argument for an
// Int/Float mix — so `benchstat` or a CI artifact diff shows the per-op time
// and allocation of each. No thresholds are enforced — these are recorded
// measurements, not gates.

func benchExpr(src string, schema *expr.Schema) expr.Expr {
	ast, err := sqlparser.ParseExpr(src)
	if err != nil {
		panic(err)
	}
	e, err := expr.Compile(ast, schema)
	if err != nil {
		panic(err)
	}
	return e
}

// benchSortRows builds n rows with a low-cardinality int key, a short string
// key, and a payload column, per the given key shape.
func benchSortRows(n int, shape string) ([]sqltypes.Row, *expr.Schema) {
	schema := expr.NewSchema(
		expr.ColInfo{Name: "k1", Type: sqltypes.Int},
		expr.ColInfo{Name: "k2", Type: sqltypes.String},
		expr.ColInfo{Name: "payload", Type: sqltypes.Int},
	)
	rng := rand.New(rand.NewSource(1))
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		var k1 sqltypes.Datum
		switch shape {
		case "float":
			k1 = sqltypes.NewFloat(rng.Float64() * 1000)
		case "mixed":
			if i%2 == 0 {
				k1 = sqltypes.NewInt(int64(rng.Intn(1000)))
			} else {
				k1 = sqltypes.NewFloat(rng.Float64() * 1000)
			}
		default:
			k1 = sqltypes.NewInt(int64(rng.Intn(1000)))
		}
		rows[i] = sqltypes.Row{
			k1,
			sqltypes.NewString(fmt.Sprintf("s%03d", rng.Intn(500))),
			sqltypes.NewInt(int64(i)),
		}
	}
	return rows, schema
}

// BenchmarkSortKeyShapes measures exec.Sort over INT+STRING keys
// (byte-encodable), FLOAT keys, and an Int/Float-mixed key column (two
// order words a value).
func BenchmarkSortKeyShapes(b *testing.B) {
	const n = 4096
	for _, shape := range []string{"int", "float", "mixed"} {
		rows, schema := benchSortRows(n, shape)
		keys := []SortKey{
			{Expr: benchExpr("k1", schema)},
			{Expr: benchExpr("k2", schema), Desc: true},
		}
		b.Run(shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := &Sort{Input: NewValues(schema, rows), Keys: keys}
				if _, err := Collect(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWindowRows builds parts partitions of rowsPer rows each, with val
// datums of the given shape ("mixed" alternates Int and Float — the
// fallback-forcing DECIMAL stand-in).
func benchWindowRows(parts, rowsPer int, shape string) []sqltypes.Row {
	rng := rand.New(rand.NewSource(2))
	rows := make([]sqltypes.Row, 0, parts*rowsPer)
	for g := 0; g < parts; g++ {
		for i := 1; i <= rowsPer; i++ {
			var val sqltypes.Datum
			switch shape {
			case "float":
				val = sqltypes.NewFloat(rng.Float64() * 100)
			case "mixed":
				if i%2 == 0 {
					val = sqltypes.NewInt(int64(rng.Intn(100)))
				} else {
					val = sqltypes.NewFloat(rng.Float64() * 100)
				}
			default:
				val = sqltypes.NewInt(int64(rng.Intn(100)))
			}
			rows = append(rows, sqltypes.Row{
				sqltypes.NewInt(int64(g)), sqltypes.NewInt(int64(i)), val,
			})
		}
	}
	return rows
}

// BenchmarkWindowArgShapes measures the Window operator — sliding
// SUM/MIN/AVG over 8 partitions of 512 rows — for INT and FLOAT argument
// columns and a mixed one, which is coerced to FLOAT once per run.
func BenchmarkWindowArgShapes(b *testing.B) {
	schema := expr.NewSchema(
		expr.ColInfo{Name: "grp", Type: sqltypes.Int},
		expr.ColInfo{Name: "pos", Type: sqltypes.Int},
		expr.ColInfo{Name: "val", Type: sqltypes.Float},
	)
	grpEx := benchExpr("grp", schema)
	posEx := benchExpr("pos", schema)
	valEx := benchExpr("val", schema)
	frame := FrameSpec{
		Start: FrameBound{Kind: BoundPreceding, Offset: 8},
		End:   FrameBound{Kind: BoundFollowing, Offset: 8},
	}
	funcs := []WindowFunc{
		{Name: "SUM", Arg: valEx, Frame: frame, OutName: "s"},
		{Name: "MIN", Arg: valEx, Frame: frame, OutName: "m"},
		{Name: "AVG", Arg: valEx, Frame: frame, OutName: "a"},
	}
	for _, shape := range []string{"int", "float", "mixed"} {
		rows := benchWindowRows(8, 512, shape)
		b.Run(shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := NewWindow(NewValues(schema, rows), []expr.Expr{grpEx},
					[]SortKey{{Expr: posEx}}, funcs)
				if _, err := Collect(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// scanShapePlans builds the plan of the benchmark's scan_window statements,
// SELECT k, SUM(v) OVER (PARTITION BY p ORDER BY k ROWS BETWEEN 3 PRECEDING
// AND 2 FOLLOWING) FROM t WHERE v >= 0, over n five-column rows in shuffled
// order across parts partitions: Project ← Window ← Filter, the projection
// pushed down as the planner does. It returns the plan over two inputs
// holding the same rows: "scan", a paged table whose batches the window
// drains, and "values", a row input that takes the window's row drain (the
// path of a window over a Sort, a join or a shared stream).
func scanShapePlans(tb testing.TB, n, parts int) []scanShape {
	pager := storage.NewPager(storage.PagerConfig{Env: spill.NewEnv(tb.TempDir())})
	tb.Cleanup(func() { pager.Close() })
	tbl, err := catalog.New(pager).CreateTable("t", []catalog.Column{
		{Name: "k", Type: sqltypes.Int}, {Name: "p", Type: sqltypes.Int}, {Name: "q", Type: sqltypes.Int},
		{Name: "d", Type: sqltypes.Date}, {Name: "v", Type: sqltypes.Int},
	})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rows := make([]sqltypes.Row, n)
	for i, k := range rng.Perm(n) {
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(k + 1)), sqltypes.NewInt(int64(rng.Intn(parts))), sqltypes.NewInt(int64(rng.Intn(250))),
			sqltypes.NewDate(int64(11323 + k*336/n)), sqltypes.NewInt(int64(5 + rng.Intn(500))),
		}
	}
	insertRows(tb, tbl.Heap, rows...)
	schema := NewScan(tbl, "t").Schema()
	frame := FrameSpec{
		Start: FrameBound{Kind: BoundPreceding, Offset: 3},
		End:   FrameBound{Kind: BoundFollowing, Offset: 2},
	}
	over := func(input func() Operator) func() Operator {
		return func() Operator {
			var op Operator = &Filter{Input: input(), Pred: benchExpr("v >= 0", schema)}
			win := NewWindow(op, []expr.Expr{benchExpr("p", schema)}, []SortKey{{Expr: benchExpr("k", schema)}},
				[]WindowFunc{{Name: "SUM", Arg: benchExpr("v", schema), Frame: frame, OutName: "w"}})
			proj := NewProject(win, []expr.Expr{benchExpr("k", win.Schema()), benchExpr("w", win.Schema())}, []string{"k", "w"})
			proj.PushDown()
			return proj
		}
	}
	return []scanShape{
		{"scan", over(func() Operator { return NewScan(tbl, "t") })},
		{"values", over(func() Operator { return NewValues(schema, rows) })},
	}
}

type scanShape struct {
	input string
	plan  func() Operator
}

// BenchmarkWindowScanShape is the benchmark's scan_window statement shape —
// 20k rows loaded in shuffled order, 200 partitions, one sliding SUM — so
// the operator's time and allocations reproduce with `go test -bench` alone,
// over both the batch input and the row input.
func BenchmarkWindowScanShape(b *testing.B) {
	for _, shape := range scanShapePlans(b, 20000, 200) {
		b.Run(shape.input, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Collect(shape.plan()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWindowAllocsPerRow pins the allocation shape of the single-OVER plan:
// a 10k-row, 100-partition shuffled table through Project ← Window ← Filter
// end to end allocates per run (the output slab, the row headers, pooled
// scratch on a cold pool, the plan itself), not per row, whether the window
// drains the scan's batches or a row input. The bound is ROADMAP's 0.5
// allocations per input row; the operator this replaced made three.
func TestWindowAllocsPerRow(t *testing.T) {
	const n = 10000
	for _, shape := range scanShapePlans(t, n, 100) {
		perRun := testing.AllocsPerRun(10, func() {
			rows, err := CollectCtx(context.Background(), shape.plan())
			if err != nil || len(rows) != n {
				t.Fatalf("%s: %d rows, err %v", shape.input, len(rows), err)
			}
		})
		if perRow := perRun / n; perRow > 0.5 {
			t.Fatalf("%s: %.0f allocations per run = %.3f per input row, want <= 0.5", shape.input, perRun, perRow)
		}
	}
}
