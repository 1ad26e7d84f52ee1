package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"rfview/internal/expr"
	"rfview/internal/sqltypes"
)

// vecWindow builds a Window over (grp, pos, val) rows — PARTITION BY grp,
// ORDER BY pos (optionally DESC) — with one function per aggregate name, all
// over the val column (COUNT becomes COUNT(*)).
func vecWindow(t *testing.T, rows []sqltypes.Row, frame FrameSpec, desc bool, aggs ...string) *Window {
	t.Helper()
	schema := pwSchema()
	grpEx := mustCompile(t, "grp", schema)
	posEx := mustCompile(t, "pos", schema)
	valEx := mustCompile(t, "val", schema)
	funcs := make([]WindowFunc, len(aggs))
	for i, a := range aggs {
		arg := valEx
		if a == "COUNT" {
			arg = nil
		}
		funcs[i] = WindowFunc{Name: a, Arg: arg, Frame: frame, OutName: fmt.Sprintf("w%d", i)}
	}
	return NewWindow(valuesOp(schema, rows...), []expr.Expr{grpEx},
		[]SortKey{{Expr: posEx, Desc: desc}}, funcs)
}

// vecValue draws one val datum for the given column shape. Floats are
// eighths, so every sum is exact whatever order a kernel accumulates in.
func vecValue(rng *rand.Rand, shape string) sqltypes.Datum {
	if strings.Contains(shape, "null") && rng.Intn(4) == 0 {
		return sqltypes.NullDatum // NULLs mid-column
	}
	switch {
	case strings.HasPrefix(shape, "int"):
		return sqltypes.NewInt(int64(rng.Intn(200) - 100))
	case strings.HasPrefix(shape, "float"):
		return sqltypes.NewFloat(float64(rng.Intn(1600)-800) / 8)
	default: // "mixed": the DECIMAL stand-in — Int/Float heterogeneous column
		if rng.Intn(2) == 0 {
			return sqltypes.NewInt(int64(rng.Intn(200) - 100))
		}
		return sqltypes.NewFloat(float64(rng.Intn(1600)-800) / 8)
	}
}

// TestWindowTypedMatchesBoxed is the kernel oracle at the operator level:
// over homogeneous INT and FLOAT columns, NULL-bearing ones and Int/Float
// mixes, every answer must equal the explicit form — the aggregate fed every
// row of the frame, one frame at a time — for every frame shape, including
// the FOLLOWING-only and far-PRECEDING bands core.Window cannot express, and
// ASC/DESC ordering.
func TestWindowTypedMatchesBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	frames := []FrameSpec{
		DefaultFrame(true),
		DefaultFrame(false),
		{Start: FrameBound{Kind: BoundPreceding, Offset: 2}, End: FrameBound{Kind: BoundFollowing, Offset: 1}},
		{Start: FrameBound{Kind: BoundFollowing, Offset: 1}, End: FrameBound{Kind: BoundFollowing, Offset: 3}},
		// Far-preceding band: empty frames on every short partition.
		{Start: FrameBound{Kind: BoundPreceding, Offset: 9}, End: FrameBound{Kind: BoundPreceding, Offset: 4}},
	}
	aggs := []string{"SUM", "COUNT", "MIN", "MAX", "AVG"}
	for _, shape := range []string{"int", "float", "int-null", "float-null", "mixed", "mixed-null"} {
		t.Run(shape, func(t *testing.T) {
			for trial := 0; trial < 12; trial++ {
				var rows []sqltypes.Row
				parts := make([][]sqltypes.Datum, 1+rng.Intn(5)) // val by pos-1
				for g := range parts {
					for i, n := 1, rng.Intn(20); i <= n; i++ {
						v := vecValue(rng, shape)
						parts[g] = append(parts[g], v)
						rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(g)), sqltypes.NewInt(int64(i)), v})
					}
				}
				rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
				frame := frames[trial%len(frames)]
				desc := trial%2 == 1
				ctx := fmt.Sprintf("shape=%s trial=%d frame=%d desc=%v rows=%d",
					shape, trial, trial%len(frames), desc, len(rows))
				w := vecWindow(t, rows, frame, desc, aggs...)
				for _, row := range mustCollect(t, w) {
					vals := parts[row[0].Int()]
					n := len(vals)
					i := int(row[1].Int()) - 1
					if desc {
						vals = slices.Clone(vals)
						slices.Reverse(vals)
						i = n - 1 - i
					}
					lo, hi := frameRows(frame, i, n)
					for ai, agg := range aggs {
						acc, _ := expr.NewAgg(agg)
						for j := lo; j <= hi; j++ {
							if agg == "COUNT" {
								acc.Add(sqltypes.NewInt(1)) // COUNT(*)
							} else {
								acc.Add(vals[j])
							}
						}
						got, want := row[3+ai], acc.Result()
						if got.IsNull() != want.IsNull() || (!got.IsNull() && !sqltypes.Equal(got, want)) {
							t.Fatalf("%s: grp %s pos %s %s = %v, explicit form says %v", ctx, row[0], row[1], agg, got, want)
						}
					}
				}
			}
		})
	}
}

// TestWindowVectorizedStats pins the sort paths through the stats counters:
// clean INT keys run typed sorts, as they do beside a NULL in the argument
// column and over an Int/Float mix in the order key.
func TestWindowVectorizedStats(t *testing.T) {
	clean := []sqltypes.Row{intRow(1, 1, 10), intRow(1, 2, 20), intRow(2, 1, 5), intRow(2, 2, 6)}
	withNull := []sqltypes.Row{
		intRow(1, 1, 10),
		{sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NullDatum},
	}
	mixed := []sqltypes.Row{
		intRow(1, 1, 10),
		{sqltypes.NewInt(1), sqltypes.NewFloat(1.5), sqltypes.NewFloat(2.5)},
		intRow(1, 2, 20),
	}
	run := func(rows []sqltypes.Row) *WindowStats {
		st := &WindowStats{}
		w := vecWindow(t, rows, DefaultFrame(true), false, "SUM", "COUNT")
		w.Stats = st
		mustCollect(t, w)
		return st
	}
	for name, rows := range map[string][]sqltypes.Row{"clean": clean, "null argument": withNull, "mixed key": mixed} {
		st := run(rows)
		if st.TypedSorts.Load() == 0 || st.TypedSorts.Load() != st.NormalizedSorts.Load() {
			t.Fatalf("%s: typed=%d of %d sorts", name, st.TypedSorts.Load(), st.NormalizedSorts.Load())
		}
	}
}

// TestSortNormalizedMatchesComparator: the Sort operator must order random
// heterogeneous-typed multi-key inputs exactly as a stable library sort over
// the comparator written out in refCmp does — including stable tie order (the
// payload column tracks input position) — whether the keys pack into typed
// records, need the byte encoding (a VARCHAR key), or mix Int and Float in
// one key column.
func TestSortNormalizedMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	schema := expr.NewSchema(
		expr.ColInfo{Name: "a", Type: sqltypes.Int},
		expr.ColInfo{Name: "b", Type: sqltypes.String},
		expr.ColInfo{Name: "c", Type: sqltypes.Float},
		expr.ColInfo{Name: "payload", Type: sqltypes.Int},
	)
	mkKey := func(col string, desc bool) SortKey {
		return SortKey{Expr: mustCompile(t, col, schema), Desc: desc}
	}
	paths := map[sortPath]int{}
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(120)
		rows := make([]sqltypes.Row, n)
		for i := range rows {
			a := sqltypes.NewInt(int64(rng.Intn(5))) // heavy ties
			if rng.Intn(8) == 0 {
				a = sqltypes.NullDatum
			}
			b := sqltypes.NewString(string([]byte{byte('a' + rng.Intn(3)), byte('a' + rng.Intn(3))}))
			c := sqltypes.NewFloat([]float64{0, math.Copysign(0, -1), 1.5, 2, 1 << 53, math.NaN()}[rng.Intn(6)])
			if trial%3 == 0 && rng.Intn(3) == 0 {
				c = sqltypes.NewInt([]int64{0, 2, 1 << 53, 1<<53 + 1}[rng.Intn(4)]) // mixed Int/Float key column
			}
			rows[i] = sqltypes.Row{a, b, c, sqltypes.NewInt(int64(i))}
		}
		cols := []int{0, 1, 2}
		if trial%2 == 1 {
			cols = []int{0, 2} // fixed-width keys only: the typed records
		}
		var keys []SortKey
		for _, ci := range cols {
			keys = append(keys, mkKey([]string{"a", "b", "c"}[ci], trial%(2+ci) == 0))
		}
		want := append([]sqltypes.Row(nil), rows...)
		sort.SliceStable(want, func(x, y int) bool {
			for ki, ci := range cols {
				a, b := want[x][ci], want[y][ci]
				if a.IsNull() || b.IsNull() {
					if a.IsNull() != b.IsNull() {
						return a.IsNull() != keys[ki].nullsLast()
					}
					continue
				}
				c := refCmp(a, b)
				if ci == 1 {
					c = strings.Compare(a.Str(), b.Str())
				}
				if keys[ki].Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		s := &Sort{Input: valuesOp(schema, rows...), Keys: keys}
		requireSameRows(t, want, mustCollect(t, s), fmt.Sprintf("trial %d n=%d keys=%v", trial, n, keys))
		paths[s.path]++
	}
	if paths[sortTyped] == 0 || paths[sortEncoded] == 0 {
		t.Fatalf("trials must reach both sort paths: %v", paths)
	}
}

// TestSortKeyTypeMismatchSurfaces is the satellite bug fix: a key column
// mixing incomparable types (INT and VARCHAR) must fail with a type error
// before any ordering happens, in both Sort and Window.
func TestSortKeyTypeMismatchSurfaces(t *testing.T) {
	schema := pwSchema()
	rows := []sqltypes.Row{
		intRow(1, 1, 10),
		{sqltypes.NewInt(1), sqltypes.NewString("oops"), sqltypes.NewInt(20)}, // pos is a string
		intRow(1, 3, 30),
	}
	s := &Sort{Input: valuesOp(schema, rows...), Keys: []SortKey{{Expr: mustCompile(t, "pos", schema)}}}
	_, err := Collect(s)
	var tm *sqltypes.ErrTypeMismatch
	if !errors.As(err, &tm) {
		t.Fatalf("Sort: want ErrTypeMismatch, got %v", err)
	}
	w := vecWindow(t, rows, DefaultFrame(true), false, "SUM")
	if _, err := Collect(w); !errors.As(err, &tm) {
		t.Fatalf("Window: want ErrTypeMismatch, got %v", err)
	}
}

// TestSortNaNKeySortsTyped: a NaN order key sorts on the typed path, above
// every number and tied with every other NaN, so the stable sort keeps the
// NaNs in arrival order after the numbers.
func TestSortNaNKeySortsTyped(t *testing.T) {
	schema := expr.NewSchema(
		expr.ColInfo{Name: "k", Type: sqltypes.Float},
		expr.ColInfo{Name: "payload", Type: sqltypes.Int},
	)
	rows := []sqltypes.Row{
		{sqltypes.NewFloat(math.NaN()), sqltypes.NewInt(0)},
		{sqltypes.NewFloat(2), sqltypes.NewInt(1)},
		{sqltypes.NewFloat(math.NaN()), sqltypes.NewInt(2)},
		{sqltypes.NewFloat(2), sqltypes.NewInt(3)},
	}
	s := &Sort{Input: valuesOp(schema, rows...), Keys: []SortKey{{Expr: mustCompile(t, "k", schema)}}}
	requireSameRows(t, []sqltypes.Row{rows[1], rows[3], rows[0], rows[2]}, mustCollect(t, s), "NaN keys")
	if s.path != sortTyped {
		t.Fatalf("NaN keys sorted on the %s path, want typed", s.path)
	}
}

// TestWindowNegativeZeroMinMax: MIN and MAX order -0.0 below +0.0, so a
// frame holding both answers MIN -0.0 and MAX +0.0 whatever their order.
// Partition 2 repeats partition 1 plus a trailing NULL, which MIN/MAX skip.
func TestWindowNegativeZeroMinMax(t *testing.T) {
	negZero := math.Copysign(0, -1)
	var rows []sqltypes.Row
	for g := int64(1); g <= 2; g++ {
		for i, v := range []float64{negZero, 0, negZero} {
			rows = append(rows, sqltypes.Row{sqltypes.NewInt(g), sqltypes.NewInt(int64(i + 1)), sqltypes.NewFloat(v)})
		}
	}
	rows = append(rows, sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewInt(4), sqltypes.NullDatum})
	w := vecWindow(t, rows, DefaultFrame(false), false, "MIN", "MAX")
	for i, row := range mustCollect(t, w) {
		mn, mx := row[3].Float(), row[4].Float()
		if mn != 0 || !math.Signbit(mn) || mx != 0 || math.Signbit(mx) {
			t.Fatalf("row %d: MIN %v MAX %v (sign bits %v/%v), want -0 and +0", i, mn, mx, math.Signbit(mn), math.Signbit(mx))
		}
	}
}

// TestWindowEmptyPartitionScratch drives many tiny partitions through the
// pooled scratch with parallelism, checking buffer reuse across goroutines
// cannot bleed state between partitions.
func TestWindowEmptyPartitionScratch(t *testing.T) {
	var rows []sqltypes.Row
	for g := int64(0); g < 40; g++ {
		rows = append(rows, intRow(g, 1, g))
	}
	w := vecWindow(t, rows, DefaultFrame(true), false, "SUM", "MIN", "AVG")
	w.Parallelism = 8
	for _, row := range mustCollect(t, w) {
		// One row per partition: every aggregate is the row's own value.
		for c := 3; c <= 5; c++ {
			if row[c].Float() != row[2].Float() {
				t.Fatalf("partition %s: column %d = %s, want %s", row[0], c, row[c], row[2])
			}
		}
	}
}
