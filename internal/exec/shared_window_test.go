package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rfview/internal/expr"
	"rfview/internal/sqltypes"
)

// These tests pin the executor half of shared-sort window planning: a Window
// consuming a shared Sort (bracketed by Ordinal/Restore) must produce rows
// bit-identical — values and order — to the same Window sorting internally
// over the raw input. The edge cases that cannot be written in SQL are built
// here from raw datums: NaN keys (equal to each other, above every number),
// negative zero (Equal to +0.0 with other bits), and Int/Float mixes (two
// order words a value).

// sharedStack builds the shared-plan bracket over rows:
// Values → Ordinal → Sort(sortKeys) → Window(shared) → Restore.
func sharedStack(schema *expr.Schema, rows []sqltypes.Row, pb []expr.Expr, ob, sortKeys []SortKey, funcs []WindowFunc, preSorted bool) Operator {
	ordCol := len(schema.Cols)
	var op Operator = NewOrdinal(valuesOp(schema, rows...), "__rf_ord")
	op = &Sort{Input: op, Keys: sortKeys, SharedClass: 1}
	w := NewWindow(op, pb, ob, funcs)
	w.Shared = true
	w.PreSorted = preSorted
	w.OrdinalCol = ordCol
	w.Class = 1
	return NewRestore(w, ordCol)
}

// diffSharedUnshared collects both plans and requires bit-identical output.
func diffSharedUnshared(t *testing.T, label string, schema *expr.Schema, rows []sqltypes.Row, pb []expr.Expr, ob, sortKeys []SortKey, funcs []WindowFunc, preSorted bool) {
	t.Helper()
	want, err := Collect(NewWindow(valuesOp(schema, rows...), pb, ob, funcs))
	if err != nil {
		t.Fatalf("%s: unshared: %v", label, err)
	}
	got, err := Collect(sharedStack(schema, rows, pb, ob, sortKeys, funcs, preSorted))
	if err != nil {
		t.Fatalf("%s: shared: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("%s: row %d = %s, want %s", label, i, got[i], want[i])
		}
	}
}

// keysOf compiles column names into partition expressions.
func keysOf(t *testing.T, schema *expr.Schema, cols ...string) []expr.Expr {
	t.Helper()
	out := make([]expr.Expr, len(cols))
	for i, c := range cols {
		e, err := expr.Compile(mustExpr(t, c), schema)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = e
	}
	return out
}

func sortKeysOf(t *testing.T, schema *expr.Schema, specs ...string) []SortKey {
	t.Helper()
	out := make([]SortKey, len(specs))
	for i, s := range specs {
		name, desc := s, false
		if strings.HasSuffix(s, " DESC") {
			name, desc = strings.TrimSuffix(s, " DESC"), true
		}
		e, err := expr.Compile(mustExpr(t, name), schema)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = SortKey{Expr: e, Desc: desc}
	}
	return out
}

func sumCum(arg expr.Expr) []WindowFunc {
	return []WindowFunc{{Name: "SUM", Arg: arg, Frame: DefaultFrame(true), OutName: "w"}}
}

// pkvSchema is the shared three-column fixture: p (partition), k (order), v
// (value).
func pkvSchema(pTyp, kTyp sqltypes.Type) *expr.Schema {
	return expr.NewSchema(
		expr.ColInfo{Name: "p", Type: pTyp},
		expr.ColInfo{Name: "k", Type: kTyp},
		expr.ColInfo{Name: "v", Type: sqltypes.Int},
	)
}

// TestSharedWindowTiesMatchUnshared: the shared sort refines the window's
// ORDER BY with an extra key, so rows tying on k arrive in refined order; tie
// normalization must restore the unshared (input-order) tie-break, which is
// observable through the cumulative ROWS frame.
func TestSharedWindowTiesMatchUnshared(t *testing.T) {
	schema := pkvSchema(sqltypes.Int, sqltypes.Int)
	var rows []sqltypes.Row
	// Many duplicate (p, k) pairs with distinct v: the refinement key v
	// reorders ties unless normalization undoes it.
	for i := 0; i < 40; i++ {
		rows = append(rows, intRow(int64(i%3), int64(i%4), int64(37-i)))
	}
	pb := keysOf(t, schema, "p")
	ob := sortKeysOf(t, schema, "k")
	shared := sortKeysOf(t, schema, "p", "k", "v DESC") // refined class sort
	diffSharedUnshared(t, "ties", schema, rows, pb, ob, shared, sumCum(keysOf(t, schema, "v")[0]), true)
}

// TestSharedWindowNaNPartitionKeys: the NaN partition keys are one
// partition, which the class sort places like any other; results must match
// the unshared plan exactly.
func TestSharedWindowNaNPartitionKeys(t *testing.T) {
	schema := pkvSchema(sqltypes.Float, sqltypes.Int)
	nan := math.NaN()
	var rows []sqltypes.Row
	for i := 0; i < 24; i++ {
		p := float64(i % 3)
		if i%5 == 0 {
			p = nan
		}
		rows = append(rows, sqltypes.Row{sqltypes.NewFloat(p), sqltypes.NewInt(int64(i % 4)), sqltypes.NewInt(int64(i))})
	}
	pb := keysOf(t, schema, "p")
	ob := sortKeysOf(t, schema, "k")
	shared := sortKeysOf(t, schema, "p", "k")
	w := sharedStack(schema, rows, pb, ob, shared, sumCum(keysOf(t, schema, "v")[0]), true)
	diffSharedUnshared(t, "nan-partition", schema, rows, pb, ob, shared, sumCum(keysOf(t, schema, "v")[0]), true)
	// No fallback: the run consumes the class sort rather than sorting again.
	stats := &WindowStats{}
	findWindow(w).Stats = stats
	if _, err := Collect(w); err != nil {
		t.Fatal(err)
	}
	if stats.SortsPerformed.Load() != 0 || stats.SortsShared.Load() != 1 {
		t.Fatalf("NaN partition stats: performed=%d shared=%d, want 0/1",
			stats.SortsPerformed.Load(), stats.SortsShared.Load())
	}
}

// findWindow digs the Window operator out of a shared stack.
func findWindow(op Operator) *Window {
	for op != nil {
		if w, ok := op.(*Window); ok {
			return w
		}
		kids := op.Children()
		if len(kids) == 0 {
			return nil
		}
		op = kids[0]
	}
	return nil
}

// TestSharedWindowNaNOrderKeys: NaN order keys tie with each other, so the
// pre-sorted path normalizes their tie runs like any other and must match
// the unshared plan.
func TestSharedWindowNaNOrderKeys(t *testing.T) {
	schema := pkvSchema(sqltypes.Int, sqltypes.Float)
	nan := math.NaN()
	var rows []sqltypes.Row
	for i := 0; i < 24; i++ {
		k := float64(i % 4)
		if i%6 == 0 {
			k = nan
		}
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i % 3)), sqltypes.NewFloat(k), sqltypes.NewInt(int64(i))})
	}
	pb := keysOf(t, schema, "p")
	ob := sortKeysOf(t, schema, "k")
	shared := sortKeysOf(t, schema, "p", "k")
	diffSharedUnshared(t, "nan-order", schema, rows, pb, ob, shared, sumCum(keysOf(t, schema, "v")[0]), true)
}

// TestSharedWindowNegativeZeroPartitionKeys: -0.0 and +0.0 are Equal, so
// both plans hold them in one partition.
func TestSharedWindowNegativeZeroPartitionKeys(t *testing.T) {
	schema := pkvSchema(sqltypes.Float, sqltypes.Int)
	negz := math.Copysign(0, -1)
	var rows []sqltypes.Row
	for i := 0; i < 20; i++ {
		p := 0.0
		if i%2 == 0 {
			p = negz
		}
		rows = append(rows, sqltypes.Row{sqltypes.NewFloat(p), sqltypes.NewInt(int64(i % 4)), sqltypes.NewInt(int64(i))})
	}
	pb := keysOf(t, schema, "p")
	ob := sortKeysOf(t, schema, "k")
	shared := sortKeysOf(t, schema, "p", "k")
	diffSharedUnshared(t, "negzero", schema, rows, pb, ob, shared, sumCum(keysOf(t, schema, "v")[0]), true)
}

// TestSharedWindowMixedIntFloatKeys: an Int/Float mix sorts on two order
// words a value (1 and 1.0 tie), in both plans; results must agree.
func TestSharedWindowMixedIntFloatKeys(t *testing.T) {
	schema := pkvSchema(sqltypes.Int, sqltypes.Float) // declared Float, holds a mix
	var rows []sqltypes.Row
	for i := 0; i < 24; i++ {
		var k sqltypes.Datum
		if i%2 == 0 {
			k = sqltypes.NewInt(int64(i % 4))
		} else {
			k = sqltypes.NewFloat(float64(i % 4))
		}
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i % 3)), k, sqltypes.NewInt(int64(i))})
	}
	pb := keysOf(t, schema, "p")
	ob := sortKeysOf(t, schema, "k")
	shared := sortKeysOf(t, schema, "p", "k")
	diffSharedUnshared(t, "int-float-mix", schema, rows, pb, ob, shared, sumCum(keysOf(t, schema, "v")[0]), true)
}

// TestSharedWindowSegmentedResort: the stream is sorted for another spec of
// the same class (same partition set, different order), so the operator runs
// PreSorted=false — it reuses the contiguous partitions and re-sorts each
// segment. Results must match the unshared plan, including DESC-vs-ASC on
// the same key.
func TestSharedWindowSegmentedResort(t *testing.T) {
	schema := pkvSchema(sqltypes.Int, sqltypes.Int)
	var rows []sqltypes.Row
	for i := 0; i < 30; i++ {
		rows = append(rows, intRow(int64(i%4), int64(i%5), int64(i)))
	}
	pb := keysOf(t, schema, "p")
	for _, spec := range []string{"k", "k DESC"} {
		ob := sortKeysOf(t, schema, spec)
		// The class sort orders by a different key entirely.
		shared := sortKeysOf(t, schema, "p", "v DESC")
		diffSharedUnshared(t, "segmented/"+spec, schema, rows, pb, ob, shared,
			sumCum(keysOf(t, schema, "v")[0]), false)
	}
}

// TestSharedWindowNoOrder: OVER (PARTITION BY p) with no ORDER BY — the
// shared consumer must restore input order within each partition (whole-
// partition frames are order-insensitive, but ROWS frames over the explicit
// frame clause are not).
func TestSharedWindowNoOrder(t *testing.T) {
	schema := pkvSchema(sqltypes.Int, sqltypes.Int)
	var rows []sqltypes.Row
	for i := 0; i < 20; i++ {
		rows = append(rows, intRow(int64(i%3), int64(i%4), int64(i)))
	}
	pb := keysOf(t, schema, "p")
	frame := FrameSpec{
		Start: FrameBound{Kind: BoundPreceding, Offset: 1},
		End:   FrameBound{Kind: BoundCurrentRow},
	}
	funcs := []WindowFunc{{Name: "SUM", Arg: keysOf(t, schema, "v")[0], Frame: frame, OutName: "w"}}
	shared := sortKeysOf(t, schema, "p")
	diffSharedUnshared(t, "no-order", schema, rows, pb, nil, shared, funcs, true)
}

// TestOrdinalRestoreRoundTrip: the bracket alone (no windows) is an identity
// — Ordinal appends the position column, Restore strips it and re-emits the
// original order even after an intervening sort.
func TestOrdinalRestoreRoundTrip(t *testing.T) {
	schema := pkvSchema(sqltypes.Int, sqltypes.Int)
	var rows []sqltypes.Row
	for i := 0; i < 15; i++ {
		rows = append(rows, intRow(int64(14-i), int64(i%3), int64(i)))
	}
	ord := NewOrdinal(valuesOp(schema, rows...), "__rf_ord")
	if got, want := len(ord.Schema().Cols), 4; got != want {
		t.Fatalf("ordinal schema has %d cols, want %d", got, want)
	}
	s := &Sort{Input: ord, Keys: sortKeysOf(t, schema, "p")}
	r := NewRestore(s, 3)
	if got, want := len(r.Schema().Cols), 3; got != want {
		t.Fatalf("restore schema has %d cols, want %d", got, want)
	}
	out, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(rows) {
		t.Fatalf("%d rows, want %d", len(out), len(rows))
	}
	for i := range rows {
		if out[i].String() != rows[i].String() {
			t.Fatalf("row %d = %s, want %s", i, out[i], rows[i])
		}
	}
}

// TestRestoreRejectsBadOrdinals: Restore validates the ordinal column is a
// permutation — duplicates, out-of-range values, and non-integers are plan
// bugs surfaced as errors, not silent misplacement.
func TestRestoreRejectsBadOrdinals(t *testing.T) {
	schema := expr.NewSchema(
		expr.ColInfo{Name: "v", Type: sqltypes.Int},
		expr.ColInfo{Name: "ord", Type: sqltypes.Int},
	)
	cases := []struct {
		name string
		rows []sqltypes.Row
	}{
		{"duplicate", []sqltypes.Row{intRow(10, 0), intRow(11, 0)}},
		{"out-of-range", []sqltypes.Row{intRow(10, 0), intRow(11, 7)}},
		{"non-int", []sqltypes.Row{{sqltypes.NewInt(10), sqltypes.NewString("x")}}},
	}
	for _, tc := range cases {
		r := NewRestore(valuesOp(schema, tc.rows...), 1)
		if _, err := Collect(r); err == nil {
			t.Fatalf("%s: Collect succeeded, want permutation error", tc.name)
		}
	}
}

// TestSharedWindowStatsCounters pins the telemetry split: a pre-sorted
// consumer counts SortsShared, a segmented one SortsSegmented, and the class
// Sort itself SortsPerformed.
func TestSharedWindowStatsCounters(t *testing.T) {
	schema := pkvSchema(sqltypes.Int, sqltypes.Int)
	var rows []sqltypes.Row
	for i := 0; i < 12; i++ {
		rows = append(rows, intRow(int64(i%3), int64(i%4), int64(i)))
	}
	pb := keysOf(t, schema, "p")
	for _, tc := range []struct {
		preSorted                 bool
		wantShared, wantSegmented int64
	}{
		{true, 1, 0},
		{false, 0, 1},
	} {
		stats := &WindowStats{}
		op := sharedStack(schema, rows, pb, sortKeysOf(t, schema, "k"),
			sortKeysOf(t, schema, "p", "k"), sumCum(keysOf(t, schema, "v")[0]), tc.preSorted)
		w := findWindow(op)
		w.Stats = stats
		sortOp := w.Input.(*Sort)
		sortOp.WinStats = stats
		if _, err := Collect(op); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("preSorted=%v", tc.preSorted)
		if got := stats.SortsPerformed.Load(); got != 1 {
			t.Fatalf("%s: SortsPerformed = %d, want 1 (the class sort)", label, got)
		}
		if got := stats.SortsShared.Load(); got != tc.wantShared {
			t.Fatalf("%s: SortsShared = %d, want %d", label, got, tc.wantShared)
		}
		if got := stats.SortsSegmented.Load(); got != tc.wantSegmented {
			t.Fatalf("%s: SortsSegmented = %d, want %d", label, got, tc.wantSegmented)
		}
	}
}
