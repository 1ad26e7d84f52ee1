package exec

import (
	"math"
	"testing"

	"rfview/internal/expr"
	"rfview/internal/sqltypes"
)

// These tests pin the ClassOrderMeta handshake: a shared class Sort records
// the sorted stream's adjacency table (per-position tie depths) and the
// Window operators stacked above read partition
// boundaries and tie runs from it instead of re-evaluating key expressions.
// Every test checks bit-identical output against the unshared plan, plus the
// metadata validity the scenario implies: valid whenever the sort ran in
// memory, NaN and signed-zero keys included.

// sharedStackMeta is sharedStack with the class sort's adjacency metadata
// wired through to the Window, exactly as planWindowsShared does. partKeys is
// the class's canonical partition key count (deduplicated), which may be
// smaller than len(pb).
func sharedStackMeta(schema *expr.Schema, rows []sqltypes.Row, pb []expr.Expr, ob, sortKeys []SortKey, funcs []WindowFunc, orderExact bool, partKeys int) (Operator, *ClassOrderMeta) {
	ordCol := len(schema.Cols)
	var op Operator = NewOrdinal(valuesOp(schema, rows...), "__rf_ord")
	meta := NewClassOrderMeta(partKeys)
	op = &Sort{Input: op, Keys: sortKeys, SharedClass: 1, Order: meta}
	w := NewWindow(op, pb, ob, funcs)
	w.Shared = true
	w.PreSorted = true
	w.OrderExact = orderExact
	w.ClassOrder = meta
	w.OrdinalCol = ordCol
	w.Class = 1
	return NewRestore(w, ordCol), meta
}

// diffSharedMetaUnshared runs the meta-wired shared stack against the plain
// unshared Window and requires bit-identical output; returns the metadata for
// validity assertions.
func diffSharedMetaUnshared(t *testing.T, label string, schema *expr.Schema, rows []sqltypes.Row, pb []expr.Expr, ob, sortKeys []SortKey, funcs []WindowFunc, orderExact bool, partKeys int) *ClassOrderMeta {
	t.Helper()
	want, err := Collect(NewWindow(valuesOp(schema, rows...), pb, ob, funcs))
	if err != nil {
		t.Fatalf("%s: unshared: %v", label, err)
	}
	op, meta := sharedStackMeta(schema, rows, pb, ob, sortKeys, funcs, orderExact, partKeys)
	got, err := Collect(op)
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
	return meta
}

// TestClassOrderMetaTieRuns: the class sort refines the member's ORDER BY
// with an extra key, so the member must re-normalize tie runs — here off the
// metadata's tie depths, with no key evaluation. Duplicate (p, k) pairs with
// distinct v make any missed or misplaced run boundary observable through the
// cumulative frame.
func TestClassOrderMetaTieRuns(t *testing.T) {
	schema := pkvSchema(sqltypes.Int, sqltypes.Int)
	var rows []sqltypes.Row
	for i := 0; i < 40; i++ {
		rows = append(rows, intRow(int64(i%3), int64(i%4), int64(37-i)))
	}
	pb := keysOf(t, schema, "p")
	ob := sortKeysOf(t, schema, "k")
	shared := sortKeysOf(t, schema, "p", "k", "v DESC")
	meta := diffSharedMetaUnshared(t, "meta-ties", schema, rows, pb, ob, shared,
		sumCum(keysOf(t, schema, "v")[0]), false, 1)
	if !meta.Valid(len(rows)) {
		t.Fatal("class sort left metadata invalid; meta path never ran")
	}
}

// TestClassOrderMetaOrderExact: the member's ORDER BY is the full class
// suffix and the class sort carries no ordinal key — the first emitted sort
// relies on sort stability for input-order ties. With valid metadata the
// pre-sorted consumer does zero per-row work, so any stability bug in the
// sort surfaces as a tie-order diff here.
func TestClassOrderMetaOrderExact(t *testing.T) {
	schema := pkvSchema(sqltypes.Int, sqltypes.Int)
	var rows []sqltypes.Row
	for i := 0; i < 36; i++ {
		rows = append(rows, intRow(int64(i%3), int64(i%4), int64(i)))
	}
	pb := keysOf(t, schema, "p")
	ob := sortKeysOf(t, schema, "k")
	shared := sortKeysOf(t, schema, "p", "k") // exact suffix, no ordinal key
	meta := diffSharedMetaUnshared(t, "meta-exact", schema, rows, pb, ob, shared,
		sumCum(keysOf(t, schema, "v")[0]), true, 1)
	if !meta.Valid(len(rows)) {
		t.Fatal("class sort left metadata invalid; meta path never ran")
	}
}

// TestClassOrderMetaSignedZeroPartition: the key encoding ties -0.0 with
// +0.0 and so does the unshared plan's hash partitioning, so the metadata's
// boundaries place FLOAT partition keys too: the ±0 rows are one partition,
// whose cumulative SUM reaches the sum of every v.
func TestClassOrderMetaSignedZeroPartition(t *testing.T) {
	schema := pkvSchema(sqltypes.Float, sqltypes.Int)
	negz := math.Copysign(0, -1)
	var rows []sqltypes.Row
	for i := 0; i < 24; i++ {
		p := 0.0
		if i%2 == 0 {
			p = negz
		}
		rows = append(rows, sqltypes.Row{sqltypes.NewFloat(p), sqltypes.NewInt(int64(i % 4)), sqltypes.NewInt(int64(i))})
	}
	pb := keysOf(t, schema, "p")
	ob := sortKeysOf(t, schema, "k")
	shared := sortKeysOf(t, schema, "p", "k")
	funcs := sumCum(keysOf(t, schema, "v")[0])
	meta := diffSharedMetaUnshared(t, "meta-float-part", schema, rows, pb, ob, shared, funcs, false, 1)
	if !meta.Valid(len(rows)) {
		t.Fatal("class sort left metadata invalid; meta path never ran")
	}
	got, err := Collect(NewWindow(valuesOp(schema, rows...), pb, ob, funcs))
	if err != nil {
		t.Fatal(err)
	}
	var most int64
	for _, row := range got {
		most = max(most, row[3].Int())
	}
	if want := int64(len(rows) * (len(rows) - 1) / 2); most != want {
		t.Fatalf("largest cumulative SUM %d, want %d: -0.0 and +0.0 split", most, want)
	}
}

// TestClassOrderMetaNaNKeys: a NaN order key sorts above every number and
// ties every NaN, so the metadata is valid and its tie runs are the
// unshared plan's.
func TestClassOrderMetaNaNKeys(t *testing.T) {
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
	meta := diffSharedMetaUnshared(t, "meta-nan", schema, rows, pb, ob, shared,
		sumCum(keysOf(t, schema, "v")[0]), false, 1)
	if !meta.Valid(len(rows)) {
		t.Fatal("class sort left metadata invalid; meta path never ran")
	}
}

// TestClassOrderMetaDuplicatePartitionExprs: PARTITION BY p, p — the member
// evaluates two partition expressions but the class's canonical key set has
// one, and the metadata thresholds must use the class count, not the
// member's. A wrong count would read order-key depth as partition depth and
// fuse (or split) partitions.
func TestClassOrderMetaDuplicatePartitionExprs(t *testing.T) {
	schema := pkvSchema(sqltypes.Int, sqltypes.Int)
	var rows []sqltypes.Row
	for i := 0; i < 30; i++ {
		rows = append(rows, intRow(int64(i%3), int64(i%4), int64(i)))
	}
	pb := keysOf(t, schema, "p", "p") // duplicated partition expression
	ob := sortKeysOf(t, schema, "k")
	// Class canonical ordering deduplicates: sort by p, k, refined by v.
	shared := sortKeysOf(t, schema, "p", "k", "v DESC")
	meta := diffSharedMetaUnshared(t, "meta-dup-part", schema, rows, pb, ob, shared,
		sumCum(keysOf(t, schema, "v")[0]), false, 1)
	if !meta.Valid(len(rows)) {
		t.Fatal("class sort left metadata invalid; meta path never ran")
	}
	if meta.PartKeys() != 1 {
		t.Fatalf("PartKeys() = %d, want the class canonical count 1", meta.PartKeys())
	}
}

// TestClassOrderMetaReset: reusing one Sort across Opens must not leak stale
// adjacency data — a second Open that fails over a key column Compare cannot
// order must invalidate the metadata filled by the first.
func TestClassOrderMetaReset(t *testing.T) {
	schema := pkvSchema(sqltypes.Int, sqltypes.Float)
	clean := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewFloat(2), sqltypes.NewInt(10)},
		{sqltypes.NewInt(1), sqltypes.NewFloat(1), sqltypes.NewInt(11)},
		{sqltypes.NewInt(2), sqltypes.NewFloat(3), sqltypes.NewInt(12)},
	}
	meta := NewClassOrderMeta(1)
	s := &Sort{Input: valuesOp(schema, clean...), Keys: sortKeysOf(t, schema, "p", "k"), Order: meta}
	if _, err := Collect(s); err != nil {
		t.Fatal(err)
	}
	if !meta.Valid(len(clean)) {
		t.Fatal("clean rows should fill the metadata")
	}
	dirty := append(append([]sqltypes.Row(nil), clean...),
		sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewString("x"), sqltypes.NewInt(13)})
	s.Input = valuesOp(schema, dirty...)
	if _, err := Collect(s); err == nil {
		t.Fatal("a FLOAT and a VARCHAR in one key column must not sort")
	}
	if meta.Valid(len(dirty)) || meta.Valid(len(clean)) {
		t.Fatal("a failed re-open must reset the metadata, not serve the stale table")
	}
}
