package exec

import (
	"sync"

	"rfview/internal/expr"
	"rfview/internal/sqltypes"
)

// This file is the batch edge of the executor. A Scan hands its rows over a
// page run at a time as column vectors (sqltypes.Batch) copied from the
// buffer pool's cached page columns, a Filter narrows a batch's selection
// instead of moving rows, and the operators that read many rows of few
// columns — Window, Derive — drain batches straight into their own
// vectors. Everything else keeps pulling rows through Next, which
// materializes only the rows that pass, one allocation per batch.

// batchOperator is an operator that can also hand out its rows a batch at a
// time.
type batchOperator interface {
	Operator
	// NextBatch fills b with the next batch of rows, false at the end of the
	// stream. cols lists the columns (ordinals of Schema) the caller reads;
	// the batch's other columns are unspecified. An operator is read through
	// NextBatch or through Next, never both within one Open.
	NextBatch(cols []int, b *sqltypes.Batch) (bool, error)
	// canBatch reports whether NextBatch works: every operator below this
	// one, down to the scan, must produce batches too.
	canBatch() bool
}

// batchInput returns op as a batch producer, or nil when it produces only
// rows.
func batchInput(op Operator) batchOperator {
	if b, ok := op.(batchOperator); ok && b.canBatch() {
		return b
	}
	return nil
}

// batchPool recycles the batches of operators that drain their input once
// per execution. A batch holds at most one page run, so what it keeps is
// bounded by the page size.
var batchPool = sync.Pool{New: func() any { return new(sqltypes.Batch) }}

// addCol appends c to cols unless it is already there.
func addCol(cols []int, c int) []int {
	for _, x := range cols {
		if x == c {
			return cols
		}
	}
	return append(cols, c)
}

// vectorCmp reports whether `v op k` can be decided on v's typed values: a
// NULL constant (never true), an all-NULL column, or a single-typed column
// comparable with the constant. A boxed column, or one Compare would reject
// against the constant, is evaluated row by row, where the type error
// surfaces as it does on the row path.
func vectorCmp(v *sqltypes.ColVec, k sqltypes.Datum) bool {
	return k.IsNull() || (!v.Mixed() && sqltypes.Comparable(v.Typ, k.Typ()))
}

// keepCmp appends to out the positions of in where `v op k` is true,
// comparing as sqltypes.Compare does. out may be in[:0]. v and k must pass
// vectorCmp.
func keepCmp(v *sqltypes.ColVec, op expr.CmpOp, k sqltypes.Datum, in, out []int) []int {
	switch {
	case k.IsNull() || v.Typ == sqltypes.Null:
		return out
	case v.Typ == sqltypes.Float && k.Residual() == 0: // k's float64 image is k
		return keepOrdered(v.Floats, k.Float(), op, &v.Nulls, in, out)
	case v.Typ == sqltypes.Float || k.Typ() == sqltypes.Float: // an INTEGER against a FLOAT
		for _, p := range in {
			if c, _ := sqltypes.Compare(v.Datum(p), k); op.Holds(c) && !v.Nulls.Get(p) {
				out = append(out, p)
			}
		}
		return out
	case v.Typ == sqltypes.String:
		return keepOrdered(v.Strs, k.Str(), op, &v.Nulls, in, out)
	default:
		return keepOrdered(v.Ints, k.Int(), op, &v.Nulls, in, out)
	}
}

func keepOrdered[T int64 | float64 | string](vals []T, k T, op expr.CmpOp, nulls *sqltypes.NullBitmap, in, out []int) []int {
	for _, p := range in {
		if op.Holds(sqltypes.Order(vals[p], k)) && !nulls.Get(p) {
			out = append(out, p)
		}
	}
	return out
}
