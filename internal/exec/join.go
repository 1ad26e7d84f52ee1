package exec

import (
	"fmt"
	"slices"

	"rfview/internal/catalog"
	"rfview/internal/expr"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
	"rfview/internal/txn"
)

// JoinKind distinguishes the join semantics the executor supports.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeftOuter
)

func (k JoinKind) String() string {
	if k == JoinLeftOuter {
		return "LeftOuter"
	}
	return "Inner"
}

// NestedLoopJoin is the fallback join: it materializes the right input and
// evaluates an arbitrary predicate for every (left, right) pair — O(|L|·|R|).
// This is the operator the paper's Table 1 "self join method / no index"
// column exercises, and the only algorithm applicable to the *disjunctive*
// MaxOA/MinOA join predicates of Table 2 (an OR of unrelated equality
// conditions defeats both hash and index strategies).
type NestedLoopJoin struct {
	Left, Right Operator
	Kind        JoinKind
	Pred        expr.Expr // nil = cross join

	schema  *expr.Schema
	right   []sqltypes.Row
	cur     sqltypes.Row
	rpos    int
	matched bool
}

// NewNestedLoopJoin builds a nested-loop join.
func NewNestedLoopJoin(left, right Operator, kind JoinKind, pred expr.Expr) *NestedLoopJoin {
	return &NestedLoopJoin{
		Left: left, Right: right, Kind: kind, Pred: pred,
		schema: expr.Concat(left.Schema(), right.Schema()),
	}
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() *expr.Schema { return j.schema }

// Open implements Operator.
func (j *NestedLoopJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	rows, err := Collect(j.Right)
	if err != nil {
		return err
	}
	j.right = rows
	j.cur = nil
	j.rpos = 0
	return nil
}

// Next implements Operator.
func (j *NestedLoopJoin) Next() (sqltypes.Row, error) {
	for {
		if j.cur == nil {
			row, err := j.Left.Next()
			if err != nil || row == nil {
				return nil, err
			}
			j.cur = row
			j.rpos = 0
			j.matched = false
		}
		for j.rpos < len(j.right) {
			r := j.right[j.rpos]
			j.rpos++
			combined := combineRows(j.cur, r)
			if j.Pred != nil {
				v, err := j.Pred.Eval(combined)
				if err != nil {
					return nil, err
				}
				if !expr.Truthy(v) {
					continue
				}
			}
			j.matched = true
			return combined, nil
		}
		// Right side exhausted for this left row.
		left := j.cur
		matched := j.matched
		j.cur = nil
		if j.Kind == JoinLeftOuter && !matched {
			return combineRows(left, nullRow(len(j.Right.Schema().Cols))), nil
		}
	}
}

// Close implements Operator.
func (j *NestedLoopJoin) Close() error {
	j.right = nil
	return j.Left.Close()
}

// Describe implements Operator.
func (j *NestedLoopJoin) Describe() string {
	pred := "true"
	if j.Pred != nil {
		pred = j.Pred.String()
	}
	return fmt.Sprintf("NestedLoopJoin (%s) ON %s", j.Kind, pred)
}

// Children implements Operator.
func (j *NestedLoopJoin) Children() []Operator { return []Operator{j.Left, j.Right} }

// IndexNestedLoopJoin probes an ordered index of a stored table with keys
// computed from each outer row. Several key expressions model the Fig. 2/4
// IN-list pattern (s1.pos IN (s2.pos−1, s2.pos, s2.pos+1)): each outer row
// probes once per key expression. This is the access path that makes the
// paper's "self join method with primary key index" column roughly linear.
type IndexNestedLoopJoin struct {
	Outer    Operator
	Inner    *catalog.Table
	InnerRef string
	Handle   *storage.IndexHandle
	// Keys are evaluated against the outer row; each produces one probe key
	// for the (single-column) index.
	Keys []expr.Expr
	// Residual is evaluated over the combined row (outer ++ inner).
	Residual expr.Expr
	Kind     JoinKind
	// EmitOuterFirst controls output column order: true emits outer++inner,
	// false emits inner++outer (used when the probed table was written on
	// the left of the join in the original query).
	EmitOuterFirst bool
	// Snap, when set, resolves the MVCC snapshot probes read at (shared
	// with every other operator of the statement). Nil probes the latest
	// committed state.
	Snap func() txn.Snapshot

	innerSchema *expr.Schema
	schema      *expr.Schema
	snapshot    txn.Snapshot
	pending     []sqltypes.Row // combined rows waiting to be emitted
	done        bool
	// probed holds the keys the current outer row probed so far.
	probed []sqltypes.Datum
	// it is the probes' iterator, re-aimed at each key; stats sums their
	// page traffic across Opens, for EXPLAIN ANALYZE.
	it    *storage.Iter
	stats storage.IterStats
}

// NewIndexNestedLoopJoin builds an index nested-loop join.
func NewIndexNestedLoopJoin(outer Operator, inner *catalog.Table, innerRef string,
	handle *storage.IndexHandle, keys []expr.Expr, residual expr.Expr,
	kind JoinKind, emitOuterFirst bool) *IndexNestedLoopJoin {

	innerCols := make([]expr.ColInfo, len(inner.Columns))
	for i, c := range inner.Columns {
		innerCols[i] = expr.ColInfo{Table: innerRef, Name: c.Name, Type: c.Type}
	}
	innerSchema := expr.NewSchema(innerCols...)
	var schema *expr.Schema
	if emitOuterFirst {
		schema = expr.Concat(outer.Schema(), innerSchema)
	} else {
		schema = expr.Concat(innerSchema, outer.Schema())
	}
	return &IndexNestedLoopJoin{
		Outer: outer, Inner: inner, InnerRef: innerRef, Handle: handle,
		Keys: keys, Residual: residual, Kind: kind, EmitOuterFirst: emitOuterFirst,
		innerSchema: innerSchema, schema: schema,
	}
}

// Schema implements Operator.
func (j *IndexNestedLoopJoin) Schema() *expr.Schema { return j.schema }

// Open implements Operator.
func (j *IndexNestedLoopJoin) Open() error {
	j.pending = nil
	j.done = false
	j.closeProbes()
	if j.Snap != nil {
		j.snapshot = j.Snap()
	} else {
		j.snapshot = j.Inner.Heap.Latest()
	}
	return j.Outer.Open()
}

// combine places outer and inner parts in output order.
func (j *IndexNestedLoopJoin) combine(outer, inner sqltypes.Row) sqltypes.Row {
	if j.EmitOuterFirst {
		return combineRows(outer, inner)
	}
	return combineRows(inner, outer)
}

// Next implements Operator.
func (j *IndexNestedLoopJoin) Next() (sqltypes.Row, error) {
	for {
		if len(j.pending) > 0 {
			row := j.pending[0]
			j.pending = j.pending[1:]
			return row, nil
		}
		if j.done {
			return nil, nil
		}
		outer, err := j.Outer.Next()
		if err != nil {
			return nil, err
		}
		if outer == nil {
			j.done = true
			continue
		}
		j.probed = j.probed[:0]
		colType := j.Inner.Columns[j.Handle.Cols[0]].Type
		for _, keyExpr := range j.Keys {
			key, err := keyExpr.Eval(outer)
			if err != nil {
				return nil, err
			}
			// NULL equals nothing, nor does a type the column cannot compare
			// with (its bytes could still prefix the column's). A version has
			// one entry per index, so each distinct key, probed once, returns
			// rows no other key returns.
			if key.IsNull() || !sqltypes.Comparable(colType, key.Typ()) ||
				slices.ContainsFunc(j.probed, func(p sqltypes.Datum) bool { return sqltypes.Equal(p, key) }) {
				continue
			}
			j.probed = append(j.probed, key)
			if err := j.probe(outer, sqltypes.Row{key}); err != nil {
				return nil, err
			}
		}
		if len(j.pending) == 0 && j.Kind == JoinLeftOuter { // no match
			j.pending = append(j.pending, j.combine(outer, nullRow(len(j.innerSchema.Cols))))
		}
	}
}

// probe appends to pending the combined rows of outer and the inner rows
// under key that the residual accepts.
func (j *IndexNestedLoopJoin) probe(outer, key sqltypes.Row) error {
	if j.it == nil {
		j.it = j.Inner.Heap.RangeIterAt(j.Handle, key, key, j.snapshot)
	} else {
		j.it.Seek(key, key, j.snapshot)
	}
	_, inner, err := j.it.Next()
	for ; inner != nil; _, inner, err = j.it.Next() {
		combined := j.combine(outer, inner)
		if j.Residual != nil {
			v, err := j.Residual.Eval(combined)
			if err != nil {
				return err
			}
			if !expr.Truthy(v) {
				continue
			}
		}
		j.pending = append(j.pending, combined)
	}
	return err
}

// Close implements Operator.
func (j *IndexNestedLoopJoin) Close() error {
	j.pending = nil
	j.closeProbes()
	return j.Outer.Close()
}

// closeProbes folds the probes' page traffic into stats and closes their
// iterator.
func (j *IndexNestedLoopJoin) closeProbes() {
	if j.it != nil {
		j.stats.Add(j.it.Stats())
		j.it.Close()
		j.it = nil
	}
}

// Describe implements Operator.
func (j *IndexNestedLoopJoin) Describe() string {
	keys := make([]string, len(j.Keys))
	for i, k := range j.Keys {
		keys[i] = k.String()
	}
	res := ""
	if j.Residual != nil {
		res = " residual " + j.Residual.String()
	}
	if j.stats.Slots > 0 {
		res += " (" + j.stats.String() + ")"
	}
	return fmt.Sprintf("IndexNestedLoopJoin (%s) %s.%s probes [%s]%s",
		j.Kind, j.InnerRef, j.Handle.Name, joinTrunc(keys, 6), res)
}

// Children implements Operator.
func (j *IndexNestedLoopJoin) Children() []Operator { return []Operator{j.Outer} }

// HashJoin builds a hash table over the right input keyed by the right key
// expressions and probes it with the left keys. It handles equi-join
// conjuncts, including computed keys such as MOD(pos, k) — the reason the
// UNION-of-simple-predicates variants of Table 2 scale better than the
// disjunctive variants on large sequences.
type HashJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []expr.Expr
	Residual            expr.Expr
	Kind                JoinKind
	schema              *expr.Schema
	table               map[uint64][]sqltypes.Row
	cur                 sqltypes.Row
	bucket              []sqltypes.Row
	bpos                int
	matched             bool
	rightWidth          int
}

// NewHashJoin builds a hash join (left is the probe side and, for
// JoinLeftOuter, the preserved side).
func NewHashJoin(left, right Operator, leftKeys, rightKeys []expr.Expr, residual expr.Expr, kind JoinKind) *HashJoin {
	return &HashJoin{
		Left: left, Right: right, LeftKeys: leftKeys, RightKeys: rightKeys,
		Residual: residual, Kind: kind,
		schema:     expr.Concat(left.Schema(), right.Schema()),
		rightWidth: len(right.Schema().Cols),
	}
}

// Schema implements Operator.
func (j *HashJoin) Schema() *expr.Schema { return j.schema }

// Open implements Operator.
func (j *HashJoin) Open() error {
	rows, err := Collect(j.Right)
	if err != nil {
		return err
	}
	j.table = make(map[uint64][]sqltypes.Row)
	for _, r := range rows {
		h, null, err := hashKeys(j.RightKeys, r)
		if err != nil {
			return err
		}
		if null {
			continue // NULL keys never match
		}
		j.table[h] = append(j.table[h], r)
	}
	j.cur = nil
	j.bucket = nil
	return j.Left.Open()
}

func hashKeys(keys []expr.Expr, row sqltypes.Row) (uint64, bool, error) {
	h := uint64(1469598103934665603)
	for _, k := range keys {
		v, err := k.Eval(row)
		if err != nil {
			return 0, false, err
		}
		if v.IsNull() {
			return 0, true, nil
		}
		h = h*1099511628211 ^ v.Hash()
	}
	return h, false, nil
}

// Next implements Operator.
func (j *HashJoin) Next() (sqltypes.Row, error) {
	for {
		if j.cur == nil {
			row, err := j.Left.Next()
			if err != nil || row == nil {
				return nil, err
			}
			j.cur = row
			j.matched = false
			h, null, err := hashKeys(j.LeftKeys, row)
			if err != nil {
				return nil, err
			}
			if null {
				j.bucket = nil
			} else {
				j.bucket = j.table[h]
			}
			j.bpos = 0
		}
		for j.bpos < len(j.bucket) {
			r := j.bucket[j.bpos]
			j.bpos++
			// Hash collisions require re-checking key equality.
			eq, err := keysEqualEval(j.LeftKeys, j.cur, j.RightKeys, r)
			if err != nil {
				return nil, err
			}
			if !eq {
				continue
			}
			combined := combineRows(j.cur, r)
			if j.Residual != nil {
				v, err := j.Residual.Eval(combined)
				if err != nil {
					return nil, err
				}
				if !expr.Truthy(v) {
					continue
				}
			}
			j.matched = true
			return combined, nil
		}
		left := j.cur
		matched := j.matched
		j.cur = nil
		if j.Kind == JoinLeftOuter && !matched {
			return combineRows(left, nullRow(j.rightWidth)), nil
		}
	}
}

func keysEqualEval(lks []expr.Expr, lrow sqltypes.Row, rks []expr.Expr, rrow sqltypes.Row) (bool, error) {
	for i := range lks {
		lv, err := lks[i].Eval(lrow)
		if err != nil {
			return false, err
		}
		rv, err := rks[i].Eval(rrow)
		if err != nil {
			return false, err
		}
		if lv.IsNull() || rv.IsNull() {
			return false, nil
		}
		cmp, err := sqltypes.Compare(lv, rv)
		if err != nil || cmp != 0 {
			return false, err
		}
	}
	return true, nil
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.table = nil
	return j.Left.Close()
}

// Describe implements Operator.
func (j *HashJoin) Describe() string {
	parts := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		parts[i] = fmt.Sprintf("%s = %s", j.LeftKeys[i], j.RightKeys[i])
	}
	res := ""
	if j.Residual != nil {
		res = " residual " + j.Residual.String()
	}
	return fmt.Sprintf("HashJoin (%s) ON %s%s", j.Kind, joinTrunc(parts, 6), res)
}

// Children implements Operator.
func (j *HashJoin) Children() []Operator { return []Operator{j.Left, j.Right} }

func combineRows(a, b sqltypes.Row) sqltypes.Row {
	out := make(sqltypes.Row, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

func nullRow(n int) sqltypes.Row {
	return make(sqltypes.Row, n) // zero Datum is NULL
}
