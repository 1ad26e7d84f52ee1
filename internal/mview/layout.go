package mview

import (
	"strings"

	"rfview/internal/catalog"
	"rfview/internal/rewrite"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
)

// layout is the one place a simple and a partitioned sequence view differ.
// Every sequence view keeps one complete simple sequence (header + body +
// trailer) per partition — §6.2's complete reporting function — and by §6's
// partitioning reduction a simple view is the one-partition case: a single
// partition under the empty pk prefix, which keeps its zero header/trailer
// rows when empty where a partitioned view's partition is born with its
// first row and dies with its last. What is left of the difference is how
// a partition's sequence maps to backing rows:
//
//	simple       (pos, val)              pk (pos)
//	partitioned  (part, pos, val, body)  pk (part, pos)  body flags positions 1…n_p
//
// Both tables are what the Derive operator scans; it reads n_p off the rows
// themselves (the last stored position is n_p+l_x). Positions must be the
// dense integers 1…n_p within each partition.
type layout struct {
	partCol string // base-table PARTITION BY column; "" for a simple view
}

func (l layout) keyed() bool { return l.partCol != "" }

// sequenceShape recognizes the canonical reporting-function view
// SELECT [part,] pos, agg(val) OVER ([PARTITION BY part] ORDER BY pos ROWS …)
// — the shapes the derivation rewriter exploits — and returns its layout.
func sequenceShape(wq *rewrite.WindowQuery) (layout, bool) {
	var l layout
	switch len(wq.PartitionBy) {
	case 0:
	case 1:
		l.partCol = wq.PartitionBy[0]
	default:
		return l, false
	}
	sawPos, sawPart := false, !l.keyed()
	for _, c := range wq.PlainCols {
		switch {
		case strings.EqualFold(c, wq.PosCol) && !sawPos:
			sawPos = true
		case strings.EqualFold(c, l.partCol) && !sawPart:
			sawPart = true
		default:
			return l, false
		}
	}
	return l, sawPos && sawPart
}

// columns is the backing table's schema; part takes the type of the base
// table's partition column.
func (l layout) columns(base *catalog.Table, valType sqltypes.Type) []catalog.Column {
	pos, val := catalog.Column{Name: "pos", Type: sqltypes.Int}, catalog.Column{Name: "val", Type: valType}
	if !l.keyed() {
		return []catalog.Column{pos, val}
	}
	part := catalog.Column{Name: "part", Type: base.Columns[base.ColumnIndex(l.partCol)].Type}
	return []catalog.Column{part, pos, val, {Name: "body", Type: sqltypes.Bool}}
}

// pk names the backing table's primary-key columns — the partition prefix,
// then the position. They are its leading columns.
func (l layout) pk() []string {
	if l.keyed() {
		return []string{"part", "pos"}
	}
	return []string{"pos"}
}

// pkOrds are the primary-key ordinals: the backing table's leading columns.
func (l layout) pkOrds() []int {
	if l.keyed() {
		return []int{0, 1}
	}
	return []int{0}
}

// pkKey is the primary key of position pos of partition part.
func (l layout) pkKey(part sqltypes.Datum, pos int) sqltypes.Row {
	return append(l.partKey(part), sqltypes.NewInt(int64(pos)))
}

// partKey is the primary-key prefix of partition part: every row of the
// partition's sequence lies under it (a simple view's prefix is empty).
func (l layout) partKey(part sqltypes.Datum) sqltypes.Row {
	if l.keyed() {
		return sqltypes.Row{part}
	}
	return nil
}

// posOrd and valOrd are the ordinals of the backing table's position and
// value columns.
func (l layout) posOrd() int { return len(l.pkOrds()) - 1 }
func (l layout) valOrd() int { return len(l.pkOrds()) }

// row is the backing row of one stored position, built in dst's array when
// it has room; body says whether the position lies in 1…n_p.
func (l layout) row(dst sqltypes.Row, part sqltypes.Datum, pos int, val sqltypes.Datum, body bool) sqltypes.Row {
	if l.keyed() {
		return append(dst[:0], part, sqltypes.NewInt(int64(pos)), val, sqltypes.NewBool(body))
	}
	return append(dst[:0], sqltypes.NewInt(int64(pos)), val)
}

// partOrd locates the partition column through find (a column-name lookup
// answering -1 when absent). A simple view has none and needs none.
func (l layout) partOrd(find func(string) int) (ord int, ok bool) {
	if !l.keyed() {
		return -1, true
	}
	ord = find(l.partCol)
	return ord, ord >= 0
}

// partOf returns the partition a base row belongs to. ok is false for a
// NULL key, which belongs to no partition.
func (l layout) partOf(row sqltypes.Row, ord int) (part sqltypes.Datum, ok bool) {
	if !l.keyed() {
		return sqltypes.NullDatum, true
	}
	return row[ord], !row[ord].IsNull()
}

// fillQuery is the view's fill query: SELECT [part,] pos, val FROM base
// ORDER BY [part,] pos.
func (sv *seqView) fillQuery() *sqlparser.Select {
	q := &sqlparser.Select{From: &sqlparser.TableName{Name: sv.mv.BaseTable}}
	for _, c := range []string{sv.lay.partCol, sv.mv.PosColumn, sv.mv.ValColumn} {
		if col := (&sqlparser.ColumnRef{Name: c}); c != "" {
			q.Items = append(q.Items, sqlparser.SelectItem{Expr: col})
			q.OrderBy = append(q.OrderBy, sqlparser.OrderItem{Expr: col})
		}
	}
	q.OrderBy = q.OrderBy[:len(q.OrderBy)-1] // not by the value
	return q
}
