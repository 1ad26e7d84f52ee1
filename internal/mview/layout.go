package mview

import (
	"fmt"
	"sort"
	"strings"

	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/rewrite"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
)

// layout is the one place a simple and a partitioned sequence view differ.
// Every sequence view keeps one complete simple sequence (header + body +
// trailer) per partition — §6.2's complete reporting function — and by §6's
// partitioning reduction a simple view is the one-partition case: a single
// partition under the empty key that DML neither gives birth to nor kills.
// What is left of the difference is how a partition's sequence maps to
// backing rows:
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
	if l.keyed() {
		return sqltypes.Row{part, sqltypes.NewInt(int64(pos))}
	}
	return sqltypes.Row{sqltypes.NewInt(int64(pos))}
}

// row is the backing row of one stored position; body says whether the
// position lies in 1…n_p.
func (l layout) row(part sqltypes.Datum, pos int, val sqltypes.Datum, body bool) sqltypes.Row {
	if l.keyed() {
		return sqltypes.Row{part, sqltypes.NewInt(int64(pos)), val, sqltypes.NewBool(body)}
	}
	return sqltypes.Row{sqltypes.NewInt(int64(pos)), val}
}

// pin makes the simple view's one partition permanent: it is there even over
// an empty table, and emptying it leaves its zero header/trailer rows.
func (l layout) pin(parts *core.PartitionedMaintainer) error {
	if l.keyed() {
		return nil
	}
	return parts.Pin("")
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

// partOf returns the partition a base row belongs to — its datum and the
// rendered key the maintainers are held under. ok is false for a NULL key.
func (l layout) partOf(row sqltypes.Row, ord int) (part sqltypes.Datum, key string, ok bool) {
	if !l.keyed() {
		return sqltypes.NullDatum, "", true
	}
	part = row[ord]
	return part, part.String(), !part.IsNull()
}

// readSequences reads the view's (part, pos, val) columns from the base
// table and validates per-partition density. It reads at the manager's
// current write view so a transactional refresh sees the transaction's own
// base-table writes.
func (m *Manager) readSequences(base *catalog.Table, posCol, valCol string, lay layout) (map[string]sqltypes.Datum, map[string][]float64, error) {
	posIdx, valIdx := base.ColumnIndex(posCol), base.ColumnIndex(valCol)
	partIdx, ok := lay.partOrd(base.ColumnIndex)
	if posIdx < 0 || valIdx < 0 || !ok {
		return nil, nil, fmt.Errorf("mview: table %q lacks the view's position, value or partition column", base.Name)
	}
	type pv struct {
		pos int64
		val float64
	}
	keys := make(map[string]sqltypes.Datum)
	rows := make(map[string][]pv)
	var scanErr error
	hErr := m.hScan(base, func(_ storage.RowID, row sqltypes.Row) bool {
		p, v := row[posIdx], row[valIdx]
		part, key, ok := lay.partOf(row, partIdx)
		if p.IsNull() || p.Typ() != sqltypes.Int || !ok || v.IsNull() || !v.Typ().Numeric() {
			scanErr = fmt.Errorf("mview: sequence views need non-NULL INTEGER positions, non-NULL partition keys and numeric values")
			return false
		}
		keys[key] = part
		rows[key] = append(rows[key], pv{pos: p.Int(), val: v.Float()})
		return true
	})
	if scanErr == nil {
		scanErr = hErr
	}
	if scanErr != nil {
		return nil, nil, scanErr
	}
	raws := make(map[string][]float64, len(rows))
	for key, list := range rows {
		sort.Slice(list, func(i, j int) bool { return list[i].pos < list[j].pos })
		raw := make([]float64, len(list))
		for i, r := range list {
			if r.pos != int64(i+1) {
				return nil, nil, fmt.Errorf("mview: sequence views need dense positions 1…n; partition %q has %d at rank %d", key, r.pos, i+1)
			}
			raw[i] = r.val
		}
		raws[key] = raw
	}
	return keys, raws, nil
}
