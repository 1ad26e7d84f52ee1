package engine

import (
	"rfview/internal/catalog"
	"rfview/internal/expr"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
	"rfview/internal/txn"
)

func tableSchema(tbl *catalog.Table, ref string) *expr.Schema {
	cols := make([]expr.ColInfo, len(tbl.Columns))
	for i, c := range tbl.Columns {
		cols[i] = expr.ColInfo{Table: ref, Name: c.Name, Type: c.Type}
	}
	return expr.NewSchema(cols...)
}

// compileConst evaluates a row-less expression (VALUES entries).
func compileConst(e sqlparser.Expr) (sqltypes.Datum, error) {
	compiled, err := expr.Compile(e, expr.NewSchema())
	if err != nil {
		return sqltypes.NullDatum, err
	}
	return compiled.Eval(nil)
}

// coerce casts a datum to the declared column type, keeping NULLs.
func coerce(d sqltypes.Datum, to sqltypes.Type) (sqltypes.Datum, error) {
	if d.IsNull() {
		return d, nil
	}
	return sqltypes.Cast(d, to)
}

// dmlTargets returns the rows of tbl an UPDATE's or DELETE's WHERE selects at
// snap, with their ids: the candidates of an index probe when pointLookup
// finds one (the access-path side of §2.3's locality argument), else of a
// snapshot scan, each kept when the whole predicate holds. A nil where selects
// every row. The caller writes the rows after the read has finished.
func dmlTargets(tbl *catalog.Table, where sqlparser.Expr, schema *expr.Schema, snap txn.Snapshot) ([]storage.RowID, []sqltypes.Row, error) {
	var pred expr.Expr
	if where != nil {
		var err error
		if pred, err = expr.Compile(where, schema); err != nil {
			return nil, nil, err
		}
	}
	it := pointLookup(tbl, where, snap)
	if it == nil {
		it = tbl.Heap.IterAt(snap)
	}
	defer it.Close()
	var ids []storage.RowID
	var rows []sqltypes.Row
	id, row, err := it.Next()
	for ; row != nil; id, row, err = it.Next() {
		if pred != nil {
			v, err := pred.Eval(row)
			if err != nil {
				return nil, nil, err
			}
			if !expr.Truthy(v) {
				continue
			}
		}
		ids, rows = append(ids, id), append(rows, row)
	}
	return ids, rows, err
}

// pointLookup recognizes a WHERE of the form `col = literal` (alone or as a
// conjunct) with an index on col, and returns an iterator over the index
// probe's rows visible at snap; nil means "no usable index", and callers
// scan. The full predicate is still evaluated against every candidate, so
// the probe never changes semantics.
func pointLookup(tbl *catalog.Table, where sqlparser.Expr, snap txn.Snapshot) *storage.Iter {
	switch x := where.(type) {
	case *sqlparser.AndExpr:
		if it := pointLookup(tbl, x.Left, snap); it != nil {
			return it
		}
		return pointLookup(tbl, x.Right, snap)
	case *sqlparser.ComparisonExpr:
		colRef, lit := x.Left, x.Right
		if _, isLit := colRef.(*sqlparser.Literal); isLit {
			colRef, lit = x.Right, x.Left
		}
		cr, ok := colRef.(*sqlparser.ColumnRef)
		l, isLit := lit.(*sqlparser.Literal)
		if x.Op != "=" || !ok || !isLit {
			return nil
		}
		ord := tbl.ColumnIndex(cr.Name)
		if ord < 0 {
			return nil
		}
		h := tbl.Heap.IndexOn([]int{ord})
		if h == nil {
			return nil
		}
		key, err := coerce(l.Val, tbl.Columns[ord].Type)
		if err != nil || key.IsNull() {
			return nil
		}
		return tbl.Heap.RangeIterAt(h, sqltypes.Row{key}, sqltypes.Row{key}, snap)
	}
	return nil
}
