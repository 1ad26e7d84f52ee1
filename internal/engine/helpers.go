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
// snap, with their ids: the candidates of an index probe when pointLookupRows
// finds one (the access-path side of §2.3's locality argument), else of a
// snapshot scan, each kept when the whole predicate holds. A nil where selects
// every row.
func dmlTargets(tbl *catalog.Table, where sqlparser.Expr, schema *expr.Schema, snap txn.Snapshot) ([]storage.RowID, []sqltypes.Row, error) {
	var pred expr.Expr
	if where != nil {
		var err error
		if pred, err = expr.Compile(where, schema); err != nil {
			return nil, nil, err
		}
	}
	var ids []storage.RowID
	var rows []sqltypes.Row
	var evalErr error
	visit := func(id storage.RowID, row sqltypes.Row) bool {
		if pred != nil {
			v, err := pred.Eval(row)
			if err != nil {
				evalErr = err
				return false
			}
			if !expr.Truthy(v) {
				return true
			}
		}
		ids, rows = append(ids, id), append(rows, row)
		return true
	}
	if cand, candRows, ok := pointLookupRows(tbl, where, snap); ok {
		for i, id := range cand {
			if !visit(id, candRows[i]) {
				break
			}
		}
	} else if err := tbl.Heap.ScanAt(snap, visit); err != nil {
		return nil, nil, err
	}
	return ids, rows, evalErr
}

// pointLookupRows recognizes WHERE shapes of the form `col = literal` (alone
// or as a conjunct) with an index on col, and returns the candidate rows from
// an index probe, visibility-filtered at the given snapshot. ok=false means
// "no usable index"; callers fall back to a snapshot scan. The full predicate
// is still evaluated against every candidate, so the fast path never changes
// semantics.
func pointLookupRows(tbl *catalog.Table, where sqlparser.Expr, at txn.Snapshot) ([]storage.RowID, []sqltypes.Row, bool) {
	var tryConjunct func(e sqlparser.Expr) ([]storage.RowID, []sqltypes.Row, bool)
	tryConjunct = func(e sqlparser.Expr) ([]storage.RowID, []sqltypes.Row, bool) {
		switch x := e.(type) {
		case *sqlparser.AndExpr:
			if ids, rows, ok := tryConjunct(x.Left); ok {
				return ids, rows, true
			}
			return tryConjunct(x.Right)
		case *sqlparser.ComparisonExpr:
			if x.Op != "=" {
				return nil, nil, false
			}
			colRef, lit := x.Left, x.Right
			if _, isLit := colRef.(*sqlparser.Literal); isLit {
				colRef, lit = x.Right, x.Left
			}
			cr, ok := colRef.(*sqlparser.ColumnRef)
			if !ok {
				return nil, nil, false
			}
			l, ok := lit.(*sqlparser.Literal)
			if !ok {
				return nil, nil, false
			}
			ord := tbl.ColumnIndex(cr.Name)
			if ord < 0 {
				return nil, nil, false
			}
			h := tbl.Heap.IndexOn([]int{ord})
			if h == nil {
				return nil, nil, false
			}
			key, err := coerce(l.Val, tbl.Columns[ord].Type)
			if err != nil || key.IsNull() {
				return nil, nil, false
			}
			var ids []storage.RowID
			var rows []sqltypes.Row
			tbl.Heap.LookupAt(h, sqltypes.Row{key}, at, func(id storage.RowID, row sqltypes.Row) bool {
				ids = append(ids, id)
				rows = append(rows, row)
				return true
			})
			return ids, rows, true
		default:
			return nil, nil, false
		}
	}
	if where == nil {
		return nil, nil, false
	}
	return tryConjunct(where)
}
