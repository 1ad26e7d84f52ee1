package plan

import (
	"fmt"
	"strings"

	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/exec"
	"rfview/internal/expr"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
)

// relation is one FROM-clause item after planning: an operator plus the
// metadata the join selector needs to pick an access path.
type relation struct {
	op    exec.Operator
	ref   string         // reference name (alias or table name)
	table *catalog.Table // non-nil when the relation is a stored table
	// pushed records single-relation conjuncts already folded into op as a
	// Filter. An index nested-loop join probes the table's heap directly,
	// bypassing op — so when this relation becomes the probed side, these
	// conjuncts must re-enter the join as residual predicates.
	pushed []sqlparser.Expr
}

// planFrom plans the FROM clause together with the WHERE conjuncts: it
// pushes single-relation predicates below joins and picks a join algorithm
// (index nested-loop, hash, nested-loop) per join from the applicable
// conjuncts. It returns the operator and any conjuncts it could not place
// (the caller filters them on top).
func (p *Planner) planFrom(from sqlparser.TableExpr, where []sqlparser.Expr) (exec.Operator, error) {
	op, remaining, err := p.planFromInternal(from, where)
	if err != nil {
		return nil, err
	}
	if len(remaining) > 0 {
		pred, err := expr.Compile(joinAnd(remaining), op.Schema())
		if err != nil {
			return nil, err
		}
		op = &exec.Filter{Input: op, Pred: pred}
	}
	return op, nil
}

func (p *Planner) planFromInternal(from sqlparser.TableExpr, where []sqlparser.Expr) (exec.Operator, []sqlparser.Expr, error) {
	switch t := from.(type) {
	case *sqlparser.Join:
		if t.Type == sqlparser.LeftOuterJoin {
			return p.planLeftOuter(t, where)
		}
		// Cross and inner joins flatten into a relation list with the ON
		// conditions folded into the conjunct pool.
		rels, conjuncts, err := p.flatten(from)
		if err != nil {
			return nil, nil, err
		}
		conjuncts = append(conjuncts, where...)
		return p.joinRelations(rels, conjuncts)
	default:
		rel, err := p.planRelation(from)
		if err != nil {
			return nil, nil, err
		}
		return p.joinRelations([]relation{rel}, where)
	}
}

// planLeftOuter plans LEFT OUTER JOIN nodes pairwise. WHERE conjuncts that
// reference only the preserved (left) side are pushed below; everything else
// stays above the join (outer-join semantics forbid pushing predicates into
// the null-supplying side).
func (p *Planner) planLeftOuter(j *sqlparser.Join, where []sqlparser.Expr) (exec.Operator, []sqlparser.Expr, error) {
	left, leftRemaining, err := p.planFromInternal(j.Left, nil)
	if err != nil {
		return nil, nil, err
	}
	if len(leftRemaining) > 0 {
		pred, err := expr.Compile(joinAnd(leftRemaining), left.Schema())
		if err != nil {
			return nil, nil, err
		}
		left = &exec.Filter{Input: left, Pred: pred}
	}
	rightRel, err := p.planRelation(j.Right)
	if err != nil {
		return nil, nil, err
	}

	// Push WHERE conjuncts that reference only the left side.
	var pushed, remaining []sqlparser.Expr
	for _, c := range where {
		if _, err := expr.Compile(c, left.Schema()); err == nil {
			pushed = append(pushed, c)
		} else {
			remaining = append(remaining, c)
		}
	}
	if len(pushed) > 0 {
		pred, err := expr.Compile(joinAnd(pushed), left.Schema())
		if err != nil {
			return nil, nil, err
		}
		left = &exec.Filter{Input: left, Pred: pred}
	}

	onConjuncts := splitAnd(j.On)
	op, err := p.buildJoin(left, rightRel, onConjuncts, exec.JoinLeftOuter)
	if err != nil {
		return nil, nil, err
	}
	return op, remaining, nil
}

// flatten decomposes a tree of cross/inner joins into relations plus ON
// conjuncts. LEFT OUTER JOIN subtrees are planned recursively and appear as
// opaque relations.
func (p *Planner) flatten(from sqlparser.TableExpr) ([]relation, []sqlparser.Expr, error) {
	switch t := from.(type) {
	case *sqlparser.Join:
		if t.Type == sqlparser.LeftOuterJoin {
			op, rem, err := p.planLeftOuter(t, nil)
			if err != nil {
				return nil, nil, err
			}
			return []relation{{op: op, ref: ""}}, rem, nil
		}
		lrels, lconj, err := p.flatten(t.Left)
		if err != nil {
			return nil, nil, err
		}
		rrels, rconj, err := p.flatten(t.Right)
		if err != nil {
			return nil, nil, err
		}
		conj := append(lconj, rconj...)
		if t.On != nil {
			conj = append(conj, splitAnd(t.On)...)
		}
		return append(lrels, rrels...), conj, nil
	default:
		rel, err := p.planRelation(from)
		if err != nil {
			return nil, nil, err
		}
		return []relation{rel}, nil, nil
	}
}

// planRelation plans one FROM item (table reference or derived table).
func (p *Planner) planRelation(from sqlparser.TableExpr) (relation, error) {
	switch t := from.(type) {
	case *sqlparser.TableName:
		ref := t.RefName()
		if v, ok := p.Cat.MatView(t.Name); ok && v.Kind == catalog.SequenceView && v.Agg == core.Avg {
			op, err := p.planQuotients(v, ref)
			return relation{op: op, ref: ref}, err
		}
		tbl, err := p.Cat.Table(t.Name)
		if err != nil {
			return relation{}, err
		}
		scan := exec.NewScan(tbl, ref)
		scan.Snap = p.Opts.Snap
		return relation{op: scan, ref: ref, table: tbl}, nil
	case *sqlparser.DerivedTable:
		inner, err := p.PlanSelect(t.Select)
		if err != nil {
			return relation{}, err
		}
		return relation{op: requalified(inner, t.Alias), ref: t.Alias}, nil
	case *sqlparser.Join:
		op, rem, err := p.planFromInternal(t, nil)
		if err != nil {
			return relation{}, err
		}
		if len(rem) > 0 {
			pred, err := expr.Compile(joinAnd(rem), op.Schema())
			if err != nil {
				return relation{}, err
			}
			op = &exec.Filter{Input: op, Pred: pred}
		}
		return relation{op: op, ref: ""}, nil
	default:
		return relation{}, fmt.Errorf("plan: unsupported FROM item %T", from)
	}
}

// joinRelations builds a left-deep join tree over the relations in query
// order, choosing a join algorithm per step from the applicable conjuncts.
// It returns the operator and conjuncts it could not attach anywhere.
func (p *Planner) joinRelations(rels []relation, conjuncts []sqlparser.Expr) (exec.Operator, []sqlparser.Expr, error) {
	// Push single-relation conjuncts onto their relation.
	fullSchema := expr.NewSchema()
	for _, r := range rels {
		fullSchema = expr.Concat(fullSchema, r.op.Schema())
	}
	var pool []sqlparser.Expr
	for _, c := range conjuncts {
		placed := false
		if tabs, err := exprTables(c, fullSchema); err == nil && len(tabs) == 1 {
			for i := range rels {
				if rels[i].ref != "" && tabs[rels[i].ref] {
					pred, err := expr.Compile(c, rels[i].op.Schema())
					if err == nil {
						rels[i].op = &exec.Filter{Input: rels[i].op, Pred: pred}
						rels[i].pushed = append(rels[i].pushed, c)
						placed = true
					}
					break
				}
			}
		}
		if !placed {
			pool = append(pool, c)
		}
	}

	cur := rels[0]
	curRefs := map[string]bool{cur.ref: true}
	curOp := cur.op
	curIsBase := cur.table != nil
	curTable := cur.table
	curRef := cur.ref
	curPushed := cur.pushed

	for _, next := range rels[1:] {
		nextRefs := map[string]bool{next.ref: true}
		// Applicable conjuncts: all referenced relations are available after
		// this join, and the conjunct touches the new relation (or spans
		// both sides).
		var applicable []sqlparser.Expr
		var rest []sqlparser.Expr
		combined := expr.Concat(curOp.Schema(), next.op.Schema())
		for _, c := range pool {
			tabs, err := exprTables(c, combined)
			if err != nil {
				rest = append(rest, c)
				continue
			}
			avail := map[string]bool{}
			for k := range curRefs {
				avail[k] = true
			}
			for k := range nextRefs {
				avail[k] = true
			}
			if subsetOf(tabs, avail) {
				applicable = append(applicable, c)
			} else {
				rest = append(rest, c)
			}
		}
		pool = rest

		var joined exec.Operator
		var err error
		// First try probing the new relation with keys from the current side.
		if next.table != nil {
			joined, err = p.tryIndexJoin(curOp, next, applicable, exec.JoinInner, true)
			if err != nil {
				return nil, nil, err
			}
		}
		// Then try probing the current side, when it is still a bare table.
		if joined == nil && curIsBase {
			joined, err = p.tryIndexJoin(next.op, relation{op: curOp, ref: curRef, table: curTable, pushed: curPushed}, applicable, exec.JoinInner, false)
			if err != nil {
				return nil, nil, err
			}
		}
		if joined == nil {
			joined, err = p.tryHashJoin(curOp, next.op, applicable, exec.JoinInner)
			if err != nil {
				return nil, nil, err
			}
		}
		if joined == nil {
			var pred expr.Expr
			if len(applicable) > 0 {
				pred, err = expr.Compile(joinAnd(applicable), combined)
				if err != nil {
					return nil, nil, err
				}
			}
			joined = exec.NewNestedLoopJoin(curOp, next.op, exec.JoinInner, pred)
		}
		curOp = joined
		for k := range nextRefs {
			curRefs[k] = true
		}
		curIsBase = false
	}
	return curOp, pool, nil
}

// buildJoin joins a planned left operator with a right relation using the ON
// conjuncts (used for LEFT OUTER JOIN, where the preserved side must stay on
// the left).
func (p *Planner) buildJoin(left exec.Operator, right relation, onConjuncts []sqlparser.Expr, kind exec.JoinKind) (exec.Operator, error) {
	if right.table != nil {
		op, err := p.tryIndexJoin(left, right, onConjuncts, kind, true)
		if err != nil {
			return nil, err
		}
		if op != nil {
			return op, nil
		}
	}
	op, err := p.tryHashJoin(left, right.op, onConjuncts, kind)
	if err != nil {
		return nil, err
	}
	if op != nil {
		return op, nil
	}
	var pred expr.Expr
	if len(onConjuncts) > 0 {
		combined := expr.Concat(left.Schema(), right.op.Schema())
		pred, err = expr.Compile(joinAnd(onConjuncts), combined)
		if err != nil {
			return nil, err
		}
	}
	return exec.NewNestedLoopJoin(left, right.op, kind, pred), nil
}

// tryIndexJoin looks for a conjunct that equates (or IN-lists) an indexed
// column of the probed relation with expressions computable from the outer
// side. probeIsRight records whether the probed relation appeared on the
// right of the join in the query (governs output column order).
func (p *Planner) tryIndexJoin(outer exec.Operator, probe relation, conjuncts []sqlparser.Expr, kind exec.JoinKind, probeIsRight bool) (exec.Operator, error) {
	if probe.table == nil {
		return nil, nil
	}
	for ci, c := range conjuncts {
		col, keyExprs := matchProbePredicate(c, probe.ref, probe.table)
		if col == "" {
			continue
		}
		ord := probe.table.ColumnIndex(col)
		handle := probe.table.Heap.IndexOn([]int{ord})
		if handle == nil {
			continue
		}
		// Key expressions must be computable from the outer side alone.
		keys := make([]expr.Expr, 0, len(keyExprs))
		ok := true
		for _, ke := range keyExprs {
			compiled, err := expr.Compile(ke, outer.Schema())
			if err != nil {
				ok = false
				break
			}
			keys = append(keys, compiled)
		}
		if !ok {
			continue
		}
		// Residual: the remaining conjuncts, plus any single-relation
		// predicates that were pushed onto the probed relation's operator —
		// the index probe reads the heap directly and would bypass them —
		// compiled against the output schema (which respects the original
		// left/right order).
		rest := append(append([]sqlparser.Expr{}, conjuncts[:ci]...), conjuncts[ci+1:]...)
		rest = append(rest, probe.pushed...)
		join := exec.NewIndexNestedLoopJoin(outer, probe.table, probe.ref, handle, keys, nil, kind, probeIsRight)
		join.Snap = p.Opts.Snap
		if len(rest) > 0 {
			residual, err := expr.Compile(joinAnd(rest), join.Schema())
			if err != nil {
				return nil, nil // conjuncts reference something else; give up on this path
			}
			join.Residual = residual
		}
		return join, nil
	}
	return nil, nil
}

// matchProbePredicate recognizes `ref.col = e`, `e = ref.col`, and
// `ref.col IN (e1, …)` where col belongs to the probed table. It returns the
// probed column name and the key expressions (which the caller checks are
// outer-only).
func matchProbePredicate(c sqlparser.Expr, ref string, tbl *catalog.Table) (string, []sqlparser.Expr) {
	isProbeCol := func(e sqlparser.Expr) (string, bool) {
		cr, ok := e.(*sqlparser.ColumnRef)
		if !ok {
			return "", false
		}
		if cr.Table != "" && !strings.EqualFold(cr.Table, ref) {
			return "", false
		}
		if tbl.ColumnIndex(cr.Name) < 0 {
			return "", false
		}
		return cr.Name, true
	}
	switch x := c.(type) {
	case *sqlparser.ComparisonExpr:
		if x.Op != "=" {
			return "", nil
		}
		if col, ok := isProbeCol(x.Left); ok {
			return col, []sqlparser.Expr{x.Right}
		}
		if col, ok := isProbeCol(x.Right); ok {
			return col, []sqlparser.Expr{x.Left}
		}
	case *sqlparser.InExpr:
		if x.Negated {
			return "", nil
		}
		if col, ok := isProbeCol(x.Left); ok {
			return col, x.List
		}
	}
	return "", nil
}

// tryHashJoin extracts equi-join conjuncts expr(left) = expr(right) and
// builds a hash join with the rest as residual. Returns nil when no equi
// conjunct exists.
func (p *Planner) tryHashJoin(left, right exec.Operator, conjuncts []sqlparser.Expr, kind exec.JoinKind) (exec.Operator, error) {
	var leftKeys, rightKeys []expr.Expr
	var residualConjuncts []sqlparser.Expr
	for _, c := range conjuncts {
		cmp, ok := c.(*sqlparser.ComparisonExpr)
		if !ok || cmp.Op != "=" {
			residualConjuncts = append(residualConjuncts, c)
			continue
		}
		if lk, err := expr.Compile(cmp.Left, left.Schema()); err == nil {
			if rk, err := expr.Compile(cmp.Right, right.Schema()); err == nil {
				leftKeys = append(leftKeys, lk)
				rightKeys = append(rightKeys, rk)
				continue
			}
		}
		if lk, err := expr.Compile(cmp.Right, left.Schema()); err == nil {
			if rk, err := expr.Compile(cmp.Left, right.Schema()); err == nil {
				leftKeys = append(leftKeys, lk)
				rightKeys = append(rightKeys, rk)
				continue
			}
		}
		residualConjuncts = append(residualConjuncts, c)
	}
	if len(leftKeys) == 0 {
		return nil, nil
	}
	join := exec.NewHashJoin(left, right, leftKeys, rightKeys, nil, kind)
	if len(residualConjuncts) > 0 {
		residual, err := expr.Compile(joinAnd(residualConjuncts), join.Schema())
		if err != nil {
			return nil, nil
		}
		join.Residual = residual
	}
	return join, nil
}

// requalify renames the table qualifier of every column an input produces
// (derived tables expose their output under the derived alias).
type requalify struct {
	input  exec.Operator
	schema *expr.Schema
	alias  string
}

// requalified exposes op's output columns under alias.
func requalified(op exec.Operator, alias string) *requalify {
	cols := make([]expr.ColInfo, len(op.Schema().Cols))
	for i, c := range op.Schema().Cols {
		cols[i] = expr.ColInfo{Table: alias, Name: c.Name, Type: c.Type}
	}
	return &requalify{input: op, schema: expr.NewSchema(cols...), alias: alias}
}

// Schema implements exec.Operator.
func (r *requalify) Schema() *expr.Schema { return r.schema }

// Open implements exec.Operator.
func (r *requalify) Open() error { return r.input.Open() }

// Next implements exec.Operator.
func (r *requalify) Next() (sqltypes.Row, error) { return r.input.Next() }

// Close implements exec.Operator.
func (r *requalify) Close() error { return r.input.Close() }

// Describe implements exec.Operator.
func (r *requalify) Describe() string { return "Subquery AS " + r.alias }

// Children implements exec.Operator.
func (r *requalify) Children() []exec.Operator { return []exec.Operator{r.input} }

// SetChildren implements exec.Rewirable, so EXPLAIN ANALYZE probes reach
// inside derived tables.
func (r *requalify) SetChildren(children []exec.Operator) { r.input = children[0] }
