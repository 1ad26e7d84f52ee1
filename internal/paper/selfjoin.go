package paper

import (
	"rfview/internal/rewrite"
	"rfview/internal/sqlparser"
)

// SelfJoin rewrites a reporting-function query into the relational self-join
// pattern of Fig. 2: a join of the table with itself whose predicate places
// each s2 row into the windows it contributes to, a CASE-free aggregation
// grouped over the anchor position, and the plain columns carried through
// the group-by.
//
// For the Fig. 2 example —
//
//	SELECT pos, SUM(val) OVER (ORDER BY pos
//	                           ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING)
//	FROM seq
//
// — the rewrite produces
//
//	SELECT s1.pos, SUM(s2.val) AS column_2
//	FROM seq s1, seq s2
//	WHERE s1.pos IN (s2.pos - 1, s2.pos, s2.pos + 1)
//	GROUP BY s1.pos
//
// The IN-list is keyed on s1.pos (s2.pos ∈ [s1.pos−l, s1.pos+h] is expressed
// as s1.pos ∈ [s2.pos−h, s2.pos+l]) so that an ordered index on the position
// column turns the join into index probes — exactly the effect Table 1
// measures. Cumulative frames use s2.pos <= s1.pos instead.
//
// Preconditions (documented, checked where possible): the ordering column
// holds dense sequence positions 1…n, so ROW-offset frames coincide with
// position-offset joins; rows whose frame is empty are dropped by the inner
// join (the paper's pattern shares both properties).
func SelfJoin(sel *sqlparser.Select) (*sqlparser.Select, error) {
	wq, err := rewrite.MatchWindowQuery(sel)
	if err != nil {
		return nil, err
	}
	const s1, s2 = "s1", "s2"

	// Join predicate.
	var conjuncts []sqlparser.Expr
	if wq.Shape.Cumulative {
		conjuncts = append(conjuncts, &sqlparser.ComparisonExpr{
			Op: "<=", Left: col(s2, wq.PosCol), Right: col(s1, wq.PosCol),
		})
	} else {
		l, h := wq.Shape.Preceding, wq.Shape.Following
		list := make([]sqlparser.Expr, 0, l+h+1)
		for d := -h; d <= l; d++ {
			list = append(list, plusConst(col(s2, wq.PosCol), int64(d)))
		}
		conjuncts = append(conjuncts, &sqlparser.InExpr{Left: col(s1, wq.PosCol), List: list})
	}
	for _, pc := range wq.PartitionBy {
		conjuncts = append(conjuncts, eq(col(s1, pc), col(s2, pc)))
	}
	where := conjuncts[0]
	for _, c := range conjuncts[1:] {
		where = and(where, c)
	}

	// Select list: plain columns from s1 (grouped), the aggregate over s2.
	out := &sqlparser.Select{
		From: crossJoin(tbl(wq.Table, s1), tbl(wq.Table, s2)),
	}
	grouped := map[string]bool{}
	addGroup := func(name string) {
		if !grouped[name] {
			out.GroupBy = append(out.GroupBy, col(s1, name))
			grouped[name] = true
		}
	}
	aggArg := col(s2, wq.ValCol)
	if wq.ValCol == "" { // COUNT(*): count join partners via the position column
		aggArg = col(s2, wq.PosCol)
	}
	for i, it := range sel.Items {
		if i == wq.WindowItemAt {
			out.Items = append(out.Items, selItem(
				&sqlparser.FuncExpr{Name: wq.Agg.String(), Args: []sqlparser.Expr{aggArg}}, it.Alias))
			continue
		}
		cr := it.Expr.(*sqlparser.ColumnRef)
		alias := it.Alias
		if alias == "" {
			alias = cr.Name // let ORDER BY keep resolving by output name
		}
		out.Items = append(out.Items, selItem(col(s1, cr.Name), alias))
		addGroup(cr.Name)
	}
	// Partition columns participate in the grouping even when not projected.
	for _, pc := range wq.PartitionBy {
		addGroup(pc)
	}
	out.Where = where
	out.OrderBy = sel.OrderBy
	out.Limit = sel.Limit
	return out, nil
}
