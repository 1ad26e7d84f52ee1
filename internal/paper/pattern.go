// Package paper renders the paper's reporting-function queries and view
// derivations as the relational SQL its figures print:
//
//   - SelfJoin turns a reporting-function query into the pure-relational
//     self-join pattern of Fig. 2 — the fallback for engines "without
//     explicit support of reporting functionality inside the relational
//     engine" (§2.2), measured in Table 1;
//   - Pattern renders a rewrite.Derivation as the MaxOA (Fig. 10) or MinOA
//     (Fig. 13) relational operator pattern, in the disjunctive-join-predicate
//     or the UNION-of-simple-predicates form, the four strategies of Table 2;
//   - RawFromCumulative and RawFromSliding emit the Fig. 4 reconstruction
//     pattern and its §3.2 sliding-window counterpart.
//
// The renderings are parse trees (sqlparser ASTs) a planner runs like any
// other query; the experiments and tests run them, the engine never does.
// One deviation from the paper's figures: residue predicates are written
// MOD(pos+OFF, W) = MOD(pos+OFF, W) with OFF a multiple of W large enough to
// keep both operands non-negative, because SQL MOD takes the dividend's sign
// and complete sequences contain header positions ≤ 0.
package paper

import (
	"fmt"

	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/rewrite"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
)

// This file renders a derivation as the paper's relational operator patterns
// (Figs. 4, 5, 10, 13). The engine never runs them — it runs
// Derivation.Plan, the sequence algebra — so they are the experiments' and
// the strategy-comparing tests' alone, behind one entry point: Pattern.

// Strategy selects the pattern a SUM/COUNT derivation is rendered as.
type Strategy uint8

// Derivation strategies.
const (
	// StrategyAuto renders MinOA (the paper calls it the theoretically more
	// economical variant) and MaxOA where MinOA's pattern does not apply —
	// the residue-collision corner.
	StrategyAuto Strategy = iota
	StrategyMaxOA
	StrategyMinOA
)

func (s Strategy) String() string {
	switch s {
	case StrategyMaxOA:
		return "MaxOA"
	case StrategyMinOA:
		return "MinOA"
	default:
		return "auto"
	}
}

// Form selects the relational rendering of the derivation pattern — the two
// implementation alternatives Table 2 compares.
type Form uint8

// Pattern forms.
const (
	// FormDisjunctive joins the view with itself once, under the OR of all
	// branch predicates (Figs. 10/13 verbatim).
	FormDisjunctive Form = iota
	// FormUnion runs one simple-predicate query per branch and combines them
	// with UNION ALL before the final aggregation.
	FormUnion
)

func (f Form) String() string {
	if f == FormUnion {
		return "union"
	}
	return "disjunctive"
}

// Pattern renders d as the paper writes it in SQL — a scan of the view for
// an exact match, Fig. 5 for a cumulative view, §4.2's two-lookup join for
// MIN/MAX, and for SUM/COUNT the Fig. 10 (MaxOA) or Fig. 13 (MinOA) pattern
// the strategy picks, in the given form; AVG from a SUM or AVG view is the
// SUM pattern over the count the target window implies. n is the base
// cardinality of a simple view: the body the rendering keeps is positions
// 1…n (a partitioned view's rows carry a body flag instead). An error means
// no pattern renders d — the strategy's preconditions fail, or per-partition
// cardinalities would be needed.
func Pattern(d *rewrite.Derivation, strategy Strategy, form Form, n int) (sqlparser.SelectStatement, error) {
	p := d.Plan
	// An AVG view's sums are its backing table's rows: its name reads
	// quotients.
	rel := d.View.Name
	if d.View.Agg == core.Avg {
		rel = d.View.Table.Name
	}
	sel, err := rendering{d.View, rel, p.Columns, n}.derive(p.Source, p.Target, strategy, form)
	if err != nil {
		return nil, err
	}
	sel.OrderBy, sel.Limit = p.OrderBy, p.Limit // keys name output columns, the rendering's aliases
	if p.Agg == p.Source.Agg {
		return sel, nil
	}
	// §2.1's AVG = SUM/COUNT, the COUNT as |[pos−l, pos+h] ∩ [1, n]|: the
	// +h side clamps at one n, as the cumulative pattern's does.
	if d.View.PartColumn != "" {
		return nil, fmt.Errorf("paper: no pattern divides the partitioned view %q by per-partition counts", d.View.Name)
	}
	pos := col("s", "pos")
	var count sqlparser.Expr = pos // cumulative: min(pos, n) is pos on the body
	if t := p.Target; !t.Cumulative {
		hi, lo := plusConst(pos, int64(t.Following)), plusConst(pos, int64(-t.Preceding))
		if t.Following > 0 {
			hi = &sqlparser.FuncExpr{Name: "LEAST", Args: []sqlparser.Expr{hi, intLit(int64(n))}}
		}
		if t.Preceding > 0 {
			lo = &sqlparser.FuncExpr{Name: "GREATEST", Args: []sqlparser.Expr{lo, intLit(1)}}
		}
		count = plusConst(&sqlparser.BinaryExpr{Op: "-", Left: hi, Right: lo}, 1)
	}
	value := &sel.Items[len(sel.Items)-1]
	value.Expr = &sqlparser.BinaryExpr{Op: "/",
		Left:  &sqlparser.BinaryExpr{Op: "*", Left: &sqlparser.Literal{Val: sqltypes.NewFloat(1)}, Right: value.Expr},
		Right: count,
	}
	return sel, nil
}

// rendering is one derivation's source view, the relation its stored
// sequence is read from, the query's output columns and the body 1…n of a
// simple view, as the patterns below need them.
type rendering struct {
	v    *catalog.MatView
	rel  string
	cols []sqlparser.DeriveColumn
	n    int
}

// derive renders the derivation of target from src by src's algorithm.
func (r rendering) derive(src sqlparser.DeriveSource, target core.Window, strategy Strategy, form Form) (*sqlparser.Select, error) {
	switch src.Algo {
	case core.AlgoExact:
		return r.exactMatch(), nil
	case core.AlgoCumulative:
		if r.v.PartColumn != "" {
			// The +h lookup clamps at one n; a partitioned view's
			// cardinalities vary by partition.
			return nil, fmt.Errorf("paper: no pattern derives sliding %v from the partitioned cumulative view %q", target, src.View)
		}
		return r.slidingFromCumulative(target), nil
	}
	dl, dh := target.Preceding-src.Window.Preceding, target.Following-src.Window.Following
	wx := 1 + src.Window.Preceding + src.Window.Following
	if src.Agg == core.Min || src.Agg == core.Max {
		return r.minMax(src.Agg, dl, dh), nil
	}
	switch resolveStrategy(strategy, dl, dh, wx) {
	case StrategyMaxOA:
		return r.maxOA(dl, dh, wx, form), nil
	case StrategyMinOA:
		return r.minOA(dl, dh, wx, form), nil
	}
	return nil, fmt.Errorf("paper: no %v pattern derives %v from %q %v (Δl=%d Δh=%d W_x=%d)", strategy, target, src.View, src.Window, dl, dh, wx)
}

// resolveStrategy applies each pattern's preconditions:
//
//   - MaxOA (relational pattern): 0 ≤ Δl < W_x and 0 ≤ Δh < W_x — the
//     branch residues must be distinct from the anchor residue.
//   - MinOA: any Δl, Δh, except the residue-collision corner
//     (Δl+Δh) ≡ 0 (mod W_x), where the positive and negative telescoping
//     chains share a residue class and a single CASE cannot separate them.
//
// Returns StrategyAuto when nothing applies.
func resolveStrategy(requested Strategy, dl, dh, wx int) Strategy {
	maxOK := dl >= 0 && dl < wx && dh >= 0 && dh < wx && (dl > 0 || dh > 0)
	minOK := mod(dl+dh, wx) != 0
	switch requested {
	case StrategyMaxOA:
		if maxOK {
			return StrategyMaxOA
		}
	case StrategyMinOA:
		if minOK {
			return StrategyMinOA
		}
	default:
		if minOK {
			return StrategyMinOA
		}
		if maxOK {
			return StrategyMaxOA
		}
	}
	return StrategyAuto
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// bodyFilter restricts the outer scan to the sequence body (the header and
// trailer rows exist only to make derivations possible): positions 1…n for
// simple views, the `body` marker column for partitioned views (whose
// per-partition cardinalities vary).
func bodyFilter(v *catalog.MatView, n int, ref string) sqlparser.Expr {
	if v.PartColumn != "" {
		return eq(col(ref, "body"), &sqlparser.Literal{Val: sqltypesTrue})
	}
	return between(col(ref, "pos"), intLit(1), intLit(int64(n)))
}

// items builds the rendered query's projection: the plain columns in their
// original order (position and, if partitioned, partition column), then the
// derived value.
func (r rendering) items(ref string, value sqlparser.Expr) []sqlparser.SelectItem {
	items := make([]sqlparser.SelectItem, 0, len(r.cols))
	name := ""
	for _, c := range r.cols {
		switch c.Kind {
		case sqlparser.DerivePos:
			items = append(items, selItem(col(ref, "pos"), c.Name))
		case sqlparser.DerivePart:
			items = append(items, selItem(col(ref, "part"), c.Name))
		default:
			name = c.Name
		}
	}
	return append(items, selItem(value, name))
}

// exactMatch answers the query straight from an identically-windowed view.
func (r rendering) exactMatch() *sqlparser.Select {
	return &sqlparser.Select{
		Items: r.items("s", col("s", "val")),
		From:  tbl(r.rel, "s"),
		Where: bodyFilter(r.v, r.n, "s"),
	}
}

// slidingFromCumulative renders ỹ_k = x̃_{k+h} − x̃_{k−l−1} (§3.1, Fig. 5)
// against a materialized cumulative view. The +h lookup is clamped to n with
// LEAST because a cumulative view's trailer is implicit (the grand total).
func (r rendering) slidingFromCumulative(target core.Window) *sqlparser.Select {
	l, h := target.Preceding, target.Following
	upper := plusConst(col("s", "pos"), int64(h))
	if h > 0 {
		upper = &sqlparser.FuncExpr{Name: "LEAST", Args: []sqlparser.Expr{upper, intLit(int64(r.n))}}
	}
	value := &sqlparser.BinaryExpr{
		Op:    "-",
		Left:  coalesce(col("a", "val"), intLit(0)),
		Right: coalesce(col("b", "val"), intLit(0)),
	}
	return &sqlparser.Select{
		Items: r.items("s", value),
		From: leftJoin(
			leftJoin(tbl(r.rel, "s"), tbl(r.rel, "a"), eq(col("a", "pos"), upper)),
			tbl(r.rel, "b"),
			eq(col("b", "pos"), plusConst(col("s", "pos"), int64(-l-1))),
		),
		Where: bodyFilter(r.v, r.n, "s"),
	}
}

// minMax renders the MIN/MAX MaxOA derivation (§4.2):
// ỹ_k = min/max(x̃_{k−Δl}, x̃_{k+Δh}).
func (r rendering) minMax(agg core.Agg, dl, dh int) *sqlparser.Select {
	combiner := "LEAST"
	if agg == core.Max {
		combiner = "GREATEST"
	}
	value := &sqlparser.CaseExpr{
		Whens: []sqlparser.When{
			{Cond: &sqlparser.IsNullExpr{Expr: col("a", "val")}, Then: col("b", "val")},
			{Cond: &sqlparser.IsNullExpr{Expr: col("b", "val")}, Then: col("a", "val")},
		},
		Else: &sqlparser.FuncExpr{Name: combiner, Args: []sqlparser.Expr{col("a", "val"), col("b", "val")}},
	}
	onA := eq(col("a", "pos"), plusConst(col("s", "pos"), int64(-dl)))
	onB := eq(col("b", "pos"), plusConst(col("s", "pos"), int64(dh)))
	if r.v.PartColumn != "" {
		onA = and(onA, eq(col("a", "part"), col("s", "part")))
		onB = and(onB, eq(col("b", "part"), col("s", "part")))
	}
	return &sqlparser.Select{
		Items: r.items("s", value),
		From: leftJoin(
			leftJoin(tbl(r.rel, "s"), tbl(r.rel, "a"), onA),
			tbl(r.rel, "b"), onB,
		),
		Where: bodyFilter(r.v, r.n, "s"),
	}
}

// branch is one telescoping chain of a derivation pattern: rows s2 with
// s2.pos ⋛ s1.pos+anchor and s2.pos ≡ s1.pos+residueShift (mod W), entering
// the sum with the given sign.
type branch struct {
	// rangeCond builds the inequality between s1 and s2 positions.
	rangeCond func(s1pos, s2pos sqlparser.Expr) sqlparser.Expr
	// residueShift c: the branch matches MOD(s1.pos+c+OFF, W) = MOD(s2.pos+OFF, W).
	residueShift int
}

// residueOffset returns OFF: a multiple of w large enough to keep every MOD
// operand non-negative (header positions are ≤ 0, and SQL MOD takes the
// dividend's sign).
func residueOffset(v *catalog.MatView, shifts []int, w int) int64 {
	worst := v.Window.Following // header extends to 1−h_x
	for _, s := range shifts {
		if s < 0 && -s > worst {
			worst = -s
		}
	}
	return int64(((worst / w) + 2) * w)
}

// derivation assembles the shared shape of Figs. 10 and 13: an inner
// compensation query over the view joined with itself (disjunctive or UNION
// form), and an outer left join that re-attaches the compensation terms.
// addSelf distinguishes MaxOA (value = s.val + COALESCE(d.val,0); the x̃_k
// term is taken from the outer scan) from MinOA (value = COALESCE(d.val,0)).
func (r rendering) derivation(branches []branch, positiveShift int, w int, form Form, addSelf bool) *sqlparser.Select {
	v := r.v
	shifts := make([]int, len(branches))
	for i, b := range branches {
		shifts[i] = b.residueShift
	}
	off := residueOffset(v, shifts, w)
	const s1, s2 = "s1", "s2"
	posEq := func(shift int) sqlparser.Expr {
		return eq(
			modOf(plusConst(col(s1, "pos"), int64(shift)), off, int64(w)),
			modOf(col(s2, "pos"), off, int64(w)),
		)
	}
	partitioned := v.PartColumn != ""
	branchPred := func(b branch) sqlparser.Expr {
		pred := and(b.rangeCond(col(s1, "pos"), col(s2, "pos")), posEq(b.residueShift))
		if partitioned {
			// Each partition's sequence is independently complete (§6.2):
			// compensation terms never cross partitions.
			pred = and(eq(col(s1, "part"), col(s2, "part")), pred)
		}
		return pred
	}
	innerItems := func(valueItem sqlparser.SelectItem) []sqlparser.SelectItem {
		items := []sqlparser.SelectItem{selItem(col(s1, "pos"), "pos")}
		if partitioned {
			items = append(items, selItem(col(s1, "part"), "part"))
		}
		return append(items, valueItem)
	}
	innerGroupBy := func() []sqlparser.Expr {
		gb := []sqlparser.Expr{col(s1, "pos")}
		if partitioned {
			gb = append(gb, col(s1, "part"))
		}
		return gb
	}

	var inner sqlparser.SelectStatement
	signCase := caseSign(posEq(positiveShift), col(s2, "val"))
	switch form {
	case FormDisjunctive:
		preds := make([]sqlparser.Expr, len(branches))
		for i, b := range branches {
			preds[i] = branchPred(b)
		}
		inner = &sqlparser.Select{
			Items:   innerItems(selItem(sumOf(signCase), "val")),
			From:    crossJoin(tbl(r.rel, s1), tbl(r.rel, s2)),
			Where:   or(preds...),
			GroupBy: innerGroupBy(),
		}
	default: // FormUnion
		var union sqlparser.SelectStatement
		for i, b := range branches {
			val := sqlparser.Expr(col(s2, "val"))
			if b.residueShift != positiveShift {
				val = negOf(val)
			}
			leg := &sqlparser.Select{
				Items: innerItems(selItem(val, "val")),
				From:  crossJoin(tbl(r.rel, s1), tbl(r.rel, s2)),
				Where: branchPred(b),
			}
			if i == 0 {
				union = leg
			} else {
				union = &sqlparser.Union{Left: union, Right: leg, All: true}
			}
		}
		uItems := []sqlparser.SelectItem{selItem(col("u", "pos"), "pos")}
		uGroup := []sqlparser.Expr{col("u", "pos")}
		if partitioned {
			uItems = append(uItems, selItem(col("u", "part"), "part"))
			uGroup = append(uGroup, col("u", "part"))
		}
		uItems = append(uItems, selItem(sumOf(col("u", "val")), "val"))
		inner = &sqlparser.Select{
			Items:   uItems,
			From:    &sqlparser.DerivedTable{Select: union, Alias: "u"},
			GroupBy: uGroup,
		}
	}

	var value sqlparser.Expr = coalesce(col("d", "val"), intLit(0))
	if addSelf {
		value = &sqlparser.BinaryExpr{Op: "+", Left: col("s", "val"), Right: value}
	}
	on := eq(col("s", "pos"), col("d", "pos"))
	if partitioned {
		on = and(on, eq(col("s", "part"), col("d", "part")))
	}
	return &sqlparser.Select{
		Items: r.items("s", value),
		From: leftJoin(tbl(r.rel, "s"),
			&sqlparser.DerivedTable{Select: inner, Alias: "d"}, on),
		Where: bodyFilter(v, r.n, "s"),
	}
}

// maxOA renders the MaxOA pattern (Fig. 10, generalized to the double-sided
// case of §4.2). Branches per side (present only when that side's coverage
// factor is positive), all stepping by W_x = Δl+Δp = Δh+Δq:
//
//	left  positive:  s2.pos < s1.pos        ∧ s2 ≡ s1        (mod W_x)
//	left  negative:  s2.pos < s1.pos − Δl   ∧ s2 ≡ s1 − Δl   (mod W_x)
//	right positive:  s2.pos > s1.pos        ∧ s2 ≡ s1        (mod W_x)
//	right negative:  s2.pos > s1.pos + Δh   ∧ s2 ≡ s1 + Δh   (mod W_x)
//
// The CASE adds rows in the anchor's residue class and subtracts the rest;
// the outer query contributes the x̃_k term itself and keeps positions
// without compensation terms via the left outer join (Fig. 10's COALESCE).
func (r rendering) maxOA(dl, dh, wx int, form Form) *sqlparser.Select {
	var branches []branch
	if dl > 0 {
		branches = append(branches,
			branch{rangeCond: func(a, b sqlparser.Expr) sqlparser.Expr { return gt(a, b) }, residueShift: 0},
			branch{rangeCond: func(a, b sqlparser.Expr) sqlparser.Expr {
				return gt(plusConst(a, int64(-dl)), b)
			}, residueShift: -dl},
		)
	}
	if dh > 0 {
		branches = append(branches,
			branch{rangeCond: func(a, b sqlparser.Expr) sqlparser.Expr { return gt(b, a) }, residueShift: 0},
			branch{rangeCond: func(a, b sqlparser.Expr) sqlparser.Expr {
				return gt(b, plusConst(a, int64(dh)))
			}, residueShift: dh},
		)
	}
	return r.derivation(branches, 0, wx, form, true)
}

// minOA renders the MinOA pattern (Fig. 13): a positive chain right-justified
// with the target window's upper bound and a negative chain right-justified
// just below its lower bound, both stepping by W_x:
//
//	positive: s2.pos ≤ s1.pos + Δh        ∧ s2 ≡ s1 + Δh   (mod W_x)
//	negative: s2.pos ≤ s1.pos − Δl − W_x  ∧ s2 ≡ s1 − Δl   (mod W_x)
//
// The x̃_k term is part of the positive chain (i = 0), so the outer query
// adds nothing of its own.
func (r rendering) minOA(dl, dh, wx int, form Form) *sqlparser.Select {
	branches := []branch{
		{rangeCond: func(a, b sqlparser.Expr) sqlparser.Expr {
			return ge(plusConst(a, int64(dh)), b)
		}, residueShift: dh},
		{rangeCond: func(a, b sqlparser.Expr) sqlparser.Expr {
			return ge(plusConst(a, int64(-dl-wx)), b)
		}, residueShift: -dl},
	}
	return r.derivation(branches, dh, wx, form, false)
}

// RawFromCumulative renders the Fig. 4 pattern: reconstructing the raw data
// values x_1 … x_n from a materialized cumulative view via
// x_k = x̃_k − x̃_{k−1}, expressed as a self join with a CASE negation and a
// grouped SUM.
func RawFromCumulative(v *catalog.MatView, n int) (*sqlparser.Select, error) {
	if v.Kind != catalog.SequenceView || !v.Window.Cumulative {
		return nil, fmt.Errorf("paper: %q is not a materialized cumulative sequence view", v.Name)
	}
	const s1, s2 = "s1", "s2"
	return &sqlparser.Select{
		Items: []sqlparser.SelectItem{
			selItem(col(s1, "pos"), "pos"),
			selItem(sumOf(caseSign(eq(col(s1, "pos"), col(s2, "pos")), col(s2, "val"))), "val"),
		},
		From: crossJoin(tbl(v.Name, s1), tbl(v.Name, s2)),
		Where: and(
			&sqlparser.InExpr{Left: col(s1, "pos"), List: []sqlparser.Expr{
				col(s2, "pos"), plusConst(col(s2, "pos"), 1),
			}},
			bodyFilter(v, n, s1),
		),
		GroupBy: []sqlparser.Expr{col(s1, "pos")},
	}, nil
}

// RawFromSliding renders the §3.2 explicit reconstruction of raw data
// x_1 … x_n from a complete materialized *sliding-window* view:
//
//	x_k = Σ_{i≥0} ( x̃_{k−h−iW} − x̃_{k−h−1−iW} )
//
// as a relational pattern in the style of Fig. 4: the positive chain matches
// view rows at positions ≡ k−h (mod W) at or left of k−h, the negative chain
// positions ≡ k−h−1 (mod W) at or left of k−h−1, separated by a CASE.
func RawFromSliding(v *catalog.MatView, n int) (*sqlparser.Select, error) {
	if v.Kind != catalog.SequenceView || v.Window.Cumulative || v.PartColumn != "" {
		return nil, fmt.Errorf("paper: %q is not a simple materialized sliding-window sequence view", v.Name)
	}
	if v.Agg != core.Sum && v.Agg != core.Count {
		return nil, fmt.Errorf("paper: raw reconstruction needs a SUM or COUNT view, not %s", v.Agg)
	}
	h := v.Window.Following
	w := 1 + v.Window.Preceding + v.Window.Following
	off := residueOffset(v, []int{-h - 1}, w)
	const s1, s2 = "s1", "s2"
	posEq := func(shift int) sqlparser.Expr {
		return eq(
			modOf(plusConst(col(s1, "pos"), int64(shift)), off, int64(w)),
			modOf(col(s2, "pos"), off, int64(w)),
		)
	}
	positive := and(ge(plusConst(col(s1, "pos"), int64(-h)), col(s2, "pos")), posEq(-h))
	negative := and(ge(plusConst(col(s1, "pos"), int64(-h-1)), col(s2, "pos")), posEq(-h-1))
	return &sqlparser.Select{
		Items: []sqlparser.SelectItem{
			selItem(col(s1, "pos"), "pos"),
			selItem(sumOf(caseSign(posEq(-h), col(s2, "val"))), "val"),
		},
		From:    crossJoin(tbl(v.Name, s1), tbl(v.Name, s2)),
		Where:   and(or(positive, negative), bodyFilter(v, n, s1)),
		GroupBy: []sqlparser.Expr{col(s1, "pos")},
	}, nil
}
