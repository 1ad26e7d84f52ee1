package rewrite

import (
	"fmt"

	"rfview/internal/catalog"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
)

// Strategy selects the derivation algorithm.
type Strategy uint8

// Derivation strategies.
const (
	// StrategyAuto picks MinOA for SUM/COUNT (the paper calls it the
	// theoretically more economical variant) and MaxOA where MinOA does not
	// apply (MIN/MAX, or the residue-collision corner).
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

// Derivation is the result of a successful view match: the decision as the
// node the planner lowers to the Derive operator, its Fig. 10/13 rendering
// as SQL, and provenance for EXPLAIN and the experiment harness.
type Derivation struct {
	View     *catalog.MatView
	Strategy Strategy // resolved (never StrategyAuto)
	Form     Form
	DeltaL   int
	DeltaH   int
	Wx       int
	// Exact marks an identically-windowed match: the answer is the view
	// body itself.
	Exact bool
	// Plan is what the engine executes: the sequence algebra over one scan
	// of the view.
	Plan *sqlparser.DeriveSelect
	// Stmt renders the same derivation as the paper's relational pattern
	// (Figs. 5, 10, 13). The engine shows it as the Rewritten text; the
	// experiment harness (Table 2, rfbench -exp patterns) executes it.
	Stmt sqlparser.SelectStatement
}

// Derive matches a reporting-function query against the materialized
// sequence views in the catalog and, if one can answer it, returns the
// derivation (§3–§5). A nil Derivation with nil error means "no
// applicable view" — the caller plans the query natively.
func Derive(cat *catalog.Catalog, sel *sqlparser.Select, strategy Strategy, form Form) (*Derivation, error) {
	wq, err := MatchWindowQuery(sel)
	if err != nil {
		return nil, nil // not the canonical shape; not an error
	}
	partCol := ""
	switch len(wq.PartitionBy) {
	case 0:
	case 1:
		// One partition column: answerable from a partitioned sequence view
		// (a "complete reporting function" with header/trailer per
		// partition, §6.2).
		partCol = wq.PartitionBy[0]
	default:
		return nil, nil // multi-column partitioning stays at the core layer
	}
	if !plainColsMatch(wq, partCol) {
		return nil, nil // only SELECT [part,] pos, agg OVER … is view-answerable
	}
	valCol := wq.ValCol
	agg := wq.Agg
	if agg == "COUNT" && valCol == "" {
		valCol = wq.PosCol // COUNT(*) ≡ COUNT(pos) over a dense position column
	}
	candidates := cat.SequenceViewsOver(wq.Table, wq.PosCol, partCol, valCol, agg)

	// Exact window match wins outright.
	for _, v := range candidates {
		if windowsEqual(v.Window, wq.Shape) {
			return &Derivation{
				View: v, Strategy: StrategyMaxOA, Form: form, Exact: true,
				Plan: derivePlan(v, wq, sqlparser.DeriveExact),
				Stmt: exactMatchSQL(v, wq),
			}, nil
		}
	}

	// AVG has no direct derivation algebra; per §2.1, derive SUM and COUNT
	// and divide. Only attempted for simple sliding queries with a value
	// column (AVG(*) does not exist).
	if agg == "AVG" {
		if partCol == "" && !wq.Shape.Cumulative && wq.ValCol != "" {
			return avgFromSumCount(cat, wq, strategy, form)
		}
		return nil, nil
	}
	if len(candidates) == 0 {
		return nil, nil
	}

	// Rank remaining candidates: larger materialized windows need fewer
	// terms (the explicit sums step by W_x).
	best := pickView(candidates, wq, strategy)
	if best == nil {
		return nil, nil
	}
	v := best
	switch {
	case v.Window.Cumulative:
		if v.PartColumn != "" {
			// Per-partition cardinalities are not available to the SQL
			// pattern (the +h lookup clamps at n); partitioned cumulative
			// views answer only exact matches.
			return nil, nil
		}
		return &Derivation{View: v, Strategy: StrategyMaxOA, Form: form,
			Plan: derivePlan(v, wq, sqlparser.DeriveCumulative),
			Stmt: slidingFromCumulativeSQL(v, wq)}, nil
	case agg == "MIN" || agg == "MAX":
		dl := wq.Shape.Preceding - v.Window.Preceding
		dh := wq.Shape.Following - v.Window.Following
		return &Derivation{View: v, Strategy: StrategyMaxOA, Form: form,
			DeltaL: dl, DeltaH: dh, Wx: 1 + v.Window.Preceding + v.Window.Following,
			Plan: derivePlan(v, wq, sqlparser.DeriveMaxOA),
			Stmt: minMaxSQL(v, wq, dl, dh)}, nil
	default:
		dl := wq.Shape.Preceding - v.Window.Preceding
		dh := wq.Shape.Following - v.Window.Following
		wx := 1 + v.Window.Preceding + v.Window.Following
		st := resolveStrategy(strategy, dl, dh, wx)
		if st == StrategyAuto {
			return nil, nil // no applicable algorithm for this view
		}
		d := &Derivation{View: v, Strategy: st, Form: form, DeltaL: dl, DeltaH: dh, Wx: wx}
		if st == StrategyMaxOA {
			d.Plan = derivePlan(v, wq, sqlparser.DeriveMaxOA)
			d.Stmt = maxOASQL(v, wq, dl, dh, wx, form)
		} else {
			d.Plan = derivePlan(v, wq, sqlparser.DeriveMinOA)
			d.Stmt = minOASQL(v, wq, dl, dh, wx, form)
		}
		return d, nil
	}
}

// resolveStrategy applies each algorithm's preconditions:
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

func windowsEqual(w catalog.WindowSpec, s WindowShape) bool {
	if w.Cumulative != s.Cumulative {
		return false
	}
	return w.Cumulative || (w.Preceding == s.Preceding && w.Following == s.Following)
}

// pickView chooses the candidate view a derivation will run against:
// applicable views only, preferring sliding views over cumulative ones and
// the largest materialized window (fewest telescoping terms). Ties break on
// view name, so the choice — and therefore every cached or explained plan —
// is stable across runs regardless of catalog map iteration order.
func pickView(candidates []*catalog.MatView, wq *WindowQuery, strategy Strategy) *catalog.MatView {
	var bestSliding, bestCumulative *catalog.MatView
	bestW := -1
	for _, v := range candidates {
		if v.Window.Cumulative {
			// Cumulative views answer any sliding SUM/COUNT query (§3.1).
			if !wq.Shape.Cumulative && (wq.Agg == "SUM" || wq.Agg == "COUNT") &&
				(bestCumulative == nil || v.Name < bestCumulative.Name) {
				bestCumulative = v
			}
			continue
		}
		if wq.Shape.Cumulative {
			continue // sliding views do not answer cumulative queries here
		}
		dl := wq.Shape.Preceding - v.Window.Preceding
		dh := wq.Shape.Following - v.Window.Following
		wx := 1 + v.Window.Preceding + v.Window.Following
		ok := false
		if wq.Agg == "MIN" || wq.Agg == "MAX" {
			ok = dl >= 0 && dh >= 0 && dl+dh <= wx
		} else {
			ok = resolveStrategy(strategy, dl, dh, wx) != StrategyAuto
		}
		if ok && (wx > bestW || (wx == bestW && v.Name < bestSliding.Name)) {
			bestSliding, bestW = v, wx
		}
	}
	if bestSliding != nil {
		return bestSliding
	}
	return bestCumulative
}

// plainColsMatch checks the non-window select items are exactly the
// position column (and, for partitioned queries, the partition column).
func plainColsMatch(wq *WindowQuery, partCol string) bool {
	sawPos, sawPart := false, false
	for _, c := range wq.PlainCols {
		switch {
		case equalFold(c, wq.PosCol) && !sawPos:
			sawPos = true
		case partCol != "" && equalFold(c, partCol) && !sawPart:
			sawPart = true
		default:
			return false
		}
	}
	return sawPos && (partCol == "" || sawPart)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// derivePlan is the derivation of wq from v by algo as the planner's node.
func derivePlan(v *catalog.MatView, wq *WindowQuery, algo string) *sqlparser.DeriveSelect {
	return &sqlparser.DeriveSelect{
		Source:  sqlparser.DeriveSource{View: v.Name, Agg: v.Agg, Window: sqlparser.SeqWindow(v.Window), Algo: algo},
		Target:  sqlparser.SeqWindow(wq.Shape),
		Columns: deriveColumns(wq),
	}
}

// deriveColumns are the query's output columns in select-list order: the
// plain columns by role, the reporting function as the derived value.
func deriveColumns(wq *WindowQuery) []sqlparser.DeriveColumn {
	value := sqlparser.DeriveColumn{Name: outAlias(wq), Kind: sqlparser.DeriveValue}
	cols := make([]sqlparser.DeriveColumn, 0, len(wq.PlainCols)+1)
	for _, c := range wq.PlainCols {
		if len(cols) == wq.WindowItemAt {
			cols = append(cols, value)
		}
		kind := sqlparser.DerivePart
		if equalFold(c, wq.PosCol) {
			kind = sqlparser.DerivePos
		}
		cols = append(cols, sqlparser.DeriveColumn{Name: c, Kind: kind})
	}
	if len(cols) == len(wq.PlainCols) {
		cols = append(cols, value)
	}
	return cols
}

// outAlias returns the output column name for the derived value.
func outAlias(wq *WindowQuery) string {
	if wq.OutAlias != "" {
		return wq.OutAlias
	}
	return "val"
}

// bodyFilter restricts the outer scan to the sequence body (the header and
// trailer rows exist only to make derivations possible): positions 1…n for
// simple views, the `body` marker column for partitioned views (whose
// per-partition cardinalities vary).
func bodyFilter(v *catalog.MatView, ref string) sqlparser.Expr {
	if v.PartColumn != "" {
		return eq(col(ref, "body"), &sqlparser.Literal{Val: sqltypesTrue})
	}
	return between(col(ref, "pos"), intLit(1), intLit(v.BaseRows.Load()))
}

// outerItems builds the rewritten query's projection: the plain columns in
// their original order (position and, if partitioned, partition column),
// then the derived value.
func outerItems(v *catalog.MatView, wq *WindowQuery, ref string, value sqlparser.Expr) []sqlparser.SelectItem {
	items := make([]sqlparser.SelectItem, 0, len(wq.PlainCols)+1)
	for _, c := range wq.PlainCols {
		if equalFold(c, wq.PosCol) {
			items = append(items, selItem(col(ref, "pos"), c))
		} else {
			items = append(items, selItem(col(ref, "part"), c))
		}
	}
	return append(items, selItem(value, outAlias(wq)))
}

// exactMatchSQL answers the query straight from an identically-windowed view.
func exactMatchSQL(v *catalog.MatView, wq *WindowQuery) *sqlparser.Select {
	return &sqlparser.Select{
		Items: outerItems(v, wq, "s", col("s", "val")),
		From:  tbl(v.Name, "s"),
		Where: bodyFilter(v, "s"),
	}
}

// slidingFromCumulativeSQL renders ỹ_k = x̃_{k+h} − x̃_{k−l−1} (§3.1, Fig. 5)
// against a materialized cumulative view. The +h lookup is clamped to n with
// LEAST because a cumulative view's trailer is implicit (the grand total).
func slidingFromCumulativeSQL(v *catalog.MatView, wq *WindowQuery) *sqlparser.Select {
	l, h := wq.Shape.Preceding, wq.Shape.Following
	n := v.BaseRows.Load()
	upper := plusConst(col("s", "pos"), int64(h))
	if h > 0 {
		upper = &sqlparser.FuncExpr{Name: "LEAST", Args: []sqlparser.Expr{upper, intLit(n)}}
	}
	value := &sqlparser.BinaryExpr{
		Op:    "-",
		Left:  coalesce(col("a", "val"), intLit(0)),
		Right: coalesce(col("b", "val"), intLit(0)),
	}
	return &sqlparser.Select{
		Items: outerItems(v, wq, "s", value),
		From: leftJoin(
			leftJoin(tbl(v.Name, "s"), tbl(v.Name, "a"), eq(col("a", "pos"), upper)),
			tbl(v.Name, "b"),
			eq(col("b", "pos"), plusConst(col("s", "pos"), int64(-l-1))),
		),
		Where: bodyFilter(v, "s"),
	}
}

// minMaxSQL renders the MIN/MAX MaxOA derivation (§4.2):
// ỹ_k = min/max(x̃_{k−Δl}, x̃_{k+Δh}).
func minMaxSQL(v *catalog.MatView, wq *WindowQuery, dl, dh int) *sqlparser.Select {
	combiner := "LEAST"
	if wq.Agg == "MAX" {
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
	if v.PartColumn != "" {
		onA = and(onA, eq(col("a", "part"), col("s", "part")))
		onB = and(onB, eq(col("b", "part"), col("s", "part")))
	}
	return &sqlparser.Select{
		Items: outerItems(v, wq, "s", value),
		From: leftJoin(
			leftJoin(tbl(v.Name, "s"), tbl(v.Name, "a"), onA),
			tbl(v.Name, "b"), onB,
		),
		Where: bodyFilter(v, "s"),
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

// derivationSQL assembles the shared shape of Figs. 10 and 13: an inner
// compensation query over the view joined with itself (disjunctive or UNION
// form), and an outer left join that re-attaches the compensation terms.
// addSelf distinguishes MaxOA (value = s.val + COALESCE(d.val,0); the x̃_k
// term is taken from the outer scan) from MinOA (value = COALESCE(d.val,0)).
func derivationSQL(v *catalog.MatView, wq *WindowQuery, branches []branch, positiveShift int, w int, form Form, addSelf bool) *sqlparser.Select {
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
			From:    crossJoin(tbl(v.Name, s1), tbl(v.Name, s2)),
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
				From:  crossJoin(tbl(v.Name, s1), tbl(v.Name, s2)),
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
		Items: outerItems(v, wq, "s", value),
		From: leftJoin(tbl(v.Name, "s"),
			&sqlparser.DerivedTable{Select: inner, Alias: "d"}, on),
		Where: bodyFilter(v, "s"),
	}
}

// maxOASQL renders the MaxOA pattern (Fig. 10, generalized to the
// double-sided case of §4.2). Branches per side (present only when that
// side's coverage factor is positive), all stepping by W_x = Δl+Δp = Δh+Δq:
//
//	left  positive:  s2.pos < s1.pos        ∧ s2 ≡ s1        (mod W_x)
//	left  negative:  s2.pos < s1.pos − Δl   ∧ s2 ≡ s1 − Δl   (mod W_x)
//	right positive:  s2.pos > s1.pos        ∧ s2 ≡ s1        (mod W_x)
//	right negative:  s2.pos > s1.pos + Δh   ∧ s2 ≡ s1 + Δh   (mod W_x)
//
// The CASE adds rows in the anchor's residue class and subtracts the rest;
// the outer query contributes the x̃_k term itself and keeps positions
// without compensation terms via the left outer join (Fig. 10's COALESCE).
func maxOASQL(v *catalog.MatView, wq *WindowQuery, dl, dh, wx int, form Form) *sqlparser.Select {
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
	return derivationSQL(v, wq, branches, 0, wx, form, true)
}

// minOASQL renders the MinOA pattern (Fig. 13): a positive chain
// right-justified with the target window's upper bound and a negative chain
// right-justified just below its lower bound, both stepping by W_x:
//
//	positive: s2.pos ≤ s1.pos + Δh        ∧ s2 ≡ s1 + Δh   (mod W_x)
//	negative: s2.pos ≤ s1.pos − Δl − W_x  ∧ s2 ≡ s1 − Δl   (mod W_x)
//
// The x̃_k term is part of the positive chain (i = 0), so the outer query
// adds nothing of its own.
func minOASQL(v *catalog.MatView, wq *WindowQuery, dl, dh, wx int, form Form) *sqlparser.Select {
	branches := []branch{
		{rangeCond: func(a, b sqlparser.Expr) sqlparser.Expr {
			return ge(plusConst(a, int64(dh)), b)
		}, residueShift: dh},
		{rangeCond: func(a, b sqlparser.Expr) sqlparser.Expr {
			return ge(plusConst(a, int64(-dl-wx)), b)
		}, residueShift: -dl},
	}
	return derivationSQL(v, wq, branches, dh, wx, form, false)
}

// RawFromCumulative renders the Fig. 4 pattern: reconstructing the raw data
// values from a materialized cumulative view via x_k = x̃_k − x̃_{k−1},
// expressed as a self join with a CASE negation and a grouped SUM.
func RawFromCumulative(v *catalog.MatView) (*sqlparser.Select, error) {
	if v.Kind != catalog.SequenceView || !v.Window.Cumulative {
		return nil, fmt.Errorf("rewrite: %q is not a materialized cumulative sequence view", v.Name)
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
			bodyFilter(v, s1),
		),
		GroupBy: []sqlparser.Expr{col(s1, "pos")},
	}, nil
}

// RawFromSliding renders the §3.2 explicit reconstruction of raw data from a
// complete materialized *sliding-window* view:
//
//	x_k = Σ_{i≥0} ( x̃_{k−h−iW} − x̃_{k−h−1−iW} )
//
// as a relational pattern in the style of Fig. 4: the positive chain matches
// view rows at positions ≡ k−h (mod W) at or left of k−h, the negative chain
// positions ≡ k−h−1 (mod W) at or left of k−h−1, separated by a CASE.
func RawFromSliding(v *catalog.MatView) (*sqlparser.Select, error) {
	if v.Kind != catalog.SequenceView || v.Window.Cumulative || v.PartColumn != "" {
		return nil, fmt.Errorf("rewrite: %q is not a simple materialized sliding-window sequence view", v.Name)
	}
	if v.Agg != "SUM" && v.Agg != "COUNT" {
		return nil, fmt.Errorf("rewrite: raw reconstruction needs a SUM or COUNT view, not %s", v.Agg)
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
		Where:   and(or(positive, negative), bodyFilter(v, s1)),
		GroupBy: []sqlparser.Expr{col(s1, "pos")},
	}, nil
}

// avgFromSumCount composes the §2.1 rule "AVG may be directly derived from
// SUM and COUNT" at the SQL level: both component derivations become derived
// tables joined on position, and the value is their (float) quotient.
func avgFromSumCount(cat *catalog.Catalog, wq *WindowQuery, strategy Strategy, form Form) (*Derivation, error) {
	component := func(agg string) (*Derivation, error) {
		sel := &sqlparser.Select{
			Items: []sqlparser.SelectItem{
				selItem(col("", wq.PosCol), ""),
				selItem(&sqlparser.WindowExpr{
					Func:    &sqlparser.FuncExpr{Name: agg, Args: []sqlparser.Expr{col("", wq.ValCol)}},
					OrderBy: []sqlparser.OrderItem{{Expr: col("", wq.PosCol)}},
					Frame: &sqlparser.FrameClause{
						Start: sqlparser.FrameBound{Type: sqlparser.OffsetPreceding, Offset: wq.Shape.Preceding},
						End:   sqlparser.FrameBound{Type: sqlparser.OffsetFollowing, Offset: wq.Shape.Following},
					},
				}, "w"),
			},
			From: tbl(wq.Table, wq.Table),
		}
		// Fix unqualified references to the table alias.
		for _, it := range sel.Items {
			if cr, ok := it.Expr.(*sqlparser.ColumnRef); ok {
				cr.Table = wq.Table
			}
		}
		return Derive(cat, sel, strategy, form)
	}
	ds, err := component("SUM")
	if err != nil || ds == nil {
		return nil, err
	}
	dc, err := component("COUNT")
	if err != nil || dc == nil {
		return nil, err
	}
	value := &sqlparser.BinaryExpr{
		Op: "/",
		Left: &sqlparser.BinaryExpr{Op: "*",
			Left:  &sqlparser.Literal{Val: sqltypes.NewFloat(1)},
			Right: col("ds", "w")},
		Right: col("dc", "w"),
	}
	stmt := &sqlparser.Select{
		Items: []sqlparser.SelectItem{
			selItem(col("ds", wq.PosCol), wq.PosCol),
			selItem(value, outAlias(wq)),
		},
		From: &sqlparser.Join{
			Left:  &sqlparser.DerivedTable{Select: ds.Stmt, Alias: "ds"},
			Right: &sqlparser.DerivedTable{Select: dc.Stmt, Alias: "dc"},
			Type:  sqlparser.InnerJoin,
			On:    eq(col("ds", wq.PosCol), col("dc", wq.PosCol)),
		},
	}
	plan := *ds.Plan
	plan.Divisor = &dc.Plan.Source
	plan.Columns = deriveColumns(wq)
	return &Derivation{
		View: ds.View, Strategy: ds.Strategy, Form: form,
		DeltaL: ds.DeltaL, DeltaH: ds.DeltaH, Wx: ds.Wx,
		Plan: &plan, Stmt: stmt,
	}, nil
}
