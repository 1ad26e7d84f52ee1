// Package plan turns parsed SELECT statements into executable operator
// trees: name resolution, predicate placement, join-algorithm selection
// (index nested-loop / hash / nested-loop), aggregation, reporting-function
// (window) planning, and set operations.
//
// The join algorithm follows from the data, not from a switch: an index
// nested-loop join when an index covers the join key, else a hash join on
// the equi-conjuncts, else a nested loop. Table 1's with/without-index
// columns are therefore CREATE INDEX issued or not.
package plan

import (
	"context"
	"fmt"
	"runtime"

	"rfview/internal/catalog"
	"rfview/internal/exec"
	"rfview/internal/expr"
	"rfview/internal/spill"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
	"rfview/internal/txn"
)

// Options carries the per-statement execution context the planner stamps
// onto operators.
type Options struct {
	// WindowParallelism caps the worker pool a Window operator uses to
	// evaluate partitions concurrently: 0 resolves to GOMAXPROCS at plan
	// time, 1 forces sequential evaluation, N > 1 allows up to N workers.
	WindowParallelism int
	// Ctx, when set, is stamped onto planned Window operators so the worker
	// pool (and the input drain) observe the caller's cancellation. Planners
	// are per-query, so carrying the request context here is sound.
	Ctx context.Context
	// WindowStats, when set, is stamped onto planned Window operators to
	// collect parallelism-utilization counters.
	WindowStats *exec.WindowStats
	// Spill, when enabled, is stamped onto planned Sort and Window operators:
	// a Sort over the engine's memory budget goes external, a Window charges
	// what it holds.
	Spill *spill.Config
	// NoSharedSort disables the shared-sort multi-window pass: every Window
	// operator of a multi-OVER query orders its partitions internally, as a
	// stack of independent operators. Off by default (sharing on); the
	// differential oracle and A/B benchmarks flip it to compare the paths.
	NoSharedSort bool
	// Snap, when set, is stamped onto planned Scan and index-join operators:
	// it resolves the MVCC snapshot every heap access of the statement reads
	// at (one shared resolver per statement, so the whole plan sees a single
	// visibility horizon). Nil reads the latest committed state.
	Snap func() txn.Snapshot
}

// DefaultOptions is the zero value: window parallelism resolves to
// GOMAXPROCS, shared sort on, latest committed state.
func DefaultOptions() Options { return Options{} }

// windowParallelism resolves the configured knob to the concrete worker
// count stamped on planned Window operators (and shown by EXPLAIN).
func (o Options) windowParallelism() int {
	if o.WindowParallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.WindowParallelism
}

// Planner builds operator trees against a catalog.
type Planner struct {
	Cat  *catalog.Catalog
	Opts Options
}

// New returns a planner with the given options.
func New(cat *catalog.Catalog, opts Options) *Planner {
	return &Planner{Cat: cat, Opts: opts}
}

// PlanSelect plans any select statement: a core, a union, or the view
// derivation the rewriter put in place of a core.
func (p *Planner) PlanSelect(stmt sqlparser.SelectStatement) (exec.Operator, error) {
	switch s := stmt.(type) {
	case *sqlparser.Select:
		return p.planSelectCore(s)
	case *sqlparser.Union:
		return p.planUnion(s)
	case *sqlparser.DeriveSelect:
		return p.planDerive(s)
	default:
		return nil, fmt.Errorf("plan: unsupported select statement %T", stmt)
	}
}

func (p *Planner) planUnion(u *sqlparser.Union) (exec.Operator, error) {
	left, err := p.PlanSelect(u.Left)
	if err != nil {
		return nil, err
	}
	right, err := p.PlanSelect(u.Right)
	if err != nil {
		return nil, err
	}
	if len(left.Schema().Cols) != len(right.Schema().Cols) {
		return nil, fmt.Errorf("UNION inputs have different arity (%d vs %d)",
			len(left.Schema().Cols), len(right.Schema().Cols))
	}
	var op exec.Operator = &exec.UnionAll{Inputs: []exec.Operator{left, right}}
	if !u.All {
		op = &exec.Distinct{Input: op}
	}
	return p.orderAndLimit(op, u.OrderBy, u.Limit)
}

// orderAndLimit puts a statement's ORDER BY, over op's output columns, and
// its LIMIT over op.
func (p *Planner) orderAndLimit(op exec.Operator, orderBy []sqlparser.OrderItem, limit sqlparser.Expr) (exec.Operator, error) {
	if len(orderBy) > 0 {
		keys, err := p.compileOrderBy(orderBy, op.Schema())
		if err != nil {
			return nil, err
		}
		op = &exec.Sort{Input: op, Keys: keys, Ctx: p.Opts.Ctx, Spill: p.Opts.Spill}
	}
	return p.applyLimit(op, limit)
}

func (p *Planner) compileOrderBy(items []sqlparser.OrderItem, schema *expr.Schema) ([]exec.SortKey, error) {
	keys := make([]exec.SortKey, len(items))
	for i, it := range items {
		e, err := expr.Compile(it.Expr, schema)
		if err != nil {
			return nil, err
		}
		keys[i] = exec.SortKey{Expr: e, Desc: it.Desc, Nulls: nullsPlacement(it.Nulls)}
	}
	return keys, nil
}

// nullsPlacement maps the parser's NULLS FIRST/LAST clause onto the
// executor's knob; absent means the direction default.
func nullsPlacement(n sqlparser.NullsOrder) exec.NullsPlacement {
	switch n {
	case sqlparser.NullsFirst:
		return exec.NullsFirst
	case sqlparser.NullsLast:
		return exec.NullsLast
	default:
		return exec.NullsAuto
	}
}

func (p *Planner) applyLimit(op exec.Operator, limit sqlparser.Expr) (exec.Operator, error) {
	if limit == nil {
		return op, nil
	}
	lit, ok := limit.(*sqlparser.Literal)
	if !ok || lit.Val.Typ() != sqltypes.Int || lit.Val.Int() < 0 {
		return nil, fmt.Errorf("LIMIT requires a non-negative integer literal")
	}
	return &exec.Limit{Input: op, N: lit.Val.Int()}, nil
}

// planSelectCore plans one SELECT block:
//
//	FROM+WHERE → [HashAggregate → HAVING] → [Window…] → Sort → Project
//	→ [Distinct] → Limit
//
// The sort runs against the pre-projection schema (extended with synthetic
// aggregate/window columns), so ORDER BY may reference input columns that
// the projection drops; bare aliases are substituted first.
func (p *Planner) planSelectCore(sel *sqlparser.Select) (exec.Operator, error) {
	// ---- FROM + WHERE ----
	var op exec.Operator
	var err error
	if sel.From == nil {
		op = exec.NewValues(expr.NewSchema(), []sqltypes.Row{{}})
		if sel.Where != nil {
			return nil, fmt.Errorf("WHERE without FROM is not supported")
		}
	} else {
		op, err = p.planFrom(sel.From, splitAnd(sel.Where))
		if err != nil {
			return nil, err
		}
	}

	// ---- expand stars ----
	items, err := expandStars(sel.Items, op.Schema())
	if err != nil {
		return nil, err
	}
	// Name the output columns and remember the pre-rewrite item expressions
	// as written, so that neither the names nor an ORDER BY by an item's
	// original text (e.g. ORDER BY day after GROUP BY day rewrote the item to
	// a synthetic group column) sees the aggregate/window rewrites.
	names := make([]string, len(items))
	origItemStrings := make([]string, len(items))
	for i, it := range items {
		names[i] = it.Name(i)
		origItemStrings[i] = it.Expr.String()
	}

	// ---- aggregation ----
	having := sel.Having
	hasAgg := len(sel.GroupBy) > 0 || containsBareAggregate(having)
	for _, it := range items {
		if containsBareAggregate(it.Expr) {
			hasAgg = true
		}
	}
	if hasAgg {
		op, items, having, err = p.planAggregation(op, sel.GroupBy, items, having)
		if err != nil {
			return nil, err
		}
	}
	if having != nil {
		if !hasAgg {
			return nil, fmt.Errorf("HAVING requires GROUP BY or aggregates")
		}
		pred, err := expr.Compile(having, op.Schema())
		if err != nil {
			return nil, err
		}
		op = &exec.Filter{Input: op, Pred: pred}
	}

	// ---- reporting functions (windows) ----
	hasWindow := false
	for _, it := range items {
		if containsWindow(it.Expr) {
			hasWindow = true
			break
		}
	}
	if hasWindow {
		op, items, err = p.planWindows(op, items)
		if err != nil {
			return nil, err
		}
	}

	// ---- ORDER BY (pre-projection, with alias substitution) ----
	orderBy := make([]sqlparser.OrderItem, len(sel.OrderBy))
	copy(orderBy, sel.OrderBy)
	for i, ob := range orderBy {
		if cr, ok := ob.Expr.(*sqlparser.ColumnRef); ok && cr.Table == "" {
			matched := false
			for _, it := range items {
				if it.Alias != "" && equalFold(it.Alias, cr.Name) {
					orderBy[i].Expr = it.Expr
					matched = true
					break
				}
			}
			if matched {
				continue
			}
		}
		// An ORDER BY expression textually equal to a select item follows
		// that item through the aggregate/window rewrites.
		obText := ob.Expr.String()
		for j, orig := range origItemStrings {
			if obText == orig {
				orderBy[i].Expr = items[j].Expr
				break
			}
		}
	}
	if len(orderBy) > 0 {
		keys, err := p.compileOrderBy(orderBy, op.Schema())
		if err != nil {
			return nil, err
		}
		op = &exec.Sort{Input: op, Keys: keys, Ctx: p.Opts.Ctx, Spill: p.Opts.Spill}
	}

	// ---- projection ----
	exprs := make([]expr.Expr, len(items))
	for i, it := range items {
		e, err := expr.Compile(it.Expr, op.Schema())
		if err != nil {
			return nil, err
		}
		exprs[i] = e
	}
	proj := exec.NewProject(op, exprs, names)
	// A projection that only picks columns of a Window directly below is
	// emitted by the Window itself.
	proj.PushDown()
	op = proj

	if sel.Distinct {
		op = &exec.Distinct{Input: op}
	}
	return p.applyLimit(op, sel.Limit)
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

// expandStars returns the select items with stars expanded.
func expandStars(items []sqlparser.SelectItem, schema *expr.Schema) ([]sqlparser.SelectItem, error) {
	var out []sqlparser.SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range schema.Cols {
			if it.Table != "" && !equalFold(c.Table, it.Table) {
				continue
			}
			if c.Name == "" {
				return nil, fmt.Errorf("cannot expand * over unnamed columns")
			}
			out = append(out, sqlparser.SelectItem{Expr: &sqlparser.ColumnRef{Table: c.Table, Name: c.Name}})
			matched = true
		}
		if !matched {
			return nil, fmt.Errorf("star expansion %s.* matches no columns", it.Table)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty select list")
	}
	return out, nil
}

// planAggregation lowers GROUP BY + aggregates into a HashAggregate and
// rewrites items/having to reference the aggregate's output columns.
func (p *Planner) planAggregation(input exec.Operator, groupBy []sqlparser.Expr, items []sqlparser.SelectItem, having sqlparser.Expr) (exec.Operator, []sqlparser.SelectItem, sqlparser.Expr, error) {
	groupExprs := make([]expr.Expr, len(groupBy))
	groupNames := make([]string, len(groupBy))
	for i, g := range groupBy {
		e, err := expr.Compile(g, input.Schema())
		if err != nil {
			return nil, nil, nil, err
		}
		groupExprs[i] = e
		groupNames[i] = fmt.Sprintf("__grp_%d", i)
	}

	// Collect aggregate calls (deduplicated by rendered text) from items and
	// HAVING, including those nested inside window-function arguments.
	var specs []exec.AggSpec
	seen := map[string]string{} // rendered aggregate -> output column name
	collect := func(e sqlparser.Expr) (sqlparser.Expr, error) {
		var compileErr error
		out := rewriteExpr(e, func(x sqlparser.Expr) sqlparser.Expr {
			fn, ok := x.(*sqlparser.FuncExpr)
			if !ok || !expr.AggregateNames[fn.Name] {
				return nil
			}
			key := fn.String()
			if name, ok := seen[key]; ok {
				return &sqlparser.ColumnRef{Name: name}
			}
			name := fmt.Sprintf("__agg_%d", len(specs))
			var arg expr.Expr
			if !fn.Star {
				if len(fn.Args) != 1 {
					compileErr = fmt.Errorf("%s() takes exactly one argument", fn.Name)
					return nil
				}
				var err error
				arg, err = expr.Compile(fn.Args[0], input.Schema())
				if err != nil {
					compileErr = err
					return nil
				}
			}
			specs = append(specs, exec.AggSpec{Name: fn.Name, Arg: arg, OutName: name})
			seen[key] = name
			return &sqlparser.ColumnRef{Name: name}
		})
		return out, compileErr
	}

	// Substitute group-by expressions (textual match) and aggregates.
	substGroup := func(e sqlparser.Expr) sqlparser.Expr {
		return rewriteExpr(e, func(x sqlparser.Expr) sqlparser.Expr {
			for i, g := range groupBy {
				if x.String() == g.String() {
					return &sqlparser.ColumnRef{Name: groupNames[i]}
				}
			}
			return nil
		})
	}

	// Extract aggregates first (their arguments compile against the input
	// schema), then substitute group-by expressions in what remains.
	newItems := make([]sqlparser.SelectItem, len(items))
	for i, it := range items {
		rewritten, err := collect(it.Expr)
		if err != nil {
			return nil, nil, nil, err
		}
		newItems[i] = sqlparser.SelectItem{Expr: substGroup(rewritten), Alias: it.Alias}
	}
	var newHaving sqlparser.Expr
	if having != nil {
		rewritten, err := collect(having)
		if err != nil {
			return nil, nil, nil, err
		}
		newHaving = substGroup(rewritten)
	}

	agg := exec.NewHashAggregate(input, groupExprs, groupNames, specs)
	return agg, newItems, newHaving, nil
}

// windowGroup is one distinct window spec and the OVER expressions planned
// over it; one Window operator computes every member function.
type windowGroup struct {
	spec     WindowSpec
	astFuncs []*sqlparser.WindowExpr
}

// planWindows extracts window expressions from the items, groups them by
// canonical WindowSpec, and plans the Window operator stack: a single spec
// (or NoSharedSort) uses the classic per-operator sorts; multiple specs go
// through the shared-sort pass, which orders the stream once per
// ordering-compatible spec class instead of once per operator.
func (p *Planner) planWindows(input exec.Operator, items []sqlparser.SelectItem) (exec.Operator, []sqlparser.SelectItem, error) {
	var groups []*windowGroup
	groupIndex := map[string]*windowGroup{}
	nameOf := map[*sqlparser.WindowExpr]string{}
	counter := 0

	newItems := make([]sqlparser.SelectItem, len(items))
	for i, it := range items {
		rewritten := rewriteExpr(it.Expr, func(x sqlparser.Expr) sqlparser.Expr {
			w, ok := x.(*sqlparser.WindowExpr)
			if !ok {
				return nil
			}
			name := fmt.Sprintf("__win_%d", counter)
			counter++
			nameOf[w] = name
			spec := SpecOf(w)
			key := spec.Key()
			g, ok := groupIndex[key]
			if !ok {
				g = &windowGroup{spec: spec}
				groupIndex[key] = g
				groups = append(groups, g)
			}
			g.astFuncs = append(g.astFuncs, w)
			return &sqlparser.ColumnRef{Name: name}
		})
		newItems[i] = sqlparser.SelectItem{Expr: rewritten, Alias: it.Alias}
	}

	if len(groups) <= 1 || p.Opts.NoSharedSort {
		op := input
		for _, g := range groups {
			win, err := p.buildWindow(input.Schema(), op, g, nameOf)
			if err != nil {
				return nil, nil, err
			}
			op = win
		}
		return op, newItems, nil
	}
	op, err := p.planWindowsShared(input, groups, nameOf)
	if err != nil {
		return nil, nil, err
	}
	return op, newItems, nil
}

// buildWindow compiles one window group into a Window operator over op.
// Key, partition and argument expressions compile against the pre-window
// input schema — stacked window (and ordinal) columns are appended after it,
// so the indices stay valid on the extended stream.
func (p *Planner) buildWindow(inSchema *expr.Schema, op exec.Operator, g *windowGroup, nameOf map[*sqlparser.WindowExpr]string) (*exec.Window, error) {
	pb := make([]expr.Expr, len(g.spec.Partition))
	for i, k := range g.spec.Partition {
		compiled, err := expr.Compile(k.AST, inSchema)
		if err != nil {
			return nil, err
		}
		pb[i] = compiled
	}
	ob, err := p.compileSpecKeys(g.spec.Order, inSchema)
	if err != nil {
		return nil, err
	}
	funcs := make([]exec.WindowFunc, len(g.astFuncs))
	for i, w := range g.astFuncs {
		if !expr.AggregateNames[w.Func.Name] {
			return nil, fmt.Errorf("unknown reporting function %s()", w.Func.Name)
		}
		var arg expr.Expr
		if !w.Func.Star {
			if len(w.Func.Args) != 1 {
				return nil, fmt.Errorf("%s() OVER takes exactly one argument", w.Func.Name)
			}
			compiled, err := expr.Compile(w.Func.Args[0], inSchema)
			if err != nil {
				return nil, err
			}
			arg = compiled
		}
		frame, err := convertFrame(w.Frame, len(g.spec.Order) > 0)
		if err != nil {
			return nil, err
		}
		funcs[i] = exec.WindowFunc{Name: w.Func.Name, Arg: arg, Frame: frame, OutName: nameOf[w]}
	}
	win := exec.NewWindow(op, pb, ob, funcs)
	win.Parallelism = p.Opts.windowParallelism()
	win.Ctx = p.Opts.Ctx
	win.Stats = p.Opts.WindowStats
	win.Spill = p.Opts.Spill
	return win, nil
}

// compileSpecKeys compiles spec keys into executor sort keys.
func (p *Planner) compileSpecKeys(keys []SpecKey, schema *expr.Schema) ([]exec.SortKey, error) {
	out := make([]exec.SortKey, len(keys))
	for i, k := range keys {
		compiled, err := expr.Compile(k.AST, schema)
		if err != nil {
			return nil, err
		}
		out[i] = exec.SortKey{Expr: compiled, Desc: k.Desc, Nulls: k.execNulls()}
	}
	return out, nil
}

// convertFrame maps the parser's frame clause onto the executor's, applying
// the SQL default when absent.
func convertFrame(f *sqlparser.FrameClause, hasOrder bool) (exec.FrameSpec, error) {
	if f == nil {
		return exec.DefaultFrame(hasOrder), nil
	}
	conv := func(b sqlparser.FrameBound) (exec.FrameBound, error) {
		switch b.Type {
		case sqlparser.UnboundedPreceding:
			return exec.FrameBound{Kind: exec.BoundUnboundedPreceding}, nil
		case sqlparser.OffsetPreceding:
			return exec.FrameBound{Kind: exec.BoundPreceding, Offset: b.Offset}, nil
		case sqlparser.CurrentRow:
			return exec.FrameBound{Kind: exec.BoundCurrentRow}, nil
		case sqlparser.OffsetFollowing:
			return exec.FrameBound{Kind: exec.BoundFollowing, Offset: b.Offset}, nil
		case sqlparser.UnboundedFollowing:
			return exec.FrameBound{Kind: exec.BoundUnboundedFollowing}, nil
		default:
			return exec.FrameBound{}, fmt.Errorf("unknown frame bound")
		}
	}
	start, err := conv(f.Start)
	if err != nil {
		return exec.FrameSpec{}, err
	}
	end, err := conv(f.End)
	if err != nil {
		return exec.FrameSpec{}, err
	}
	return exec.FrameSpec{Start: start, End: end}, nil
}

// OutputNames returns the column names of a planned operator.
func OutputNames(op exec.Operator) []string {
	cols := op.Schema().Cols
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out
}
