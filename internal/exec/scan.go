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

// Scan is a full heap scan of a table (or a materialized view's backing
// table), producing columns qualified by the reference name used in the
// query.
type Scan struct {
	Table *catalog.Table
	Ref   string // alias or table name used in the query
	// Snap, when set, resolves the MVCC snapshot the scan reads at; every
	// operator of one statement shares the same resolver so the whole plan
	// sees one visibility horizon. Nil reads the latest committed state.
	Snap func() txn.Snapshot

	schema *expr.Schema
	it     *storage.Iter
	// stats accumulate across Opens (nested-loop re-scans included) and
	// survive Close so EXPLAIN ANALYZE can render them after execution.
	stats storage.IterStats
}

// NewScan builds a full scan of tbl referenced as ref.
func NewScan(tbl *catalog.Table, ref string) *Scan {
	cols := make([]expr.ColInfo, len(tbl.Columns))
	for i, c := range tbl.Columns {
		cols[i] = expr.ColInfo{Table: ref, Name: c.Name, Type: c.Type}
	}
	return &Scan{Table: tbl, Ref: ref, schema: expr.NewSchema(cols...)}
}

// Schema implements Operator.
func (s *Scan) Schema() *expr.Schema { return s.schema }

// Open implements Operator. The scan streams pages through the buffer pool
// instead of materializing: the iterator copies the slot-directory header at
// Open, so concurrent mutations — by other transactions or by the same
// session (e.g. INSERT … SELECT from itself) — do not affect iteration, and
// MVCC stamp transitions never change visibility at a fixed snapshot.
func (s *Scan) Open() error {
	sn := s.Table.Heap.Latest()
	if s.Snap != nil {
		sn = s.Snap()
	}
	s.closeIter()
	s.it = s.Table.Heap.IterAt(sn)
	return nil
}

// Next implements Operator.
func (s *Scan) Next() (sqltypes.Row, error) {
	if s.it == nil {
		return nil, nil
	}
	_, row, err := s.it.Next()
	return row, err
}

// Close implements Operator.
func (s *Scan) Close() error {
	s.closeIter()
	return nil
}

func (s *Scan) closeIter() {
	if s.it == nil {
		return
	}
	st := s.it.Stats()
	s.stats.Pages += st.Pages
	s.stats.Hits += st.Hits
	s.stats.Misses += st.Misses
	s.it.Close()
	s.it = nil
}

// Describe implements Operator.
func (s *Scan) Describe() string {
	d := "SeqScan " + s.Table.Name
	if s.Ref != s.Table.Name {
		d = fmt.Sprintf("SeqScan %s AS %s", s.Table.Name, s.Ref)
	}
	// Runtime page traffic, rendered after execution (EXPLAIN ANALYZE
	// formats the tree once the operators have run and closed).
	if s.stats.Pages > 0 {
		hr := 1.0
		if denom := s.stats.Hits + s.stats.Misses; denom > 0 {
			hr = float64(s.stats.Hits) / float64(denom)
		}
		d += fmt.Sprintf(" (pages=%d hit_ratio=%.2f)", s.stats.Pages, hr)
	}
	return d
}

// Children implements Operator.
func (s *Scan) Children() []Operator { return nil }

// Values produces a fixed in-memory row set (used for VALUES lists and
// tests).
type Values struct {
	Rows   []sqltypes.Row
	schema *expr.Schema
	pos    int
}

// NewValues builds a Values operator.
func NewValues(schema *expr.Schema, rows []sqltypes.Row) *Values {
	return &Values{Rows: rows, schema: schema}
}

// Schema implements Operator.
func (v *Values) Schema() *expr.Schema { return v.schema }

// Open implements Operator.
func (v *Values) Open() error { v.pos = 0; return nil }

// Next implements Operator.
func (v *Values) Next() (sqltypes.Row, error) {
	if v.pos >= len(v.Rows) {
		return nil, nil
	}
	row := v.Rows[v.pos]
	v.pos++
	return row, nil
}

// Close implements Operator.
func (v *Values) Close() error { return nil }

// Describe implements Operator.
func (v *Values) Describe() string { return fmt.Sprintf("Values (%d rows)", len(v.Rows)) }

// Children implements Operator.
func (v *Values) Children() []Operator { return nil }

// Filter passes through rows whose predicate evaluates to true.
type Filter struct {
	Input Operator
	Pred  expr.Expr
}

// Schema implements Operator.
func (f *Filter) Schema() *expr.Schema { return f.Input.Schema() }

// Open implements Operator.
func (f *Filter) Open() error { return f.Input.Open() }

// Next implements Operator.
func (f *Filter) Next() (sqltypes.Row, error) {
	for {
		row, err := f.Input.Next()
		if err != nil || row == nil {
			return nil, err
		}
		v, err := f.Pred.Eval(row)
		if err != nil {
			return nil, err
		}
		if expr.Truthy(v) {
			return row, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Input.Close() }

// Describe implements Operator.
func (f *Filter) Describe() string { return "Filter " + f.Pred.String() }

// Children implements Operator.
func (f *Filter) Children() []Operator { return []Operator{f.Input} }

// Project evaluates a list of expressions per input row.
type Project struct {
	Input Operator
	Exprs []expr.Expr

	schema *expr.Schema
	// pushed: the projection is a pure column pick the Window below emits
	// itself (see PushDown), so rows pass through untouched.
	pushed bool
}

// NewProject builds a projection with the given output column names.
func NewProject(input Operator, exprs []expr.Expr, names []string) *Project {
	cols := make([]expr.ColInfo, len(exprs))
	for i, e := range exprs {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		cols[i] = expr.ColInfo{Name: name, Type: e.Type()}
	}
	return &Project{Input: input, Exprs: exprs, schema: expr.NewSchema(cols...)}
}

// Schema implements Operator.
func (p *Project) Schema() *expr.Schema { return p.schema }

// PushDown hands the projection to the input when the input is a Window and
// every expression picks a distinct column of it: the Window then builds its
// output rows in exactly this selection (Window.Emit) and Project forwards
// them, instead of the Window widening every input row only for Project to
// copy a few columns out again. Any other plan shape is left as it is.
// Called by the planner on a freshly built plan.
func (p *Project) PushDown() {
	win, ok := p.Input.(*Window)
	if !ok {
		return
	}
	cols := make([]int, len(p.Exprs))
	for i, e := range p.Exprs {
		c, ok := e.(*expr.Col)
		if !ok || c.Idx >= len(win.schema.Cols) || slices.Contains(cols[:i], c.Idx) {
			return
		}
		cols[i] = c.Idx
	}
	win.Emit, p.pushed = cols, true
}

// Open implements Operator.
func (p *Project) Open() error { return p.Input.Open() }

// takeRows implements rowsHandoff: a pushed-down projection forwards the
// materialized rows of its input.
func (p *Project) takeRows() []sqltypes.Row {
	if h, ok := p.Input.(rowsHandoff); ok && p.pushed {
		return h.takeRows()
	}
	return nil
}

// Next implements Operator.
func (p *Project) Next() (sqltypes.Row, error) {
	row, err := p.Input.Next()
	if err != nil || row == nil || p.pushed {
		return row, err
	}
	out := make(sqltypes.Row, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e.Eval(row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Input.Close() }

// Describe implements Operator.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project " + joinTrunc(parts, 6)
}

// Children implements Operator.
func (p *Project) Children() []Operator { return []Operator{p.Input} }

func joinTrunc(parts []string, max int) string {
	if len(parts) > max {
		parts = append(append([]string{}, parts[:max]...), fmt.Sprintf("… (%d more)", len(parts)-max))
	}
	out := ""
	for i, s := range parts {
		if i > 0 {
			out += ", "
		}
		out += s
	}
	return out
}

// Limit stops after N rows.
type Limit struct {
	Input Operator
	N     int64
	seen  int64
}

// Schema implements Operator.
func (l *Limit) Schema() *expr.Schema { return l.Input.Schema() }

// Open implements Operator.
func (l *Limit) Open() error { l.seen = 0; return l.Input.Open() }

// Next implements Operator.
func (l *Limit) Next() (sqltypes.Row, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	row, err := l.Input.Next()
	if err != nil || row == nil {
		return nil, err
	}
	l.seen++
	return row, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Input.Close() }

// Describe implements Operator.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit %d", l.N) }

// Children implements Operator.
func (l *Limit) Children() []Operator { return []Operator{l.Input} }
