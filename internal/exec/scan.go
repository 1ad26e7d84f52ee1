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
	// stats and batches accumulate across Opens (nested-loop re-scans
	// included) and survive Close so EXPLAIN ANALYZE can render them after
	// execution.
	stats   storage.IterStats
	batches int64
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

// NextBatch implements batchOperator: one run of visible rows of one page.
func (s *Scan) NextBatch(cols []int, b *sqltypes.Batch) (bool, error) {
	if s.it == nil {
		return false, nil
	}
	ok, err := s.it.NextBatch(cols, b)
	if ok {
		s.batches++
	}
	return ok, err
}

func (s *Scan) canBatch() bool { return true }

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
	s.stats.Slots += st.Slots
	s.stats.Pages += st.Pages
	s.stats.Hits += st.Hits
	s.stats.Misses += st.Misses
	s.stats.Decoded += st.Decoded
	s.it.Close()
	s.it = nil
}

// Describe implements Operator.
func (s *Scan) Describe() string {
	d := "SeqScan " + s.Table.Name
	if s.Ref != s.Table.Name {
		d = fmt.Sprintf("SeqScan %s AS %s", s.Table.Name, s.Ref)
	}
	// Runtime directory and page traffic, rendered after execution (EXPLAIN
	// ANALYZE formats the tree once the operators have run and closed).
	if s.stats.Slots > 0 {
		hr := 1.0
		if denom := s.stats.Hits + s.stats.Misses; denom > 0 {
			hr = float64(s.stats.Hits) / float64(denom)
		}
		d += fmt.Sprintf(" (slots=%d pages=%d hit_ratio=%.2f decoded=%d", s.stats.Slots, s.stats.Pages, hr, s.stats.Decoded)
		if s.batches > 0 {
			d += fmt.Sprintf(" batches=%d", s.batches)
		}
		d += ")"
	}
	return d
}

// slotsVisited returns the slot-directory entries the scan under op visited
// in its finished executions: the versions its visibility test walked. op is
// a Scan, or a Probe around one.
func slotsVisited(op Operator) int64 {
	if p, ok := op.(*Probe); ok {
		op = p.Inner
	}
	if s, ok := op.(*Scan); ok {
		return s.stats.Slots
	}
	return 0
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

// Filter passes through rows whose predicate evaluates to true. Over an
// input that produces batches it filters a batch at a time: a predicate that
// is `column op constant`, or an AND of such comparisons, is decided on the
// typed column vectors into the batch's selection, and anything else is
// evaluated position by position. Next then materializes only the selected
// rows, one allocation per batch.
type Filter struct {
	Input Operator
	Pred  expr.Expr

	src  batchOperator   // Input as a batch producer, or nil
	conj []expr.ColConst // Pred as column-constant comparisons, or nil
	cols []int           // the columns last requested of the input
	all  []int           // every column, which Next reads
	sel  []int           // the selection this filter hands on
	row  sqltypes.Row    // a batch position as a row, for Eval
	b    sqltypes.Batch
	rows []sqltypes.Row
	ri   int
	// vectorized records that a batch was filtered on typed vectors, for
	// EXPLAIN ANALYZE; it survives Close like a scan's page counts.
	vectorized bool
}

// Schema implements Operator.
func (f *Filter) Schema() *expr.Schema { return f.Input.Schema() }

// Open implements Operator.
func (f *Filter) Open() error {
	f.src = batchInput(f.Input)
	f.conj, _ = expr.ColConstConjuncts(f.Pred)
	f.rows, f.ri = f.rows[:0], 0
	return f.Input.Open()
}

// Next implements Operator.
func (f *Filter) Next() (sqltypes.Row, error) {
	if f.src != nil {
		return f.nextFromBatches()
	}
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

func (f *Filter) nextFromBatches() (sqltypes.Row, error) {
	for f.ri >= len(f.rows) {
		width := len(f.Schema().Cols)
		if len(f.all) != width {
			f.all = identity(f.all, width)
		}
		ok, err := f.NextBatch(f.all, &f.b)
		if !ok {
			return nil, err
		}
		clear(f.rows)
		f.rows, f.ri = sqltypes.AppendRows(f.rows[:0], f.b.Cols, width, f.b.Positions()), 0
	}
	f.ri++
	return f.rows[f.ri-1], nil
}

// NextBatch implements batchOperator.
func (f *Filter) NextBatch(cols []int, b *sqltypes.Batch) (bool, error) {
	f.cols = f.cols[:0]
	for _, c := range cols {
		f.cols = addCol(f.cols, c)
	}
	if f.conj != nil {
		for _, c := range f.conj {
			f.cols = addCol(f.cols, c.Col)
		}
	} else {
		for c := range f.Schema().Cols {
			f.cols = addCol(f.cols, c)
		}
	}
	for {
		ok, err := f.src.NextBatch(f.cols, b)
		if !ok || err != nil {
			return ok, err
		}
		if err := f.filter(b); err != nil {
			return false, err
		}
		if b.Len() > 0 {
			return true, nil
		}
	}
}

func (f *Filter) canBatch() bool { return batchInput(f.Input) != nil }

// filter narrows b's selection to the positions the predicate accepts.
func (f *Filter) filter(b *sqltypes.Batch) error {
	in := b.Positions()
	if f.sel == nil {
		f.sel = make([]int, 0, len(in))
	}
	out := f.sel[:0]
	typed := f.conj != nil
	for _, c := range f.conj {
		typed = typed && vectorCmp(&b.Cols[c.Col], c.Val)
	}
	if typed {
		for _, c := range f.conj {
			out = keepCmp(&b.Cols[c.Col], c.Op, c.Val, in, out[:0])
			in = out
		}
		f.vectorized = true
	} else {
		f.row = grow(f.row, len(f.Schema().Cols))
		for _, p := range in {
			for _, c := range f.cols {
				f.row[c] = b.Cols[c].Datum(p)
			}
			v, err := f.Pred.Eval(f.row)
			if err != nil {
				return err
			}
			if expr.Truthy(v) {
				out = append(out, p)
			}
		}
	}
	f.sel, b.Sel = out, out
	return nil
}

// Close implements Operator.
func (f *Filter) Close() error {
	clear(f.rows)
	f.rows = f.rows[:0]
	return f.Input.Close()
}

// Describe implements Operator.
func (f *Filter) Describe() string {
	if f.vectorized {
		return "Filter " + f.Pred.String() + " vectorized"
	}
	return "Filter " + f.Pred.String()
}

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
