// Package sqlparser implements a hand-rolled lexer and recursive-descent
// parser for the SQL dialect the rfview engine speaks: the subset of
// SQL:1999 needed to express the paper's workloads — reporting functions
// (aggregates with OVER clauses), the relational operator patterns of
// Figs. 2, 4, 10 and 13 (self joins, CASE, MOD, COALESCE, LEFT OUTER JOIN,
// disjunctive join predicates, UNION), DDL for tables, indexes and
// materialized views, and DML.
package sqlparser

import (
	"fmt"
	"strings"

	"rfview/internal/core"
	"rfview/internal/sqltypes"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	fmt.Stringer
}

// Expr is any scalar expression node.
type Expr interface {
	expr()
	fmt.Stringer
}

// TableExpr is a FROM-clause item: a named table, a join, or a derived
// table.
type TableExpr interface {
	tableExpr()
	fmt.Stringer
}

// SelectStatement is a SELECT core or a UNION of them.
type SelectStatement interface {
	Statement
	selectStatement()
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name string
	Type sqltypes.Type
}

// CreateTable is CREATE TABLE name (col type, …).
type CreateTable struct {
	Name    string
	Columns []ColumnDef
}

func (*CreateTable) stmt() {}

func (s *CreateTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (", s.Name)
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteString(")")
	return b.String()
}

// CreateIndex is CREATE [UNIQUE] INDEX name ON table (cols…).
type CreateIndex struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

func (*CreateIndex) stmt() {}

func (s *CreateIndex) String() string {
	u := ""
	if s.Unique {
		u = "UNIQUE "
	}
	return fmt.Sprintf("CREATE %sINDEX %s ON %s (%s)", u, s.Name, s.Table, strings.Join(s.Columns, ", "))
}

// CreateMatView is CREATE MATERIALIZED VIEW name AS select.
type CreateMatView struct {
	Name   string
	Select SelectStatement
}

func (*CreateMatView) stmt() {}

func (s *CreateMatView) String() string {
	return fmt.Sprintf("CREATE MATERIALIZED VIEW %s AS %s", s.Name, s.Select)
}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

func (*DropTable) stmt() {}

func (s *DropTable) String() string { return "DROP TABLE " + s.Name }

// DropMatView is DROP MATERIALIZED VIEW name.
type DropMatView struct{ Name string }

func (*DropMatView) stmt() {}

func (s *DropMatView) String() string { return "DROP MATERIALIZED VIEW " + s.Name }

// DropIndex is DROP INDEX name ON table.
type DropIndex struct{ Name, Table string }

func (*DropIndex) stmt() {}

func (s *DropIndex) String() string { return fmt.Sprintf("DROP INDEX %s ON %s", s.Name, s.Table) }

// RefreshMatView is REFRESH MATERIALIZED VIEW name (full recomputation).
type RefreshMatView struct{ Name string }

func (*RefreshMatView) stmt() {}

func (s *RefreshMatView) String() string { return "REFRESH MATERIALIZED VIEW " + s.Name }

// Begin starts an explicit transaction (BEGIN [TRANSACTION|WORK]). The
// optional noise word is not preserved: String() renders the canonical form,
// which reparses to the same statement.
type Begin struct{}

func (*Begin) stmt() {}

func (s *Begin) String() string { return "BEGIN" }

// Commit ends the current transaction, publishing its writes atomically
// (COMMIT [TRANSACTION|WORK]).
type Commit struct{}

func (*Commit) stmt() {}

func (s *Commit) String() string { return "COMMIT" }

// Rollback aborts the current transaction, discarding its writes
// (ROLLBACK [TRANSACTION|WORK]).
type Rollback struct{}

func (*Rollback) stmt() {}

func (s *Rollback) String() string { return "ROLLBACK" }

// Explain wraps a statement to request its plan. With Analyze set the
// statement is actually executed and the plan is annotated with per-operator
// row counts and wall time. Source is the inner statement's text as written
// (empty when the node was built rather than parsed): the key its plan is
// cached under when it runs on its own.
type Explain struct {
	Stmt    Statement
	Analyze bool
	Source  string
}

func (*Explain) stmt() {}

func (s *Explain) String() string {
	if s.Analyze {
		return "EXPLAIN ANALYZE " + s.Stmt.String()
	}
	return "EXPLAIN " + s.Stmt.String()
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

// Insert is INSERT INTO table [(cols…)] VALUES (…), (…) | INSERT INTO … select.
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr        // VALUES form
	Select  SelectStatement // INSERT … SELECT form (exclusive with Rows)
}

func (*Insert) stmt() {}

func (s *Insert) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s", s.Table)
	if len(s.Columns) > 0 {
		fmt.Fprintf(&b, " (%s)", strings.Join(s.Columns, ", "))
	}
	if s.Select != nil {
		fmt.Fprintf(&b, " %s", s.Select)
		return b.String()
	}
	b.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteString(")")
	}
	return b.String()
}

// Assignment is one SET col = expr of an UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// Update is UPDATE table SET … [WHERE …].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

func (*Update) stmt() {}

func (s *Update) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "UPDATE %s SET ", s.Table)
	for i, a := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s = %s", a.Column, a.Value)
	}
	if s.Where != nil {
		fmt.Fprintf(&b, " WHERE %s", s.Where)
	}
	return b.String()
}

// Delete is DELETE FROM table [WHERE …].
type Delete struct {
	Table string
	Where Expr
}

func (*Delete) stmt() {}

func (s *Delete) String() string {
	out := "DELETE FROM " + s.Table
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

// SelectItem is one projection of a SELECT list.
type SelectItem struct {
	Expr  Expr   // nil for * / t.*
	Alias string // optional AS alias
	Star  bool   // SELECT * or t.*
	Table string // qualifier of t.*
}

func (it SelectItem) String() string {
	if it.Star {
		if it.Table != "" {
			return it.Table + ".*"
		}
		return "*"
	}
	if it.Alias != "" {
		return fmt.Sprintf("%s AS %s", it.Expr, it.Alias)
	}
	return it.Expr.String()
}

// Name is the output column name of the item at select-list position i: its
// alias, else the name of the column it is, else column_<i+1>.
func (it SelectItem) Name(i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*ColumnRef); ok {
		return cr.Name
	}
	return fmt.Sprintf("column_%d", i+1)
}

// NullsOrder is the NULLS FIRST / NULLS LAST placement of an ORDER BY key.
// The zero value keeps the engine default: NULLs first ascending, NULLs last
// descending (the ordering sqltypes.Compare induces).
type NullsOrder uint8

// Null placements.
const (
	NullsDefault NullsOrder = iota
	NullsFirst
	NullsLast
)

// OrderItem is one key of an ORDER BY list.
type OrderItem struct {
	Expr  Expr
	Desc  bool
	Nulls NullsOrder
}

func (o OrderItem) String() string {
	s := o.Expr.String()
	if o.Desc {
		s += " DESC"
	}
	switch o.Nulls {
	case NullsFirst:
		s += " NULLS FIRST"
	case NullsLast:
		s += " NULLS LAST"
	}
	return s
}

// Select is a single SELECT core.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     TableExpr // nil for FROM-less selects (SELECT 1+1)
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // integer literal or nil
}

func (*Select) stmt()            {}
func (*Select) selectStatement() {}

func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	if s.From != nil {
		fmt.Fprintf(&b, " FROM %s", s.From)
	}
	if s.Where != nil {
		fmt.Fprintf(&b, " WHERE %s", s.Where)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
	}
	if s.Having != nil {
		fmt.Fprintf(&b, " HAVING %s", s.Having)
	}
	return b.String() + orderLimit(s.OrderBy, s.Limit)
}

// orderLimit renders a statement's trailing ORDER BY and LIMIT clauses, each
// only when present.
func orderLimit(orderBy []OrderItem, limit Expr) string {
	var b strings.Builder
	for i, o := range orderBy {
		if i == 0 {
			b.WriteString(" ORDER BY ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(o.String())
	}
	if limit != nil {
		fmt.Fprintf(&b, " LIMIT %s", limit)
	}
	return b.String()
}

// Union is SELECT … UNION [ALL] SELECT ….
type Union struct {
	Left, Right SelectStatement
	All         bool
	OrderBy     []OrderItem
	Limit       Expr
}

func (*Union) stmt()            {}
func (*Union) selectStatement() {}

func (s *Union) String() string {
	op := " UNION "
	if s.All {
		op = " UNION ALL "
	}
	return s.Left.String() + op + s.Right.String() + orderLimit(s.OrderBy, s.Limit)
}

// DeriveSelect answers a reporting-function query from the stored sequence of
// a materialized view with the sequence algebra (§3–§5). No SQL text parses
// to it: the view-matching rewriter puts it in place of the SELECT it
// matched, and the planner lowers it to one scan of the view it names under
// the Derive operator. It carries the whole decision — which view, which
// windows, which algorithm — so a plan can be built from it with nothing but
// a catalog.
type DeriveSelect struct {
	Source DeriveSource
	// Agg is the query's aggregate: Source.Agg, or AVG over a SUM source,
	// whose derived sums the window's implied counts divide (§2.1).
	Agg core.Agg
	// Target is the window (l_y, h_y) the query asked for.
	Target core.Window
	// Columns are the output columns in select-list order.
	Columns []DeriveColumn
	// OrderBy and Limit are the query's: each ORDER BY key names an output
	// column.
	OrderBy []OrderItem
	Limit   Expr
}

// DeriveSource is one materialized sequence view a DeriveSelect reads and the
// algorithm that takes its window to the target's.
type DeriveSource struct {
	View   string      // the sequence view
	Agg    core.Agg    // the aggregate it stores: SUM (for a SUM or AVG view), COUNT, MIN or MAX
	Window core.Window // its materialized window (l_x, h_x)
	// Algo is core.Algorithm's answer for this view and the target: the one
	// name EXPLAIN, the strategy metric and the Derive operator read.
	Algo core.Algo
}

// DeriveColumn is one output column of a DeriveSelect: the position, the
// partition key, the derived value or the body flag, under the name the
// query gave it.
type DeriveColumn struct {
	Name string
	Kind DeriveColumnKind
}

// DeriveColumnKind says what a DeriveColumn holds.
type DeriveColumnKind uint8

// The kinds of DeriveColumn.
const (
	DerivePos DeriveColumnKind = iota
	DerivePart
	DeriveValue
	DeriveBody // whether the position lies in the body 1…n_p
)

func (*DeriveSelect) stmt()            {}
func (*DeriveSelect) selectStatement() {}

func (s *DeriveSelect) String() string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return fmt.Sprintf("DERIVE %s AS %s %s FROM %s %s BY %s", strings.Join(names, ", "), s.Agg, s.Target,
		s.Source.View, s.Source.Window, s.Source.Algo) + orderLimit(s.OrderBy, s.Limit)
}

// ---------------------------------------------------------------------------
// FROM-clause items
// ---------------------------------------------------------------------------

// TableName references a stored table (or materialized view) with an
// optional alias.
type TableName struct {
	Name  string
	Alias string
}

func (*TableName) tableExpr() {}

func (t *TableName) String() string {
	if t.Alias != "" {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

// RefName returns the name the table is referenced by in expressions.
func (t *TableName) RefName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinType distinguishes join flavours.
type JoinType uint8

// Supported join types.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
	CrossJoin
)

func (j JoinType) String() string {
	switch j {
	case InnerJoin:
		return "JOIN"
	case LeftOuterJoin:
		return "LEFT OUTER JOIN"
	case CrossJoin:
		return "CROSS JOIN"
	default:
		return "JOIN?"
	}
}

// Join combines two table expressions.
type Join struct {
	Left, Right TableExpr
	Type        JoinType
	On          Expr // nil for CROSS JOIN / comma joins
}

func (*Join) tableExpr() {}

func (j *Join) String() string {
	if j.Type == CrossJoin {
		return fmt.Sprintf("%s, %s", j.Left, j.Right)
	}
	return fmt.Sprintf("%s %s %s ON %s", j.Left, j.Type, j.Right, j.On)
}

// DerivedTable is a parenthesized subquery in FROM with an alias.
type DerivedTable struct {
	Select SelectStatement
	Alias  string
}

func (*DerivedTable) tableExpr() {}

func (d *DerivedTable) String() string {
	return fmt.Sprintf("(%s) %s", d.Select, d.Alias)
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// ColumnRef references a (possibly qualified) column.
type ColumnRef struct {
	Table string // optional qualifier
	Name  string
}

func (*ColumnRef) expr() {}

func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Literal is a constant value.
type Literal struct{ Val sqltypes.Datum }

func (*Literal) expr() {}

func (l *Literal) String() string {
	if l.Val.Typ() == sqltypes.String {
		return "'" + strings.ReplaceAll(l.Val.Str(), "'", "''") + "'"
	}
	return l.Val.String()
}

// BinaryExpr is arithmetic: + - * /.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

func (*BinaryExpr) expr() {}

func (e *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left, e.Op, e.Right)
}

// UnaryExpr is unary minus.
type UnaryExpr struct {
	Op   string
	Expr Expr
}

func (*UnaryExpr) expr() {}

func (e *UnaryExpr) String() string { return fmt.Sprintf("(%s%s)", e.Op, e.Expr) }

// ComparisonExpr is = <> < <= > >=.
type ComparisonExpr struct {
	Op          string
	Left, Right Expr
}

func (*ComparisonExpr) expr() {}

func (e *ComparisonExpr) String() string {
	return fmt.Sprintf("%s %s %s", e.Left, e.Op, e.Right)
}

// AndExpr is boolean conjunction.
type AndExpr struct{ Left, Right Expr }

func (*AndExpr) expr() {}

func (e *AndExpr) String() string { return fmt.Sprintf("(%s AND %s)", e.Left, e.Right) }

// OrExpr is boolean disjunction.
type OrExpr struct{ Left, Right Expr }

func (*OrExpr) expr() {}

func (e *OrExpr) String() string { return fmt.Sprintf("(%s OR %s)", e.Left, e.Right) }

// NotExpr is boolean negation.
type NotExpr struct{ Expr Expr }

func (*NotExpr) expr() {}

func (e *NotExpr) String() string { return fmt.Sprintf("(NOT %s)", e.Expr) }

// InExpr is expr [NOT] IN (list…).
type InExpr struct {
	Left    Expr
	List    []Expr
	Negated bool
}

func (*InExpr) expr() {}

func (e *InExpr) String() string {
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = x.String()
	}
	not := ""
	if e.Negated {
		not = "NOT "
	}
	return fmt.Sprintf("%s %sIN (%s)", e.Left, not, strings.Join(parts, ", "))
}

// BetweenExpr is expr [NOT] BETWEEN a AND b.
type BetweenExpr struct {
	Expr     Expr
	From, To Expr
	Negated  bool
}

func (*BetweenExpr) expr() {}

func (e *BetweenExpr) String() string {
	not := ""
	if e.Negated {
		not = "NOT "
	}
	return fmt.Sprintf("%s %sBETWEEN %s AND %s", e.Expr, not, e.From, e.To)
}

// IsNullExpr is expr IS [NOT] NULL.
type IsNullExpr struct {
	Expr    Expr
	Negated bool
}

func (*IsNullExpr) expr() {}

func (e *IsNullExpr) String() string {
	if e.Negated {
		return e.Expr.String() + " IS NOT NULL"
	}
	return e.Expr.String() + " IS NULL"
}

// FuncExpr is a function call — scalar (MOD, COALESCE, ABS, MONTH, …) or
// aggregate (SUM, COUNT, AVG, MIN, MAX). COUNT(*) is a FuncExpr with Star.
type FuncExpr struct {
	Name string
	Args []Expr
	Star bool // COUNT(*)
}

func (*FuncExpr) expr() {}

func (e *FuncExpr) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(parts, ", "))
}

// When is one WHEN…THEN arm of a CASE.
type When struct {
	Cond Expr
	Then Expr
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []When
	Else  Expr
}

func (*CaseExpr) expr() {}

func (e *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if e.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", e.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// BoundType classifies a window frame bound.
type BoundType uint8

// Frame bound kinds.
const (
	UnboundedPreceding BoundType = iota
	OffsetPreceding
	CurrentRow
	OffsetFollowing
	UnboundedFollowing
)

// FrameBound is one end of a ROWS frame.
type FrameBound struct {
	Type   BoundType
	Offset int // for OffsetPreceding / OffsetFollowing
}

func (b FrameBound) String() string {
	switch b.Type {
	case UnboundedPreceding:
		return "UNBOUNDED PRECEDING"
	case OffsetPreceding:
		return fmt.Sprintf("%d PRECEDING", b.Offset)
	case CurrentRow:
		return "CURRENT ROW"
	case OffsetFollowing:
		return fmt.Sprintf("%d FOLLOWING", b.Offset)
	case UnboundedFollowing:
		return "UNBOUNDED FOLLOWING"
	default:
		return "?"
	}
}

// FrameClause is ROWS BETWEEN start AND end (or the one-bound shorthand
// ROWS start, which means BETWEEN start AND CURRENT ROW).
type FrameClause struct {
	Start, End FrameBound
}

func (f FrameClause) String() string {
	return fmt.Sprintf("ROWS BETWEEN %s AND %s", f.Start, f.End)
}

// WindowExpr is a reporting function: agg(arg) OVER (PARTITION BY … ORDER BY
// … ROWS …) — the paper's Fig. 1 syntax.
type WindowExpr struct {
	Func        *FuncExpr
	PartitionBy []Expr
	OrderBy     []OrderItem
	Frame       *FrameClause // nil means the SQL default frame
}

func (*WindowExpr) expr() {}

func (e *WindowExpr) String() string {
	var b strings.Builder
	b.WriteString(e.Func.String())
	b.WriteString(" OVER (")
	sep := ""
	if len(e.PartitionBy) > 0 {
		b.WriteString("PARTITION BY ")
		for i, p := range e.PartitionBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.String())
		}
		sep = " "
	}
	if len(e.OrderBy) > 0 {
		b.WriteString(sep)
		b.WriteString("ORDER BY ")
		for i, o := range e.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
		sep = " "
	}
	if e.Frame != nil {
		b.WriteString(sep)
		b.WriteString(e.Frame.String())
	}
	b.WriteString(")")
	return b.String()
}

// WalkExpr calls fn for e and every sub-expression, stopping a subtree
// descent when fn returns false.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.Left, fn)
		WalkExpr(x.Right, fn)
	case *UnaryExpr:
		WalkExpr(x.Expr, fn)
	case *ComparisonExpr:
		WalkExpr(x.Left, fn)
		WalkExpr(x.Right, fn)
	case *AndExpr:
		WalkExpr(x.Left, fn)
		WalkExpr(x.Right, fn)
	case *OrExpr:
		WalkExpr(x.Left, fn)
		WalkExpr(x.Right, fn)
	case *NotExpr:
		WalkExpr(x.Expr, fn)
	case *InExpr:
		WalkExpr(x.Left, fn)
		for _, it := range x.List {
			WalkExpr(it, fn)
		}
	case *BetweenExpr:
		WalkExpr(x.Expr, fn)
		WalkExpr(x.From, fn)
		WalkExpr(x.To, fn)
	case *IsNullExpr:
		WalkExpr(x.Expr, fn)
	case *FuncExpr:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Then, fn)
		}
		WalkExpr(x.Else, fn)
	case *WindowExpr:
		WalkExpr(x.Func, fn)
		for _, p := range x.PartitionBy {
			WalkExpr(p, fn)
		}
		for _, o := range x.OrderBy {
			WalkExpr(o.Expr, fn)
		}
	}
}
