// Package expr compiles parsed scalar expressions against a row schema and
// evaluates them over datum rows. It also provides the aggregate
// accumulators the grouping operator uses.
//
// Aggregate and window expressions never reach Compile: the planner lifts
// them out of the select list and replaces them with column references to
// operator-produced columns. Compile rejects them if it meets one.
package expr

import (
	"fmt"
	"math"
	"strings"

	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
)

// ColInfo describes one column visible to an expression: an optional table
// qualifier, the column name, and its type.
type ColInfo struct {
	Table string
	Name  string
	Type  sqltypes.Type
}

// Schema is an ordered list of visible columns; expressions compile to
// ordinal references against it.
type Schema struct {
	Cols []ColInfo
}

// NewSchema builds a schema from column infos.
func NewSchema(cols ...ColInfo) *Schema { return &Schema{Cols: cols} }

// Resolve finds the ordinal of a (possibly qualified) column name. An
// unqualified name that matches columns of several tables is ambiguous.
func (s *Schema) Resolve(table, name string) (int, error) {
	found := -1
	for i, c := range s.Cols {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("column reference %q is ambiguous", refName(table, name))
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("column %q does not exist", refName(table, name))
	}
	return found, nil
}

func refName(table, name string) string {
	if table != "" {
		return table + "." + name
	}
	return name
}

// Append returns a new schema with extra columns appended.
func (s *Schema) Append(cols ...ColInfo) *Schema {
	out := &Schema{Cols: make([]ColInfo, 0, len(s.Cols)+len(cols))}
	out.Cols = append(out.Cols, s.Cols...)
	out.Cols = append(out.Cols, cols...)
	return out
}

// Concat returns the schema of a join output: left columns then right.
func Concat(a, b *Schema) *Schema {
	return a.Append(b.Cols...)
}

// Expr is a compiled expression.
type Expr interface {
	// Eval computes the expression over one input row.
	Eval(row sqltypes.Row) (sqltypes.Datum, error)
	// Type is the static result type (sqltypes.Null when unknown).
	Type() sqltypes.Type
	fmt.Stringer
}

// ---------------------------------------------------------------------------
// Node types
// ---------------------------------------------------------------------------

// Col is an ordinal column reference.
type Col struct {
	Idx  int
	name string
	typ  sqltypes.Type
}

// NewCol builds a column reference for tests and operators.
func NewCol(idx int, name string, typ sqltypes.Type) *Col {
	return &Col{Idx: idx, name: name, typ: typ}
}

// Eval implements Expr.
func (c *Col) Eval(row sqltypes.Row) (sqltypes.Datum, error) {
	if c.Idx >= len(row) {
		return sqltypes.NullDatum, fmt.Errorf("row too short for column %d (%s)", c.Idx, c.name)
	}
	return row[c.Idx], nil
}

// Type implements Expr.
func (c *Col) Type() sqltypes.Type { return c.typ }

func (c *Col) String() string { return c.name }

// Const is a literal.
type Const struct{ Val sqltypes.Datum }

// Eval implements Expr.
func (c *Const) Eval(sqltypes.Row) (sqltypes.Datum, error) { return c.Val, nil }

// Type implements Expr.
func (c *Const) Type() sqltypes.Type { return c.Val.Typ() }

func (c *Const) String() string { return c.Val.String() }

type binary struct {
	op          string
	left, right Expr
}

func (b *binary) Eval(row sqltypes.Row) (sqltypes.Datum, error) {
	l, err := b.left.Eval(row)
	if err != nil {
		return sqltypes.NullDatum, err
	}
	r, err := b.right.Eval(row)
	if err != nil {
		return sqltypes.NullDatum, err
	}
	switch b.op {
	case "+":
		return sqltypes.Add(l, r)
	case "-":
		return sqltypes.Sub(l, r)
	case "*":
		return sqltypes.Mul(l, r)
	case "/":
		return sqltypes.Div(l, r)
	}
	return sqltypes.NullDatum, fmt.Errorf("unknown operator %q", b.op)
}

func (b *binary) Type() sqltypes.Type {
	if b.left.Type() == sqltypes.Float || b.right.Type() == sqltypes.Float || b.op == "/" {
		if b.left.Type() == sqltypes.Int && b.right.Type() == sqltypes.Int {
			return sqltypes.Int // integer division truncates
		}
		return sqltypes.Float
	}
	if b.left.Type() == sqltypes.Int && b.right.Type() == sqltypes.Int {
		return sqltypes.Int
	}
	return sqltypes.Null
}

func (b *binary) String() string { return fmt.Sprintf("(%s %s %s)", b.left, b.op, b.right) }

type unaryMinus struct{ inner Expr }

func (u *unaryMinus) Eval(row sqltypes.Row) (sqltypes.Datum, error) {
	v, err := u.inner.Eval(row)
	if err != nil {
		return sqltypes.NullDatum, err
	}
	return sqltypes.Neg(v)
}

func (u *unaryMinus) Type() sqltypes.Type { return u.inner.Type() }
func (u *unaryMinus) String() string      { return fmt.Sprintf("(-%s)", u.inner) }

// CmpOp is a comparison operator resolved from its SQL spelling once, at
// compile time: bit 0 set means it holds when the left operand orders
// before the right, bit 1 when they are equal, bit 2 when after.
type CmpOp uint8

// The comparison operators.
const (
	CmpLT CmpOp = 1
	CmpEQ CmpOp = 2
	CmpLE CmpOp = 3
	CmpGT CmpOp = 4
	CmpNE CmpOp = 5
	CmpGE CmpOp = 6
)

var cmpOps = map[string]CmpOp{"<": CmpLT, "=": CmpEQ, "<=": CmpLE, ">": CmpGT, "<>": CmpNE, ">=": CmpGE}

// Holds reports whether the operator accepts a three-way comparison result
// c, as sqltypes.Compare returns it (-1, 0 or 1).
func (o CmpOp) Holds(c int) bool { return o>>(c+1)&1 != 0 }

// Flip returns the operator with its operands swapped: a < b is b > a.
func (o CmpOp) Flip() CmpOp { return o&CmpEQ | o>>2&1 | o&1<<2 }

type comparison struct {
	op          CmpOp
	sym         string // the SQL spelling, for String
	left, right Expr
}

func (c *comparison) Eval(row sqltypes.Row) (sqltypes.Datum, error) {
	l, err := c.left.Eval(row)
	if err != nil {
		return sqltypes.NullDatum, err
	}
	r, err := c.right.Eval(row)
	if err != nil {
		return sqltypes.NullDatum, err
	}
	if l.IsNull() || r.IsNull() {
		return sqltypes.NullDatum, nil // SQL unknown
	}
	cmp, err := sqltypes.Compare(l, r)
	if err != nil {
		return sqltypes.NullDatum, err
	}
	return sqltypes.NewBool(c.op.Holds(cmp)), nil
}

func (c *comparison) Type() sqltypes.Type { return sqltypes.Bool }
func (c *comparison) String() string      { return fmt.Sprintf("%s %s %s", c.left, c.sym, c.right) }

func newComparison(sym string, l, r Expr) (*comparison, error) {
	op, ok := cmpOps[sym]
	if !ok {
		return nil, fmt.Errorf("unknown comparison %q", sym)
	}
	return &comparison{op: op, sym: sym, left: l, right: r}, nil
}

// ColConst is the predicate `column op constant`.
type ColConst struct {
	Col int
	Op  CmpOp
	Val sqltypes.Datum
}

// ColConstConjuncts decomposes a predicate that is a comparison of a column
// with a constant, in either order, or an AND of such predicates, into its
// comparisons, all oriented column-first. ok is false for any other
// predicate.
func ColConstConjuncts(e Expr) (out []ColConst, ok bool) {
	switch x := e.(type) {
	case *andExpr:
		l, ok := ColConstConjuncts(x.left)
		if !ok {
			return nil, false
		}
		r, ok := ColConstConjuncts(x.right)
		return append(l, r...), ok
	case *comparison:
		col, lc := x.left.(*Col)
		k, rk := x.right.(*Const)
		if lc && rk {
			return []ColConst{{Col: col.Idx, Op: x.op, Val: k.Val}}, true
		}
		col, rc := x.right.(*Col)
		k, lk := x.left.(*Const)
		if rc && lk {
			return []ColConst{{Col: col.Idx, Op: x.op.Flip(), Val: k.Val}}, true
		}
	}
	return nil, false
}

type andExpr struct{ left, right Expr }

func (a *andExpr) Eval(row sqltypes.Row) (sqltypes.Datum, error) {
	l, err := a.left.Eval(row)
	if err != nil {
		return sqltypes.NullDatum, err
	}
	if !l.IsNull() && !l.Bool() {
		return sqltypes.NewBool(false), nil // false AND x = false
	}
	r, err := a.right.Eval(row)
	if err != nil {
		return sqltypes.NullDatum, err
	}
	if !r.IsNull() && !r.Bool() {
		return sqltypes.NewBool(false), nil
	}
	if l.IsNull() || r.IsNull() {
		return sqltypes.NullDatum, nil
	}
	return sqltypes.NewBool(true), nil
}

func (a *andExpr) Type() sqltypes.Type { return sqltypes.Bool }
func (a *andExpr) String() string      { return fmt.Sprintf("(%s AND %s)", a.left, a.right) }

type orExpr struct{ left, right Expr }

func (o *orExpr) Eval(row sqltypes.Row) (sqltypes.Datum, error) {
	l, err := o.left.Eval(row)
	if err != nil {
		return sqltypes.NullDatum, err
	}
	if !l.IsNull() && l.Bool() {
		return sqltypes.NewBool(true), nil // true OR x = true
	}
	r, err := o.right.Eval(row)
	if err != nil {
		return sqltypes.NullDatum, err
	}
	if !r.IsNull() && r.Bool() {
		return sqltypes.NewBool(true), nil
	}
	if l.IsNull() || r.IsNull() {
		return sqltypes.NullDatum, nil
	}
	return sqltypes.NewBool(false), nil
}

func (o *orExpr) Type() sqltypes.Type { return sqltypes.Bool }
func (o *orExpr) String() string      { return fmt.Sprintf("(%s OR %s)", o.left, o.right) }

type notExpr struct{ inner Expr }

func (n *notExpr) Eval(row sqltypes.Row) (sqltypes.Datum, error) {
	v, err := n.inner.Eval(row)
	if err != nil {
		return sqltypes.NullDatum, err
	}
	if v.IsNull() {
		return sqltypes.NullDatum, nil
	}
	return sqltypes.NewBool(!v.Bool()), nil
}

func (n *notExpr) Type() sqltypes.Type { return sqltypes.Bool }
func (n *notExpr) String() string      { return fmt.Sprintf("(NOT %s)", n.inner) }

type inExpr struct {
	left    Expr
	list    []Expr
	negated bool
}

func (e *inExpr) Eval(row sqltypes.Row) (sqltypes.Datum, error) {
	l, err := e.left.Eval(row)
	if err != nil {
		return sqltypes.NullDatum, err
	}
	if l.IsNull() {
		return sqltypes.NullDatum, nil
	}
	sawNull := false
	for _, item := range e.list {
		v, err := item.Eval(row)
		if err != nil {
			return sqltypes.NullDatum, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		cmp, err := sqltypes.Compare(l, v)
		if err != nil {
			return sqltypes.NullDatum, err
		}
		if cmp == 0 {
			return sqltypes.NewBool(!e.negated), nil
		}
	}
	if sawNull {
		return sqltypes.NullDatum, nil // x IN (…, NULL) is unknown when no match
	}
	return sqltypes.NewBool(e.negated), nil
}

func (e *inExpr) Type() sqltypes.Type { return sqltypes.Bool }

func (e *inExpr) String() string {
	parts := make([]string, len(e.list))
	for i, x := range e.list {
		parts[i] = x.String()
	}
	not := ""
	if e.negated {
		not = "NOT "
	}
	return fmt.Sprintf("%s %sIN (%s)", e.left, not, strings.Join(parts, ", "))
}

type isNullExpr struct {
	inner   Expr
	negated bool
}

func (e *isNullExpr) Eval(row sqltypes.Row) (sqltypes.Datum, error) {
	v, err := e.inner.Eval(row)
	if err != nil {
		return sqltypes.NullDatum, err
	}
	return sqltypes.NewBool(v.IsNull() != e.negated), nil
}

func (e *isNullExpr) Type() sqltypes.Type { return sqltypes.Bool }
func (e *isNullExpr) String() string {
	if e.negated {
		return e.inner.String() + " IS NOT NULL"
	}
	return e.inner.String() + " IS NULL"
}

type caseExpr struct {
	whens []compiledWhen
	els   Expr
	typ   sqltypes.Type
}

type compiledWhen struct {
	cond Expr
	then Expr
}

func (e *caseExpr) Eval(row sqltypes.Row) (sqltypes.Datum, error) {
	then := e.els
	for _, w := range e.whens {
		c, err := w.cond.Eval(row)
		if err != nil {
			return sqltypes.NullDatum, err
		}
		if !c.IsNull() && c.Bool() {
			then = w.then
			break
		}
	}
	if then == nil {
		return sqltypes.NullDatum, nil
	}
	d, err := then.Eval(row)
	return asType(d, e.typ), err
}

func (e *caseExpr) Type() sqltypes.Type { return e.typ }

// widen folds the type of one of a CASE's branches or COALESCE's arguments
// into the expression's type: the first typed one sets it, and INTEGER and
// FLOAT together make it FLOAT.
func widen(typ, t sqltypes.Type) sqltypes.Type {
	if typ == sqltypes.Null || typ == sqltypes.Int && t == sqltypes.Float {
		return t
	}
	return typ
}

// asType answers d, an INTEGER as FLOAT when widen made typ FLOAT.
func asType(d sqltypes.Datum, typ sqltypes.Type) sqltypes.Datum {
	if typ == sqltypes.Float && d.Typ() == sqltypes.Int {
		return sqltypes.NewFloat(d.Float())
	}
	return d
}

func (e *caseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range e.whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.cond, w.then)
	}
	if e.els != nil {
		fmt.Fprintf(&b, " ELSE %s", e.els)
	}
	b.WriteString(" END")
	return b.String()
}

type scalarFunc struct {
	name string
	args []Expr
	eval func(args []sqltypes.Datum) (sqltypes.Datum, error)
	typ  sqltypes.Type
}

func (f *scalarFunc) Eval(row sqltypes.Row) (sqltypes.Datum, error) {
	vals := make([]sqltypes.Datum, len(f.args))
	for i, a := range f.args {
		v, err := a.Eval(row)
		if err != nil {
			return sqltypes.NullDatum, err
		}
		vals[i] = v
	}
	return f.eval(vals)
}

func (f *scalarFunc) Type() sqltypes.Type { return f.typ }

func (f *scalarFunc) String() string {
	parts := make([]string, len(f.args))
	for i, a := range f.args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.name, strings.Join(parts, ", "))
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

// AggregateNames lists the aggregation functions of the paper.
var AggregateNames = map[string]bool{
	"SUM": true, "COUNT": true, "AVG": true, "MIN": true, "MAX": true,
}

// IsAggregate reports whether the AST expression is a bare aggregate call
// (not a window expression).
func IsAggregate(e sqlparser.Expr) bool {
	fn, ok := e.(*sqlparser.FuncExpr)
	return ok && AggregateNames[fn.Name]
}

// Compile lowers an AST expression to an evaluable one against the schema.
func Compile(e sqlparser.Expr, schema *Schema) (Expr, error) {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		idx, err := schema.Resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		return &Col{Idx: idx, name: x.String(), typ: schema.Cols[idx].Type}, nil
	case *sqlparser.Literal:
		return &Const{Val: x.Val}, nil
	case *sqlparser.BinaryExpr:
		l, err := Compile(x.Left, schema)
		if err != nil {
			return nil, err
		}
		r, err := Compile(x.Right, schema)
		if err != nil {
			return nil, err
		}
		return &binary{op: x.Op, left: l, right: r}, nil
	case *sqlparser.UnaryExpr:
		inner, err := Compile(x.Expr, schema)
		if err != nil {
			return nil, err
		}
		return &unaryMinus{inner: inner}, nil
	case *sqlparser.ComparisonExpr:
		l, err := Compile(x.Left, schema)
		if err != nil {
			return nil, err
		}
		r, err := Compile(x.Right, schema)
		if err != nil {
			return nil, err
		}
		return newComparison(x.Op, l, r)
	case *sqlparser.AndExpr:
		l, err := Compile(x.Left, schema)
		if err != nil {
			return nil, err
		}
		r, err := Compile(x.Right, schema)
		if err != nil {
			return nil, err
		}
		return &andExpr{left: l, right: r}, nil
	case *sqlparser.OrExpr:
		l, err := Compile(x.Left, schema)
		if err != nil {
			return nil, err
		}
		r, err := Compile(x.Right, schema)
		if err != nil {
			return nil, err
		}
		return &orExpr{left: l, right: r}, nil
	case *sqlparser.NotExpr:
		inner, err := Compile(x.Expr, schema)
		if err != nil {
			return nil, err
		}
		return &notExpr{inner: inner}, nil
	case *sqlparser.InExpr:
		l, err := Compile(x.Left, schema)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(x.List))
		for i, item := range x.List {
			c, err := Compile(item, schema)
			if err != nil {
				return nil, err
			}
			list[i] = c
		}
		return &inExpr{left: l, list: list, negated: x.Negated}, nil
	case *sqlparser.BetweenExpr:
		// a BETWEEN x AND y desugars to a >= x AND a <= y.
		v, err := Compile(x.Expr, schema)
		if err != nil {
			return nil, err
		}
		lo, err := Compile(x.From, schema)
		if err != nil {
			return nil, err
		}
		hi, err := Compile(x.To, schema)
		if err != nil {
			return nil, err
		}
		var out Expr = &andExpr{
			left:  &comparison{op: CmpGE, sym: ">=", left: v, right: lo},
			right: &comparison{op: CmpLE, sym: "<=", left: v, right: hi},
		}
		if x.Negated {
			out = &notExpr{inner: out}
		}
		return out, nil
	case *sqlparser.IsNullExpr:
		inner, err := Compile(x.Expr, schema)
		if err != nil {
			return nil, err
		}
		return &isNullExpr{inner: inner, negated: x.Negated}, nil
	case *sqlparser.CaseExpr:
		out := &caseExpr{typ: sqltypes.Null}
		for _, w := range x.Whens {
			cond, err := Compile(w.Cond, schema)
			if err != nil {
				return nil, err
			}
			then, err := Compile(w.Then, schema)
			if err != nil {
				return nil, err
			}
			out.typ = widen(out.typ, then.Type())
			out.whens = append(out.whens, compiledWhen{cond: cond, then: then})
		}
		if x.Else != nil {
			els, err := Compile(x.Else, schema)
			if err != nil {
				return nil, err
			}
			out.typ = widen(out.typ, els.Type())
			out.els = els
		}
		return out, nil
	case *sqlparser.FuncExpr:
		if AggregateNames[x.Name] {
			return nil, fmt.Errorf("aggregate %s() not allowed here", x.Name)
		}
		return compileScalarFunc(x, schema)
	case *sqlparser.WindowExpr:
		return nil, fmt.Errorf("window expression %s not allowed here (must be planned)", x)
	default:
		return nil, fmt.Errorf("cannot compile expression %T (%v)", e, e)
	}
}

func compileScalarFunc(x *sqlparser.FuncExpr, schema *Schema) (Expr, error) {
	args := make([]Expr, len(x.Args))
	for i, a := range x.Args {
		c, err := Compile(a, schema)
		if err != nil {
			return nil, err
		}
		args[i] = c
	}
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s() takes %d argument(s), got %d", x.Name, n, len(args))
		}
		return nil
	}
	switch x.Name {
	case "MOD":
		if err := arity(2); err != nil {
			return nil, err
		}
		return &scalarFunc{name: "MOD", args: args, typ: sqltypes.Int,
			eval: func(v []sqltypes.Datum) (sqltypes.Datum, error) {
				return sqltypes.Mod(v[0], v[1])
			}}, nil
	case "ABS":
		if err := arity(1); err != nil {
			return nil, err
		}
		return &scalarFunc{name: "ABS", args: args, typ: args[0].Type(),
			eval: func(v []sqltypes.Datum) (sqltypes.Datum, error) {
				return sqltypes.Abs(v[0])
			}}, nil
	case "COALESCE":
		if len(args) == 0 {
			return nil, fmt.Errorf("COALESCE() needs at least one argument")
		}
		typ := sqltypes.Null
		for _, a := range args {
			typ = widen(typ, a.Type())
		}
		return &scalarFunc{name: "COALESCE", args: args, typ: typ,
			eval: func(v []sqltypes.Datum) (sqltypes.Datum, error) {
				for _, d := range v {
					if !d.IsNull() {
						return asType(d, typ), nil
					}
				}
				return sqltypes.NullDatum, nil
			}}, nil
	case "FLOOR", "CEIL":
		if err := arity(1); err != nil {
			return nil, err
		}
		name := x.Name
		return &scalarFunc{name: name, args: args, typ: sqltypes.Int,
			eval: func(v []sqltypes.Datum) (sqltypes.Datum, error) {
				if v[0].IsNull() {
					return sqltypes.NullDatum, nil
				}
				if !v[0].Typ().Numeric() {
					return sqltypes.NullDatum, fmt.Errorf("%s() needs a numeric argument", name)
				}
				f := v[0].Float()
				if name == "FLOOR" {
					return sqltypes.NewInt(int64(math.Floor(f))), nil
				}
				return sqltypes.NewInt(int64(math.Ceil(f))), nil
			}}, nil
	case "LEAST", "GREATEST":
		if len(args) < 1 {
			return nil, fmt.Errorf("%s() needs at least one argument", x.Name)
		}
		name := x.Name
		return &scalarFunc{name: name, args: args, typ: args[0].Type(),
			eval: func(v []sqltypes.Datum) (sqltypes.Datum, error) {
				best := sqltypes.NullDatum
				for _, d := range v {
					if d.IsNull() {
						return sqltypes.NullDatum, nil
					}
					if best.IsNull() {
						best = d
						continue
					}
					cmp, err := sqltypes.Compare(d, best)
					if err != nil {
						return sqltypes.NullDatum, err
					}
					if (name == "LEAST" && cmp < 0) || (name == "GREATEST" && cmp > 0) {
						best = d
					}
				}
				return best, nil
			}}, nil
	case "MONTH", "YEAR", "DAY":
		if err := arity(1); err != nil {
			return nil, err
		}
		name := x.Name
		return &scalarFunc{name: name, args: args, typ: sqltypes.Int,
			eval: func(v []sqltypes.Datum) (sqltypes.Datum, error) {
				if v[0].IsNull() {
					return sqltypes.NullDatum, nil
				}
				if v[0].Typ() != sqltypes.Date {
					return sqltypes.NullDatum, fmt.Errorf("%s() needs a DATE argument", name)
				}
				t := v[0].Time()
				switch name {
				case "MONTH":
					return sqltypes.NewInt(int64(t.Month())), nil
				case "YEAR":
					return sqltypes.NewInt(int64(t.Year())), nil
				default:
					return sqltypes.NewInt(int64(t.Day())), nil
				}
			}}, nil
	default:
		return nil, fmt.Errorf("unknown function %s()", x.Name)
	}
}

// Truthy reports whether a filter predicate accepts the row: SQL's WHERE
// keeps rows whose predicate is true (not false, not unknown).
func Truthy(d sqltypes.Datum) bool {
	return !d.IsNull() && d.Typ() == sqltypes.Bool && d.Bool()
}
