// Package sqltypes implements the value system shared by every layer of the
// rfview engine: the storage layer stores Datums, the expression evaluator
// computes over Datums, and query results are rows of Datums.
//
// The type lattice is deliberately small — NULL, BOOL, INT (int64),
// FLOAT (float64), STRING, and DATE (days since 1970-01-01) — which covers
// everything the paper's workloads (sequence tables and the credit-card
// warehouse schema) need.
package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Type identifies the runtime type of a Datum.
type Type uint8

// The supported runtime types.
const (
	Null Type = iota
	Bool
	Int
	Float
	String
	Date
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Null:
		return "NULL"
	case Bool:
		return "BOOLEAN"
	case Int:
		return "INTEGER"
	case Float:
		return "FLOAT"
	case String:
		return "VARCHAR"
	case Date:
		return "DATE"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Numeric reports whether the type supports arithmetic.
func (t Type) Numeric() bool { return t == Int || t == Float }

// Datum is a single SQL value. The zero value is SQL NULL. It is four
// machine words, the most Go stores inline (a fifth makes each store into a
// slab or row a runtime.wbMove call), so a FLOAT keeps its IEEE-754 bits in
// the INTEGER word: Go == compares a FLOAT by its bits (-0.0 != +0.0) and
// tells 1 from 1.0; Compare and Equal compare numerically, and Key is the
// datum a map keys by.
type Datum struct {
	typ Type
	i   int64  // Bool (0/1), Int, Date (days since epoch), Float (IEEE bits)
	s   string // String
}

// NullDatum is the SQL NULL value.
var NullDatum = Datum{}

// NewInt returns an INTEGER datum.
func NewInt(v int64) Datum { return Datum{typ: Int, i: v} }

// NewFloat returns a FLOAT datum.
func NewFloat(v float64) Datum { return Datum{typ: Float, i: int64(math.Float64bits(v))} }

// NewNum returns an INTEGER datum for an int64 and a FLOAT one for a
// float64: a value in the SQL type of its Go type.
func NewNum[T int64 | float64](v T) Datum {
	if f, ok := any(v).(float64); ok {
		return NewFloat(f)
	}
	return NewInt(int64(v))
}

// AsNum returns a numeric datum's value as a T: an INTEGER's payload, or a
// FLOAT's converted (truncated toward zero into an int64).
func AsNum[T int64 | float64](d Datum) T {
	if d.typ == Int {
		return T(d.i)
	}
	return T(d.Float())
}

// NewString returns a VARCHAR datum.
func NewString(v string) Datum { return Datum{typ: String, s: v} }

// NewBool returns a BOOLEAN datum.
func NewBool(v bool) Datum {
	var i int64
	if v {
		i = 1
	}
	return Datum{typ: Bool, i: i}
}

// NewDate returns a DATE datum from days since the Unix epoch.
func NewDate(daysSinceEpoch int64) Datum { return Datum{typ: Date, i: daysSinceEpoch} }

// NewDateFromTime returns a DATE datum from the calendar day of t (UTC).
func NewDateFromTime(t time.Time) Datum {
	t = t.UTC()
	days := t.Unix() / 86400
	if t.Unix() < 0 && t.Unix()%86400 != 0 {
		days--
	}
	return NewDate(days)
}

// ParseDate parses "YYYY-MM-DD" into a DATE datum.
func ParseDate(s string) (Datum, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return NullDatum, fmt.Errorf("invalid DATE literal %q: %w", s, err)
	}
	return NewDateFromTime(t), nil
}

// Typ returns the runtime type of the datum.
func (d Datum) Typ() Type { return d.typ }

// IsNull reports whether the datum is SQL NULL.
func (d Datum) IsNull() bool { return d.typ == Null }

// Int returns the int64 payload. Valid for Int and Date datums.
func (d Datum) Int() int64 { return d.i }

// Float returns the float64 payload for Float datums, the converted
// integer payload for Int datums, and 0 otherwise.
func (d Datum) Float() float64 {
	switch d.typ {
	case Int:
		return float64(d.i)
	case Float:
		return math.Float64frombits(uint64(d.i))
	}
	return 0
}

// Str returns the string payload. Valid for String datums.
func (d Datum) Str() string { return d.s }

// Bool returns the boolean payload. Valid for Bool datums.
func (d Datum) Bool() bool { return d.i != 0 }

// Time returns the DATE payload as a time.Time at UTC midnight.
func (d Datum) Time() time.Time {
	return time.Unix(d.i*86400, 0).UTC()
}

// String renders the datum the way the rfsql shell prints it.
func (d Datum) String() string {
	switch d.typ {
	case Null:
		return "NULL"
	case Bool:
		if d.i != 0 {
			return "true"
		}
		return "false"
	case Int:
		return strconv.FormatInt(d.i, 10)
	case Float:
		return strconv.FormatFloat(d.Float(), 'g', -1, 64)
	case String:
		return d.s
	case Date:
		return d.Time().Format("2006-01-02")
	default:
		return fmt.Sprintf("<bad datum %d>", d.typ)
	}
}

// ErrTypeMismatch is returned when an operation receives operands of
// incompatible types.
type ErrTypeMismatch struct {
	Op    string
	Left  Type
	Right Type
}

func (e *ErrTypeMismatch) Error() string {
	return fmt.Sprintf("type mismatch: %s not defined for (%s, %s)", e.Op, e.Left, e.Right)
}

func mismatch(op string, a, b Datum) error {
	return &ErrTypeMismatch{Op: op, Left: a.typ, Right: b.typ}
}

// Compare orders two datums totally. NULL sorts before every non-NULL value
// (the convention used by the sort operator; comparison *predicates*
// involving NULL are handled at the expression layer and never reach here).
// Numbers take one order whatever their type, PostgreSQL's: -0.0 equals
// +0.0, a NaN equals every NaN and sorts above every other number, and an
// INTEGER compares with a FLOAT exactly — by its float64 image, then by what
// the rounding to it lost (Residual). Any other pair of types is an error.
func Compare(a, b Datum) (int, error) {
	if a.typ == Null || b.typ == Null {
		switch {
		case a.typ == Null && b.typ == Null:
			return 0, nil
		case a.typ == Null:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.typ.Numeric() && b.typ.Numeric() {
		if a.typ == Int && b.typ == Int {
			return Order(a.i, b.i), nil
		}
		if c := Order(a.Float(), b.Float()); c != 0 || a.typ == b.typ {
			return c, nil
		}
		return Order(a.Residual(), b.Residual()), nil
	}
	if a.typ != b.typ {
		return 0, mismatch("compare", a, b)
	}
	switch a.typ {
	case Bool, Date:
		return Order(a.i, b.i), nil
	case String:
		return Order(a.s, b.s), nil
	}
	return 0, mismatch("compare", a, b)
}

// Order is Compare over the payloads of one type: the usual order of
// integers and strings, and for floats the total one — -0.0 ties +0.0, and
// a NaN ties every NaN and sorts above every number.
func Order[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b || a != a && b != b:
		return 0
	case a != a:
		return 1 // a NaN sorts above every number
	}
	return -1
}

// Residual is what an INTEGER loses on its conversion to FLOAT, exactly:
// i − float64(i), zero whenever |i| ≤ 2⁵³. A FLOAT's residual is zero, so
// the pair (Float(), Residual()) orders the numbers of both types as Compare
// does.
func (d Datum) Residual() int64 {
	if d.typ != Int {
		return 0
	}
	if f := float64(d.i); f < 1<<63 {
		return d.i - int64(f)
	}
	return d.i - math.MaxInt64 - 1 // the image is 2⁶³, which int64 cannot hold
}

// Add returns a+b with SQL NULL propagation and Int/Float promotion.
func Add(a, b Datum) (Datum, error) { return arith("+", a, b) }

// Sub returns a-b with SQL NULL propagation and Int/Float promotion.
func Sub(a, b Datum) (Datum, error) { return arith("-", a, b) }

// Mul returns a*b with SQL NULL propagation and Int/Float promotion.
func Mul(a, b Datum) (Datum, error) { return arith("*", a, b) }

// Div returns a/b. Integer division truncates toward zero, as in DB2.
// Division by zero returns an error.
func Div(a, b Datum) (Datum, error) { return arith("/", a, b) }

// Mod returns MOD(a, b) for integer operands; the result takes the sign of
// the dividend, matching SQL MOD semantics.
func Mod(a, b Datum) (Datum, error) {
	if a.IsNull() || b.IsNull() {
		return NullDatum, nil
	}
	if a.typ != Int || b.typ != Int {
		return NullDatum, mismatch("MOD", a, b)
	}
	if b.i == 0 {
		return NullDatum, fmt.Errorf("MOD by zero")
	}
	return NewInt(a.i % b.i), nil
}

func arith(op string, a, b Datum) (Datum, error) {
	if a.IsNull() || b.IsNull() {
		return NullDatum, nil
	}
	if !a.typ.Numeric() || !b.typ.Numeric() {
		return NullDatum, mismatch(op, a, b)
	}
	if a.typ == Int && b.typ == Int {
		switch op {
		case "+":
			return NewInt(a.i + b.i), nil
		case "-":
			return NewInt(a.i - b.i), nil
		case "*":
			return NewInt(a.i * b.i), nil
		case "/":
			if b.i == 0 {
				return NullDatum, fmt.Errorf("division by zero")
			}
			return NewInt(a.i / b.i), nil
		}
	}
	x, y := a.Float(), b.Float()
	switch op {
	case "+":
		return NewFloat(x + y), nil
	case "-":
		return NewFloat(x - y), nil
	case "*":
		return NewFloat(x * y), nil
	case "/":
		if y == 0 {
			return NullDatum, fmt.Errorf("division by zero")
		}
		return NewFloat(x / y), nil
	}
	return NullDatum, fmt.Errorf("unknown arithmetic op %q", op)
}

// Neg returns -a for numeric a.
func Neg(a Datum) (Datum, error) {
	switch a.typ {
	case Null:
		return NullDatum, nil
	case Int:
		return NewInt(-a.i), nil
	case Float:
		return NewFloat(-a.Float()), nil
	default:
		return NullDatum, fmt.Errorf("unary minus not defined for %s", a.typ)
	}
}

// Abs returns |a| for numeric a.
func Abs(a Datum) (Datum, error) {
	switch a.typ {
	case Null:
		return NullDatum, nil
	case Int:
		if a.i < 0 {
			return NewInt(-a.i), nil
		}
		return a, nil
	case Float:
		return NewFloat(math.Abs(a.Float())), nil
	default:
		return NullDatum, fmt.Errorf("ABS not defined for %s", a.typ)
	}
}

// Hash returns a 64-bit hash of the datum, used by hash joins and hash
// aggregation. Equal datums hash equally: a number hashes the order word of
// its float64 image, which 1 and 1.0 share, as do -0.0 and +0.0 and every
// NaN.
func (d Datum) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	switch d.typ {
	case Null:
		mix(0)
	case Bool, Date:
		mix(byte(d.typ))
		v := uint64(d.i)
		for s := 0; s < 64; s += 8 {
			mix(byte(v >> s))
		}
	case Int, Float:
		v := OrderWordFloat(d.Float())
		mix(1)
		for s := 0; s < 64; s += 8 {
			mix(byte(v >> s))
		}
	case String:
		mix(byte(String))
		for i := 0; i < len(d.s); i++ {
			mix(d.s[i])
		}
	}
	return h
}

// canonicalNaN is the bits of the one NaN every NaN keys as.
var canonicalNaN = int64(math.Float64bits(math.NaN()))

// Key returns the datum that stands for d's class under Equal: Go's == on
// keys — and so a map keyed by them — is Equal on the datums. A FLOAT
// holding an integer in int64's range keys as that INTEGER (-0.0 as 0), and
// every NaN as one NaN; every other datum is its own key.
func (d Datum) Key() Datum {
	if d.typ != Float {
		return d
	}
	switch f := d.Float(); {
	case f != f:
		return Datum{typ: Float, i: canonicalNaN}
	case f >= -1<<63 && f < 1<<63 && f == math.Trunc(f):
		return NewInt(int64(f))
	}
	return d
}

// Equal reports whether two datums are identical for grouping purposes
// (NULL equals NULL here; this is GROUP BY equality, not predicate equality).
func Equal(a, b Datum) bool {
	if a.typ == Null || b.typ == Null {
		return a.typ == Null && b.typ == Null
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Cast converts d to the target type, following DB2-style rules for the
// small lattice we support.
func Cast(d Datum, to Type) (Datum, error) {
	if d.typ == Null || d.typ == to { // every NULL datum is the zero value
		return d, nil
	}
	switch to {
	case Int:
		switch d.typ {
		case Float:
			return NewInt(int64(d.Float())), nil
		case Bool:
			return NewInt(d.i), nil
		case String:
			v, err := strconv.ParseInt(d.s, 10, 64)
			if err != nil {
				return NullDatum, fmt.Errorf("cannot cast %q to INTEGER", d.s)
			}
			return NewInt(v), nil
		}
	case Float:
		switch d.typ {
		case Int:
			return NewFloat(float64(d.i)), nil
		case String:
			v, err := strconv.ParseFloat(d.s, 64)
			if err != nil {
				return NullDatum, fmt.Errorf("cannot cast %q to FLOAT", d.s)
			}
			return NewFloat(v), nil
		}
	case String:
		return NewString(d.String()), nil
	case Date:
		if d.typ == String {
			return ParseDate(d.s)
		}
		if d.typ == Int {
			return NewDate(d.i), nil
		}
	case Bool:
		if d.typ == Int {
			return NewBool(d.i != 0), nil
		}
	}
	return NullDatum, fmt.Errorf("cannot cast %s to %s", d.typ, to)
}

// Row is a tuple of datums.
type Row []Datum

// Clone returns a deep copy of the row (datums are values, so a slice copy
// suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row for debugging.
func (r Row) String() string {
	s := "("
	for i, d := range r {
		if i > 0 {
			s += ", "
		}
		s += d.String()
	}
	return s + ")"
}
