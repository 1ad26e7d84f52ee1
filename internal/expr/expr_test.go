package expr

import (
	"math"
	"testing"

	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
)

func testSchema() *Schema {
	return NewSchema(
		ColInfo{Table: "t", Name: "a", Type: sqltypes.Int},
		ColInfo{Table: "t", Name: "b", Type: sqltypes.Int},
		ColInfo{Table: "u", Name: "c", Type: sqltypes.Float},
		ColInfo{Table: "u", Name: "d", Type: sqltypes.String},
		ColInfo{Table: "u", Name: "e", Type: sqltypes.Date},
	)
}

func compile(t *testing.T, src string) Expr {
	t.Helper()
	ast, err := sqlparser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	e, err := Compile(ast, testSchema())
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return e
}

func evalOn(t *testing.T, src string, row sqltypes.Row) sqltypes.Datum {
	t.Helper()
	v, err := compile(t, src).Eval(row)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func row(a, b int64) sqltypes.Row {
	d, _ := sqltypes.ParseDate("2001-06-15")
	return sqltypes.Row{
		sqltypes.NewInt(a), sqltypes.NewInt(b),
		sqltypes.NewFloat(1.5), sqltypes.NewString("xyz"), d,
	}
}

func TestCompileColumnResolution(t *testing.T) {
	if v := evalOn(t, "a", row(7, 8)); v.Int() != 7 {
		t.Fatalf("a = %v", v)
	}
	if v := evalOn(t, "t.b", row(7, 8)); v.Int() != 8 {
		t.Fatalf("t.b = %v", v)
	}
	ast, _ := sqlparser.ParseExpr("nope")
	if _, err := Compile(ast, testSchema()); err == nil {
		t.Fatal("unknown column must fail")
	}
	ast, _ = sqlparser.ParseExpr("x.a")
	if _, err := Compile(ast, testSchema()); err == nil {
		t.Fatal("unknown qualifier must fail")
	}
	// Ambiguity.
	amb := NewSchema(
		ColInfo{Table: "t1", Name: "k", Type: sqltypes.Int},
		ColInfo{Table: "t2", Name: "k", Type: sqltypes.Int},
	)
	ast, _ = sqlparser.ParseExpr("k")
	if _, err := Compile(ast, amb); err == nil {
		t.Fatal("ambiguous column must fail")
	}
	ast, _ = sqlparser.ParseExpr("t1.k")
	if _, err := Compile(ast, amb); err != nil {
		t.Fatalf("qualified reference must resolve: %v", err)
	}
}

func TestArithmeticAndComparisons(t *testing.T) {
	if v := evalOn(t, "a + b * 2", row(3, 4)); v.Int() != 11 {
		t.Fatalf("a+b*2 = %v", v)
	}
	if v := evalOn(t, "-a", row(3, 4)); v.Int() != -3 {
		t.Fatalf("-a = %v", v)
	}
	if v := evalOn(t, "a < b", row(3, 4)); !v.Bool() {
		t.Fatalf("a<b = %v", v)
	}
	if v := evalOn(t, "a <> b", row(3, 3)); v.Bool() {
		t.Fatalf("a<>b = %v", v)
	}
	if v := evalOn(t, "a >= 3 AND b <= 4", row(3, 4)); !v.Bool() {
		t.Fatalf("and = %v", v)
	}
	if v := evalOn(t, "a = 9 OR b = 4", row(3, 4)); !v.Bool() {
		t.Fatalf("or = %v", v)
	}
	if v := evalOn(t, "NOT a = 9", row(3, 4)); !v.Bool() {
		t.Fatalf("not = %v", v)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	nullRow := sqltypes.Row{sqltypes.NullDatum, sqltypes.NewInt(1),
		sqltypes.NewFloat(0), sqltypes.NewString(""), sqltypes.NullDatum}
	// Comparison with NULL is unknown.
	if v := evalOn(t, "a = 1", nullRow); !v.IsNull() {
		t.Fatalf("NULL = 1 -> %v", v)
	}
	// false AND unknown = false; true OR unknown = true.
	if v := evalOn(t, "b = 2 AND a = 1", nullRow); v.IsNull() || v.Bool() {
		t.Fatalf("false AND unknown = %v", v)
	}
	if v := evalOn(t, "b = 1 OR a = 1", nullRow); v.IsNull() || !v.Bool() {
		t.Fatalf("true OR unknown = %v", v)
	}
	// true AND unknown = unknown; false OR unknown = unknown.
	if v := evalOn(t, "b = 1 AND a = 1", nullRow); !v.IsNull() {
		t.Fatalf("true AND unknown = %v", v)
	}
	if v := evalOn(t, "b = 2 OR a = 1", nullRow); !v.IsNull() {
		t.Fatalf("false OR unknown = %v", v)
	}
	// NOT unknown = unknown.
	if v := evalOn(t, "NOT a = 1", nullRow); !v.IsNull() {
		t.Fatalf("NOT unknown = %v", v)
	}
	// IS NULL / IS NOT NULL are never unknown.
	if v := evalOn(t, "a IS NULL", nullRow); !v.Bool() {
		t.Fatalf("IS NULL = %v", v)
	}
	if v := evalOn(t, "b IS NOT NULL", nullRow); !v.Bool() {
		t.Fatalf("IS NOT NULL = %v", v)
	}
	if !Truthy(sqltypes.NewBool(true)) || Truthy(sqltypes.NullDatum) || Truthy(sqltypes.NewBool(false)) {
		t.Fatal("Truthy misclassifies")
	}
}

func TestInAndBetween(t *testing.T) {
	if v := evalOn(t, "a IN (1, 3, 5)", row(3, 0)); !v.Bool() {
		t.Fatalf("IN = %v", v)
	}
	if v := evalOn(t, "a IN (1, 5)", row(3, 0)); v.Bool() {
		t.Fatalf("IN = %v", v)
	}
	if v := evalOn(t, "a NOT IN (1, 5)", row(3, 0)); !v.Bool() {
		t.Fatalf("NOT IN = %v", v)
	}
	// x IN (…, NULL) with no match is unknown.
	if v := evalOn(t, "a IN (1, NULL)", row(3, 0)); !v.IsNull() {
		t.Fatalf("IN with NULL = %v", v)
	}
	// … but a match wins.
	if v := evalOn(t, "a IN (3, NULL)", row(3, 0)); !v.Bool() {
		t.Fatalf("IN match with NULL = %v", v)
	}
	if v := evalOn(t, "a BETWEEN 2 AND 4", row(3, 0)); !v.Bool() {
		t.Fatalf("BETWEEN = %v", v)
	}
	if v := evalOn(t, "a NOT BETWEEN 2 AND 4", row(3, 0)); v.Bool() {
		t.Fatalf("NOT BETWEEN = %v", v)
	}
}

func TestCaseExprEval(t *testing.T) {
	src := "CASE WHEN a = 1 THEN 10 WHEN a = 2 THEN 20 ELSE 30 END"
	if v := evalOn(t, src, row(1, 0)); v.Int() != 10 {
		t.Fatalf("case = %v", v)
	}
	if v := evalOn(t, src, row(2, 0)); v.Int() != 20 {
		t.Fatalf("case = %v", v)
	}
	if v := evalOn(t, src, row(9, 0)); v.Int() != 30 {
		t.Fatalf("case = %v", v)
	}
	// No ELSE: NULL.
	if v := evalOn(t, "CASE WHEN a = 1 THEN 10 END", row(9, 0)); !v.IsNull() {
		t.Fatalf("case without else = %v", v)
	}
	// INTEGER and FLOAT branches make a FLOAT CASE, which answers FLOAT.
	if v := evalOn(t, "CASE WHEN a = 1 THEN a ELSE c END", row(1, 0)); v.Typ() != sqltypes.Float || v.Float() != 1 {
		t.Fatalf("INTEGER branch of a FLOAT case = %v:%v", v.Typ(), v)
	}
	// So do INTEGER and FLOAT arguments of COALESCE.
	if v := evalOn(t, "COALESCE(CASE WHEN a < 2 THEN a END, 0.5)", row(1, 0)); v.Typ() != sqltypes.Float || v.Float() != 1 {
		t.Fatalf("COALESCE over INTEGER and FLOAT answered %v (%v), want FLOAT 1", v, v.Typ())
	}
}

func TestScalarFunctions(t *testing.T) {
	if v := evalOn(t, "MOD(a, 4)", row(7, 0)); v.Int() != 3 {
		t.Fatalf("MOD = %v", v)
	}
	if v := evalOn(t, "ABS(a)", row(-7, 0)); v.Int() != 7 {
		t.Fatalf("ABS = %v", v)
	}
	if v := evalOn(t, "COALESCE(NULL, NULL, a)", row(5, 0)); v.Int() != 5 {
		t.Fatalf("COALESCE = %v", v)
	}
	if v := evalOn(t, "LEAST(a, b)", row(5, 3)); v.Int() != 3 {
		t.Fatalf("LEAST = %v", v)
	}
	if v := evalOn(t, "GREATEST(a, b)", row(5, 3)); v.Int() != 5 {
		t.Fatalf("GREATEST = %v", v)
	}
	if v := evalOn(t, "LEAST(a, NULL)", row(5, 3)); !v.IsNull() {
		t.Fatalf("LEAST with NULL = %v", v)
	}
	if v := evalOn(t, "FLOOR(c)", row(0, 0)); v.Int() != 1 {
		t.Fatalf("FLOOR(1.5) = %v", v)
	}
	if v := evalOn(t, "CEIL(c)", row(0, 0)); v.Int() != 2 {
		t.Fatalf("CEIL(1.5) = %v", v)
	}
	if v := evalOn(t, "MONTH(e)", row(0, 0)); v.Int() != 6 {
		t.Fatalf("MONTH = %v", v)
	}
	if v := evalOn(t, "YEAR(e)", row(0, 0)); v.Int() != 2001 {
		t.Fatalf("YEAR = %v", v)
	}
	if v := evalOn(t, "DAY(e)", row(0, 0)); v.Int() != 15 {
		t.Fatalf("DAY = %v", v)
	}
}

func TestCompileRejections(t *testing.T) {
	bad := []string{
		"SUM(a)",                   // aggregate outside aggregation
		"SUM(a) OVER (ORDER BY a)", // window outside planner
		"NOSUCHFN(a)",              // unknown function
		"MOD(a)",                   // arity
		"ABS(a, b)",                // arity
		"COALESCE()",               // arity
		"MONTH(a, b)",              // arity
	}
	for _, src := range bad {
		ast, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Compile(ast, testSchema()); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestAggAccumulators(t *testing.T) {
	cases := []struct {
		name   string
		inputs []sqltypes.Datum
		want   string
	}{
		{"SUM", []sqltypes.Datum{sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NullDatum}, "3"},
		{"SUM", []sqltypes.Datum{sqltypes.NewInt(1), sqltypes.NewFloat(0.5)}, "1.5"},
		{"COUNT", []sqltypes.Datum{sqltypes.NewInt(1), sqltypes.NullDatum, sqltypes.NewInt(2)}, "2"},
		{"AVG", []sqltypes.Datum{sqltypes.NewInt(1), sqltypes.NewInt(3)}, "2"},
		{"MIN", []sqltypes.Datum{sqltypes.NewInt(5), sqltypes.NewInt(2), sqltypes.NewInt(9)}, "2"},
		{"MAX", []sqltypes.Datum{sqltypes.NewInt(5), sqltypes.NewInt(2), sqltypes.NewInt(9)}, "9"},
		// Floats take the window's order: a NaN is greatest, −0 sorts below +0.
		{"MIN", []sqltypes.Datum{sqltypes.NewFloat(5), sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(4)}, "4"},
		{"MAX", []sqltypes.Datum{sqltypes.NewFloat(5), sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(4)}, "NaN"},
		{"MIN", []sqltypes.Datum{sqltypes.NewFloat(0), sqltypes.NewFloat(math.Copysign(0, -1))}, "-0"},
		{"MAX", []sqltypes.Datum{sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(0)}, "0"},
	}
	for _, c := range cases {
		acc, err := NewAgg(c.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range c.inputs {
			acc.Add(d)
		}
		if got := acc.Result().String(); got != c.want {
			t.Errorf("%s(%v) = %s, want %s", c.name, c.inputs, got, c.want)
		}
		acc.Reset()
		if c.name == "COUNT" {
			if acc.Result().Int() != 0 {
				t.Errorf("COUNT after reset = %v", acc.Result())
			}
		} else if !acc.Result().IsNull() {
			t.Errorf("%s after reset = %v, want NULL", c.name, acc.Result())
		}
	}
	if _, err := NewAgg("MEDIAN"); err == nil {
		t.Error("unknown aggregate must fail")
	}
}

func TestAggResultType(t *testing.T) {
	if AggResultType("COUNT", sqltypes.Float) != sqltypes.Int {
		t.Error("COUNT type")
	}
	if AggResultType("AVG", sqltypes.Int) != sqltypes.Float {
		t.Error("AVG type")
	}
	if AggResultType("SUM", sqltypes.Int) != sqltypes.Int {
		t.Error("SUM int type")
	}
	if AggResultType("SUM", sqltypes.Float) != sqltypes.Float {
		t.Error("SUM float type")
	}
	if AggResultType("MIN", sqltypes.String) != sqltypes.String {
		t.Error("MIN type")
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := testSchema()
	s2 := s.Append(ColInfo{Name: "extra", Type: sqltypes.Int})
	if len(s.Cols) == len(s2.Cols) {
		t.Fatal("Append must not mutate the receiver")
	}
	idx, err := s2.Resolve("", "extra")
	if err != nil || idx != 5 {
		t.Fatalf("Resolve(extra) = %d (%v)", idx, err)
	}
	joined := Concat(s, s)
	if len(joined.Cols) != 2*len(s.Cols) {
		t.Fatal("Concat arity")
	}
	if _, err := joined.Resolve("", "a"); err == nil {
		t.Fatal("duplicated column must be ambiguous after Concat")
	}
	if _, err := joined.Resolve("t", "a"); err == nil {
		// Both copies carry qualifier t — still ambiguous.
		t.Log("qualified resolution over duplicate schema is ambiguous (expected)")
	}
}

func TestIsAggregateHelper(t *testing.T) {
	agg, _ := sqlparser.ParseExpr("SUM(x)")
	if !IsAggregate(agg) {
		t.Error("SUM(x) is an aggregate")
	}
	fn, _ := sqlparser.ParseExpr("MOD(x, 2)")
	if IsAggregate(fn) {
		t.Error("MOD is not an aggregate")
	}
	w, _ := sqlparser.ParseExpr("SUM(x) OVER (ORDER BY x)")
	if IsAggregate(w) {
		t.Error("window expressions are not bare aggregates")
	}
}

// TestCompiledExprRendering exercises String() and Type() across node kinds
// (these feed EXPLAIN output).
func TestCompiledExprRendering(t *testing.T) {
	cases := map[string]sqltypes.Type{
		`a`:                                 sqltypes.Int,
		`42`:                                sqltypes.Int,
		`a + b`:                             sqltypes.Int,
		`a / b`:                             sqltypes.Int,
		`c * 2`:                             sqltypes.Float,
		`-a`:                                sqltypes.Int,
		`a = b`:                             sqltypes.Bool,
		`a = 1 AND b = 2`:                   sqltypes.Bool,
		`a = 1 OR b = 2`:                    sqltypes.Bool,
		`NOT a = 1`:                         sqltypes.Bool,
		`a IN (1, 2)`:                       sqltypes.Bool,
		`a IS NULL`:                         sqltypes.Bool,
		`CASE WHEN a = 1 THEN b END`:        sqltypes.Int,
		`CASE WHEN a = 1 THEN a ELSE c END`: sqltypes.Float,
		`CASE WHEN a = 1 THEN c ELSE a END`: sqltypes.Float,
		`MOD(a, 2)`:                         sqltypes.Int,
		`COALESCE(NULL, a)`:                 sqltypes.Int,
		`COALESCE(a, c)`:                    sqltypes.Float,
		`COALESCE(CASE WHEN a < 2 THEN a END, 0.5)`: sqltypes.Float,
	}
	for src, wantType := range cases {
		e := compile(t, src)
		if e.Type() != wantType {
			t.Errorf("Type(%q) = %v, want %v", src, e.Type(), wantType)
		}
		if e.String() == "" {
			t.Errorf("String(%q) is empty", src)
		}
		// Rendered text must itself parse and compile (EXPLAIN round trip).
		ast, err := sqlparser.ParseExpr(e.String())
		if err != nil {
			t.Errorf("String(%q) = %q does not reparse: %v", src, e.String(), err)
			continue
		}
		if _, err := Compile(ast, testSchema()); err != nil {
			t.Errorf("String(%q) = %q does not recompile: %v", src, e.String(), err)
		}
	}
}

// TestNewColHelper covers the operator-facing constructor.
func TestNewColHelper(t *testing.T) {
	c := NewCol(1, "t.b", sqltypes.Int)
	v, err := c.Eval(sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(9)})
	if err != nil || v.Int() != 9 {
		t.Fatalf("Eval = %v (%v)", v, err)
	}
	if c.String() != "t.b" || c.Type() != sqltypes.Int {
		t.Fatal("metadata mismatch")
	}
	if _, err := c.Eval(sqltypes.Row{sqltypes.NewInt(1)}); err == nil {
		t.Fatal("short row must error")
	}
}
