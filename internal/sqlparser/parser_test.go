package sqlparser

import (
	"strings"
	"testing"

	"rfview/internal/sqltypes"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func TestParseSimpleSelect(t *testing.T) {
	stmt := mustParse(t, "SELECT pos, val FROM seq WHERE pos > 5")
	sel, ok := stmt.(*Select)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if len(sel.Items) != 2 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	tn, ok := sel.From.(*TableName)
	if !ok || tn.Name != "seq" {
		t.Fatalf("from = %v", sel.From)
	}
	cmp, ok := sel.Where.(*ComparisonExpr)
	if !ok || cmp.Op != ">" {
		t.Fatalf("where = %v", sel.Where)
	}
}

func TestParseSelectStarAndAliases(t *testing.T) {
	sel := mustParse(t, "SELECT *, s.*, val AS v, pos p FROM seq s").(*Select)
	if !sel.Items[0].Star || sel.Items[0].Table != "" {
		t.Error("bare star misparsed")
	}
	if !sel.Items[1].Star || sel.Items[1].Table != "s" {
		t.Error("qualified star misparsed")
	}
	if sel.Items[2].Alias != "v" || sel.Items[3].Alias != "p" {
		t.Error("aliases misparsed")
	}
	tn := sel.From.(*TableName)
	if tn.Alias != "s" || tn.RefName() != "s" {
		t.Error("table alias misparsed")
	}
}

func TestParsePaperIntroQuery(t *testing.T) {
	// The introduction's credit-card query, lightly adapted to the dialect
	// (month() is a scalar function; the join is expressed in the WHERE).
	sql := `
	SELECT c_date, c_transaction,
	  SUM(c_transaction) OVER -- overall cumulative sum
	    ( ORDER BY c_date ROWS UNBOUNDED PRECEDING ) AS cum_sum_total,
	  SUM(c_transaction) OVER
	    ( PARTITION BY month(c_date) ORDER BY c_date
	      ROWS UNBOUNDED PRECEDING ) AS cum_sum_month,
	  AVG(c_transaction) OVER
	    ( PARTITION BY month(c_date), l_region ORDER BY c_date
	      ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS c_3mvg_avg,
	  AVG(c_transaction) OVER
	    ( ORDER BY c_date
	      ROWS BETWEEN CURRENT ROW AND 6 FOLLOWING) AS c_7mvg_avg
	FROM c_transactions, l_locations
	WHERE c_locid = l_locid AND c_custid = 4711`
	sel := mustParse(t, sql).(*Select)
	if len(sel.Items) != 6 {
		t.Fatalf("items = %d, want 6", len(sel.Items))
	}
	w1 := sel.Items[2].Expr.(*WindowExpr)
	if w1.Frame.Start.Type != UnboundedPreceding || w1.Frame.End.Type != CurrentRow {
		t.Errorf("cum_sum_total frame = %v", w1.Frame)
	}
	if len(w1.PartitionBy) != 0 || len(w1.OrderBy) != 1 {
		t.Error("cum_sum_total clauses misparsed")
	}
	w2 := sel.Items[3].Expr.(*WindowExpr)
	if len(w2.PartitionBy) != 1 {
		t.Error("cum_sum_month partition misparsed")
	}
	if fn, ok := w2.PartitionBy[0].(*FuncExpr); !ok || fn.Name != "MONTH" {
		t.Error("month() partition expression misparsed")
	}
	w3 := sel.Items[4].Expr.(*WindowExpr)
	if w3.Frame.Start.Type != OffsetPreceding || w3.Frame.Start.Offset != 1 ||
		w3.Frame.End.Type != OffsetFollowing || w3.Frame.End.Offset != 1 {
		t.Errorf("c_3mvg_avg frame = %v", w3.Frame)
	}
	if len(w3.PartitionBy) != 2 {
		t.Error("c_3mvg_avg partition misparsed")
	}
	w4 := sel.Items[5].Expr.(*WindowExpr)
	if w4.Frame.Start.Type != CurrentRow || w4.Frame.End.Type != OffsetFollowing || w4.Frame.End.Offset != 6 {
		t.Errorf("c_7mvg_avg frame = %v", w4.Frame)
	}
	// The comma join parses as a cross join.
	j, ok := sel.From.(*Join)
	if !ok || j.Type != CrossJoin {
		t.Fatalf("from = %v", sel.From)
	}
}

func TestParseFig2SelfJoinQuery(t *testing.T) {
	// The paper's Fig. 2 sample query.
	sql := `SELECT pos, SUM(val) OVER (ORDER BY pos
	         ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING)
	        FROM seq`
	sel := mustParse(t, sql).(*Select)
	w := sel.Items[1].Expr.(*WindowExpr)
	if w.Func.Name != "SUM" {
		t.Error("window function name misparsed")
	}
	if w.Frame.Start.Offset != 1 || w.Frame.End.Offset != 1 {
		t.Error("frame offsets misparsed")
	}
}

func TestParseJoins(t *testing.T) {
	sel := mustParse(t, `SELECT * FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y`).(*Select)
	outer, ok := sel.From.(*Join)
	if !ok || outer.Type != LeftOuterJoin {
		t.Fatalf("outer join misparsed: %v", sel.From)
	}
	inner, ok := outer.Left.(*Join)
	if !ok || inner.Type != InnerJoin {
		t.Fatalf("inner join misparsed: %v", outer.Left)
	}
	sel2 := mustParse(t, `SELECT * FROM a CROSS JOIN b`).(*Select)
	if j := sel2.From.(*Join); j.Type != CrossJoin || j.On != nil {
		t.Error("cross join misparsed")
	}
	sel3 := mustParse(t, `SELECT * FROM a INNER JOIN b ON a.x = b.x`).(*Select)
	if j := sel3.From.(*Join); j.Type != InnerJoin {
		t.Error("INNER JOIN misparsed")
	}
}

func TestParseDerivedTable(t *testing.T) {
	sel := mustParse(t, `SELECT v FROM (SELECT val AS v FROM seq) AS d WHERE v > 0`).(*Select)
	d, ok := sel.From.(*DerivedTable)
	if !ok || d.Alias != "d" {
		t.Fatalf("derived table misparsed: %v", sel.From)
	}
	// Alias without AS.
	sel2 := mustParse(t, `SELECT v FROM (SELECT val v FROM seq) d`).(*Select)
	if sel2.From.(*DerivedTable).Alias != "d" {
		t.Error("derived table alias without AS misparsed")
	}
	if _, err := Parse(`SELECT v FROM (SELECT val FROM seq)`); err == nil {
		t.Error("derived table without alias must fail")
	}
}

func TestParseCaseExpr(t *testing.T) {
	e, err := ParseExpr(`CASE WHEN s1.pos = s2.pos THEN s2.val ELSE (-1) * s2.val END`)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := e.(*CaseExpr)
	if !ok || len(c.Whens) != 1 || c.Else == nil {
		t.Fatalf("case misparsed: %v", e)
	}
	// Multiple arms, no else.
	e2, err := ParseExpr(`CASE WHEN a = 1 THEN 'x' WHEN a = 2 THEN 'y' END`)
	if err != nil {
		t.Fatal(err)
	}
	if c := e2.(*CaseExpr); len(c.Whens) != 2 || c.Else != nil {
		t.Error("multi-arm case misparsed")
	}
	if _, err := ParseExpr(`CASE END`); err == nil {
		t.Error("CASE without WHEN must fail")
	}
}

func TestParsePredicates(t *testing.T) {
	e, err := ParseExpr(`s1.pos IN (s2.pos - 1, s2.pos, s2.pos + 1)`)
	if err != nil {
		t.Fatal(err)
	}
	in := e.(*InExpr)
	if len(in.List) != 3 || in.Negated {
		t.Fatalf("IN misparsed: %v", e)
	}
	e, _ = ParseExpr(`x NOT IN (1, 2)`)
	if !e.(*InExpr).Negated {
		t.Error("NOT IN misparsed")
	}
	e, _ = ParseExpr(`x BETWEEN 1 AND 10`)
	if b := e.(*BetweenExpr); b.Negated {
		t.Error("BETWEEN misparsed")
	}
	e, _ = ParseExpr(`x NOT BETWEEN 1 AND 10`)
	if !e.(*BetweenExpr).Negated {
		t.Error("NOT BETWEEN misparsed")
	}
	e, _ = ParseExpr(`x IS NULL`)
	if e.(*IsNullExpr).Negated {
		t.Error("IS NULL misparsed")
	}
	e, _ = ParseExpr(`x IS NOT NULL`)
	if !e.(*IsNullExpr).Negated {
		t.Error("IS NOT NULL misparsed")
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := ParseExpr(`a + b * c`)
	if err != nil {
		t.Fatal(err)
	}
	add := e.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("top op = %s", add.Op)
	}
	if mul := add.Right.(*BinaryExpr); mul.Op != "*" {
		t.Error("* must bind tighter than +")
	}
	// AND binds tighter than OR; NOT tighter than AND.
	e, _ = ParseExpr(`a = 1 OR b = 2 AND c = 3`)
	if _, ok := e.(*OrExpr); !ok {
		t.Error("OR must be top-level")
	}
	e, _ = ParseExpr(`NOT a = 1 AND b = 2`)
	and, ok := e.(*AndExpr)
	if !ok {
		t.Fatal("AND must be top-level")
	}
	if _, ok := and.Left.(*NotExpr); !ok {
		t.Error("NOT must bind tighter than AND")
	}
	// Parenthesized grouping.
	e, _ = ParseExpr(`(a + b) * c`)
	if mul := e.(*BinaryExpr); mul.Op != "*" {
		t.Error("parenthesized grouping lost")
	}
	// Unary minus.
	e, _ = ParseExpr(`-x + 1`)
	if add := e.(*BinaryExpr); add.Op != "+" {
		t.Error("unary minus precedence wrong")
	} else if _, ok := add.Left.(*UnaryExpr); !ok {
		t.Error("unary minus lost")
	}
}

func TestParseLiterals(t *testing.T) {
	cases := map[string]sqltypes.Type{
		`42`:                sqltypes.Int,
		`4.5`:               sqltypes.Float,
		`1e3`:               sqltypes.Float,
		`'it''s'`:           sqltypes.String,
		`NULL`:              sqltypes.Null,
		`TRUE`:              sqltypes.Bool,
		`FALSE`:             sqltypes.Bool,
		`DATE '2002-02-26'`: sqltypes.Date,
	}
	for sql, typ := range cases {
		e, err := ParseExpr(sql)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", sql, err)
		}
		lit, ok := e.(*Literal)
		if !ok || lit.Val.Typ() != typ {
			t.Errorf("ParseExpr(%q) = %v (type %v), want type %v", sql, e, lit.Val.Typ(), typ)
		}
	}
	if e, _ := ParseExpr(`'it''s'`); e.(*Literal).Val.Str() != "it's" {
		t.Error("quote escape mishandled")
	}
}

func TestParseFunctions(t *testing.T) {
	e, err := ParseExpr(`MOD(s1.pos, 4)`)
	if err != nil {
		t.Fatal(err)
	}
	fn := e.(*FuncExpr)
	if fn.Name != "MOD" || len(fn.Args) != 2 {
		t.Fatalf("MOD misparsed: %v", e)
	}
	e, _ = ParseExpr(`COUNT(*)`)
	if fn := e.(*FuncExpr); !fn.Star || fn.Name != "COUNT" {
		t.Error("COUNT(*) misparsed")
	}
	e, _ = ParseExpr(`COALESCE(val, 0)`)
	if fn := e.(*FuncExpr); fn.Name != "COALESCE" || len(fn.Args) != 2 {
		t.Error("COALESCE misparsed")
	}
}

func TestParseUnion(t *testing.T) {
	stmt := mustParse(t, `SELECT a FROM t1 UNION ALL SELECT a FROM t2 UNION SELECT a FROM t3 ORDER BY a LIMIT 10`)
	u, ok := stmt.(*Union)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if u.All {
		t.Error("outer union must be distinct")
	}
	if len(u.OrderBy) != 1 || u.Limit == nil {
		t.Error("union ORDER BY / LIMIT lost")
	}
	inner, ok := u.Left.(*Union)
	if !ok || !inner.All {
		t.Error("left-associative union chain misparsed")
	}
}

func TestParseGroupByHavingOrderLimit(t *testing.T) {
	sel := mustParse(t, `SELECT a, SUM(b) FROM t GROUP BY a HAVING SUM(b) > 10 ORDER BY a DESC, b ASC LIMIT 5`).(*Select)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Error("GROUP BY / HAVING misparsed")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Error("ORDER BY misparsed")
	}
	if sel.Limit == nil {
		t.Error("LIMIT lost")
	}
}

func TestParseDDL(t *testing.T) {
	ct := mustParse(t, `CREATE TABLE seq (pos INTEGER, val FLOAT, name VARCHAR(30), d DATE, ok BOOLEAN)`).(*CreateTable)
	if ct.Name != "seq" || len(ct.Columns) != 5 {
		t.Fatalf("create table misparsed: %+v", ct)
	}
	wantTypes := []sqltypes.Type{sqltypes.Int, sqltypes.Float, sqltypes.String, sqltypes.Date, sqltypes.Bool}
	for i, w := range wantTypes {
		if ct.Columns[i].Type != w {
			t.Errorf("column %d type = %v, want %v", i, ct.Columns[i].Type, w)
		}
	}
	ci := mustParse(t, `CREATE UNIQUE INDEX seq_pk ON seq (pos)`).(*CreateIndex)
	if !ci.Unique || ci.Table != "seq" || len(ci.Columns) != 1 {
		t.Fatalf("create index misparsed: %+v", ci)
	}
	cv := mustParse(t, `CREATE MATERIALIZED VIEW matseq AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq`).(*CreateMatView)
	if cv.Name != "matseq" {
		t.Fatalf("create view misparsed: %+v", cv)
	}
	if _, ok := mustParse(t, `DROP TABLE seq`).(*DropTable); !ok {
		t.Error("drop table misparsed")
	}
	if _, ok := mustParse(t, `DROP MATERIALIZED VIEW matseq`).(*DropMatView); !ok {
		t.Error("drop view misparsed")
	}
	di := mustParse(t, `DROP INDEX seq_pk ON seq`).(*DropIndex)
	if di.Name != "seq_pk" || di.Table != "seq" {
		t.Error("drop index misparsed")
	}
	rv := mustParse(t, `REFRESH MATERIALIZED VIEW matseq`).(*RefreshMatView)
	if rv.Name != "matseq" {
		t.Error("refresh misparsed")
	}
}

func TestParseDML(t *testing.T) {
	ins := mustParse(t, `INSERT INTO seq (pos, val) VALUES (1, 10), (2, 20)`).(*Insert)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Fatalf("insert misparsed: %+v", ins)
	}
	ins2 := mustParse(t, `INSERT INTO seq SELECT pos, val FROM other`).(*Insert)
	if ins2.Select == nil {
		t.Error("INSERT…SELECT misparsed")
	}
	upd := mustParse(t, `UPDATE seq SET val = val + 1, pos = 2 WHERE pos = 1`).(*Update)
	if len(upd.Set) != 2 || upd.Where == nil {
		t.Fatalf("update misparsed: %+v", upd)
	}
	del := mustParse(t, `DELETE FROM seq WHERE pos = 3`).(*Delete)
	if del.Where == nil {
		t.Error("delete misparsed")
	}
	del2 := mustParse(t, `DELETE FROM seq`).(*Delete)
	if del2.Where != nil {
		t.Error("unfiltered delete misparsed")
	}
}

func TestParseExplain(t *testing.T) {
	ex := mustParse(t, `EXPLAIN SELECT * FROM t`).(*Explain)
	if _, ok := ex.Stmt.(*Select); !ok {
		t.Error("explain misparsed")
	}
	// Source is the inner statement as written, up to its terminator.
	stmts, err := ParseAll("EXPLAIN ANALYZE  select *\n FROM t -- note\n; EXPLAIN SELECT 1 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"select *\n FROM t -- note", "SELECT 1 FROM t"} {
		if got := stmts[i].(*Explain).Source; got != want {
			t.Errorf("statement %d: Source = %q, want %q", i, got, want)
		}
	}
}

func TestParseMultipleStatements(t *testing.T) {
	stmts, err := ParseAll(`CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseComments(t *testing.T) {
	sel := mustParse(t, `SELECT a -- trailing comment
	  /* block
	     comment */
	FROM t`).(*Select)
	if len(sel.Items) != 1 {
		t.Error("comments broke parsing")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT FROM t`,
		`SELECT * FROM`,
		`SELECT * FROM t WHERE`,
		`SELECT * FROM t GROUP`,
		`CREATE`,
		`CREATE TABLE`,
		`CREATE TABLE t ()`,
		`CREATE TABLE t (a NOTATYPE)`,
		`CREATE UNIQUE TABLE t (a INT)`,
		`INSERT INTO`,
		`INSERT INTO t VALUES`,
		`UPDATE t`,
		`DELETE t`,
		`SELECT 'unterminated FROM t`,
		`SELECT a FROM t WHERE a NOT 5`,
		`SELECT a ~ b FROM t`,
		`SELECT SUM(v) OVER (ROWS BETWEEN 1 WRONG AND CURRENT ROW) FROM t`,
		`SELECT SUM(v) OVER (ROWS BETWEEN UNBOUNDED AND CURRENT ROW) FROM t`,
		`SELECT a FROM t; garbage`,
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("SELECT a\nFROM t WHERE ~")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should carry line info: %v", err)
	}
}

// Round-trip: parse, render with String(), reparse; the two ASTs must render
// identically. This keeps the printer (used by the rewriter's golden tests)
// honest.
func TestStringRoundTrip(t *testing.T) {
	queries := []string{
		`SELECT pos, val FROM seq WHERE pos > 5`,
		`SELECT s1.pos, SUM(CASE WHEN s1.pos = s2.pos THEN s2.val ELSE ((-1) * s2.val) END) AS val FROM matseq s1, matseq s2 WHERE s1.pos IN (s2.pos - 1, s2.pos) GROUP BY s1.pos`,
		`SELECT a FROM t1 UNION ALL SELECT a FROM t2`,
		`SELECT pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
		`SELECT s.pos, s.val + COALESCE(d.val, 0) AS val FROM matseq s LEFT OUTER JOIN (SELECT pos, val FROM matseq) AS d ON s.pos = d.pos`,
		`INSERT INTO t (a) VALUES (1), (2)`,
		`UPDATE t SET a = a + 1 WHERE a < 3`,
		`DELETE FROM t WHERE a IS NOT NULL`,
		`CREATE TABLE t (a INTEGER, b FLOAT)`,
		`SELECT a FROM t ORDER BY a DESC LIMIT 3`,
		`SELECT COUNT(*) FROM t HAVING COUNT(*) > 1`,
		`SELECT a FROM t WHERE a BETWEEN 1 AND 2 OR NOT a = 5`,
	}
	for _, sql := range queries {
		s1 := mustParse(t, sql)
		s2 := mustParse(t, s1.String())
		if s1.String() != s2.String() {
			t.Errorf("round trip diverged:\n  first:  %s\n  second: %s", s1, s2)
		}
	}
}

func TestWalkExpr(t *testing.T) {
	e, err := ParseExpr(`CASE WHEN a = 1 THEN SUM(b) OVER (ORDER BY c ROWS 1 PRECEDING) ELSE COALESCE(d, -e) END`)
	if err != nil {
		t.Fatal(err)
	}
	var cols []string
	WalkExpr(e, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok {
			cols = append(cols, c.Name)
		}
		return true
	})
	if len(cols) != 5 { // a, b, c, d, e
		t.Fatalf("WalkExpr found columns %v, want 5", cols)
	}
	// Early stop: don't descend into CASE.
	count := 0
	WalkExpr(e, func(x Expr) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early-stopped walk visited %d nodes", count)
	}
}

func TestParseNullsOrder(t *testing.T) {
	cases := []struct {
		sql  string
		want []NullsOrder
		desc []bool
	}{
		{`SELECT v FROM t ORDER BY a`, []NullsOrder{NullsDefault}, []bool{false}},
		{`SELECT v FROM t ORDER BY a NULLS FIRST`, []NullsOrder{NullsFirst}, []bool{false}},
		{`SELECT v FROM t ORDER BY a NULLS LAST`, []NullsOrder{NullsLast}, []bool{false}},
		{`SELECT v FROM t ORDER BY a DESC NULLS FIRST`, []NullsOrder{NullsFirst}, []bool{true}},
		{`SELECT v FROM t ORDER BY a ASC NULLS LAST, b DESC`, []NullsOrder{NullsLast, NullsDefault}, []bool{false, true}},
	}
	for _, tc := range cases {
		sel := mustParse(t, tc.sql).(*Select)
		if len(sel.OrderBy) != len(tc.want) {
			t.Fatalf("%q: %d order keys, want %d", tc.sql, len(sel.OrderBy), len(tc.want))
		}
		for i, it := range sel.OrderBy {
			if it.Nulls != tc.want[i] || it.Desc != tc.desc[i] {
				t.Errorf("%q key %d: Nulls=%v Desc=%v, want %v/%v",
					tc.sql, i, it.Nulls, it.Desc, tc.want[i], tc.desc[i])
			}
		}
	}
}

func TestParseNullsOrderInOverClause(t *testing.T) {
	sel := mustParse(t,
		`SELECT SUM(v) OVER (PARTITION BY g ORDER BY a DESC NULLS FIRST, b NULLS LAST) FROM t`).(*Select)
	w, ok := sel.Items[0].Expr.(*WindowExpr)
	if !ok {
		t.Fatalf("item is %T", sel.Items[0].Expr)
	}
	if len(w.OrderBy) != 2 {
		t.Fatalf("%d order keys", len(w.OrderBy))
	}
	if w.OrderBy[0].Nulls != NullsFirst || !w.OrderBy[0].Desc {
		t.Errorf("key 0 = %+v, want DESC NULLS FIRST", w.OrderBy[0])
	}
	if w.OrderBy[1].Nulls != NullsLast || w.OrderBy[1].Desc {
		t.Errorf("key 1 = %+v, want ASC NULLS LAST", w.OrderBy[1])
	}
}

func TestParseNullsOrderErrors(t *testing.T) {
	for _, sql := range []string{
		`SELECT v FROM t ORDER BY a NULLS`,
		`SELECT v FROM t ORDER BY a NULLS MAYBE`,
		`SELECT SUM(v) OVER (ORDER BY a NULLS) FROM t`,
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
}

func TestNullsOrderStringFixedPoint(t *testing.T) {
	// String() must be a rendering fixed point for every NULLS spelling —
	// the plan cache keys on rendered text.
	for _, sql := range []string{
		`SELECT v FROM t ORDER BY a NULLS LAST`,
		`SELECT v FROM t ORDER BY a DESC NULLS FIRST`,
		`SELECT SUM(v) OVER (PARTITION BY g ORDER BY a NULLS LAST, b DESC NULLS FIRST) AS w FROM t`,
	} {
		first := mustParse(t, sql).String()
		second := mustParse(t, first).String()
		if first != second {
			t.Errorf("not a fixed point:\nfirst:  %q\nsecond: %q", first, second)
		}
	}
}
