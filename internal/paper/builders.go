package paper

import (
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
)

// Small AST construction helpers: the renderings assemble the relational
// operator patterns of Figs. 2, 4, 10 and 13 as parse trees (rather than SQL
// strings), so the result can be planned directly and rendered for the
// golden-pattern tests.

func col(table, name string) *sqlparser.ColumnRef {
	return &sqlparser.ColumnRef{Table: table, Name: name}
}

func intLit(v int64) *sqlparser.Literal {
	return &sqlparser.Literal{Val: sqltypes.NewInt(v)}
}

func eq(l, r sqlparser.Expr) sqlparser.Expr {
	return &sqlparser.ComparisonExpr{Op: "=", Left: l, Right: r}
}

func gt(l, r sqlparser.Expr) sqlparser.Expr {
	return &sqlparser.ComparisonExpr{Op: ">", Left: l, Right: r}
}

func ge(l, r sqlparser.Expr) sqlparser.Expr {
	return &sqlparser.ComparisonExpr{Op: ">=", Left: l, Right: r}
}

func and(l, r sqlparser.Expr) sqlparser.Expr {
	return &sqlparser.AndExpr{Left: l, Right: r}
}

func or(exprs ...sqlparser.Expr) sqlparser.Expr {
	var out sqlparser.Expr
	for _, e := range exprs {
		if out == nil {
			out = e
		} else {
			out = &sqlparser.OrExpr{Left: out, Right: e}
		}
	}
	return out
}

// plusConst renders e+c, e-c, or e alone for c == 0, keeping the generated
// SQL close to the paper's notation.
func plusConst(e sqlparser.Expr, c int64) sqlparser.Expr {
	switch {
	case c == 0:
		return e
	case c > 0:
		return &sqlparser.BinaryExpr{Op: "+", Left: e, Right: intLit(c)}
	default:
		return &sqlparser.BinaryExpr{Op: "-", Left: e, Right: intLit(-c)}
	}
}

// modOf builds MOD(e + shift, m); shift folds into the operand.
func modOf(e sqlparser.Expr, shift, m int64) sqlparser.Expr {
	return &sqlparser.FuncExpr{Name: "MOD", Args: []sqlparser.Expr{plusConst(e, shift), intLit(m)}}
}

func sumOf(arg sqlparser.Expr) *sqlparser.FuncExpr {
	return &sqlparser.FuncExpr{Name: "SUM", Args: []sqlparser.Expr{arg}}
}

func negOf(e sqlparser.Expr) sqlparser.Expr {
	return &sqlparser.BinaryExpr{Op: "*", Left: intLit(-1), Right: e}
}

func coalesce(args ...sqlparser.Expr) sqlparser.Expr {
	return &sqlparser.FuncExpr{Name: "COALESCE", Args: args}
}

// caseSign builds the Fig. 10/13 CASE that adds matching rows and subtracts
// the compensation rows: CASE WHEN cond THEN val ELSE (-1)*val END.
func caseSign(cond sqlparser.Expr, val sqlparser.Expr) sqlparser.Expr {
	return &sqlparser.CaseExpr{
		Whens: []sqlparser.When{{Cond: cond, Then: val}},
		Else:  negOf(val),
	}
}

func tbl(name, alias string) *sqlparser.TableName {
	return &sqlparser.TableName{Name: name, Alias: alias}
}

func crossJoin(l, r sqlparser.TableExpr) sqlparser.TableExpr {
	return &sqlparser.Join{Left: l, Right: r, Type: sqlparser.CrossJoin}
}

func leftJoin(l, r sqlparser.TableExpr, on sqlparser.Expr) sqlparser.TableExpr {
	return &sqlparser.Join{Left: l, Right: r, Type: sqlparser.LeftOuterJoin, On: on}
}

func selItem(e sqlparser.Expr, alias string) sqlparser.SelectItem {
	return sqlparser.SelectItem{Expr: e, Alias: alias}
}

func between(e sqlparser.Expr, lo, hi sqlparser.Expr) sqlparser.Expr {
	return &sqlparser.BetweenExpr{Expr: e, From: lo, To: hi}
}

// sqltypesTrue is the TRUE literal used by partitioned body filters.
var sqltypesTrue = sqltypes.NewBool(true)
