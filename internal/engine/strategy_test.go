package engine

import (
	"slices"
	"testing"

	"rfview/internal/paper"
	"rfview/internal/rewrite"
	"rfview/internal/sqlparser"
)

// The engine serves one configuration: it derives from a fresh view by the
// algorithm core.Algorithm names for the view rewrite.Derive picks, or
// evaluates natively. The other evaluation strategies the paper measures —
// the Fig. 2 self join, a forced MaxOA or MinOA, the UNION form — are not
// switches; the tests that compare them get them the way internal/bench
// does: the rewrite package renders the statement and the engine under test
// runs it as written.

// execSelfJoin answers the window query sql by its Fig. 2 self-join
// simulation.
func execSelfJoin(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	sj, err := paper.SelfJoin(parseSelect(t, sql))
	if err != nil {
		t.Fatalf("self join of %q: %v", sql, err)
	}
	return execStmt(t, e, sj)
}

// execDerived answers the window query sql by the derivation the engine
// would run, rendered as the paper's SQL under the forced strategy and form
// (paper.Pattern) over a base of n rows, and run as written;
// Result.Derivation records the derivation rendered. Where no
// fresh view applies, or no pattern renders the derivation under the forced
// strategy, e answers sql its own way and Result.Derivation is nil.
func execDerived(t *testing.T, e *Engine, sql string, strategy paper.Strategy, form paper.Form, n int) *Result {
	t.Helper()
	sel := parseSelect(t, sql)
	if d := rewrite.Derive(e.Cat, sel); d != nil && !slices.ContainsFunc(e.viewsRead(d.Plan), e.Views.Stale) {
		if stmt, err := paper.Pattern(d, strategy, form, n); err == nil {
			res := execStmt(t, e, stmt)
			res.Derivation = d
			return res
		}
	}
	res := execStmt(t, e, sel)
	res.Derivation = nil
	return res
}

// execForced is execDerived in the disjunctive form, shaped so a table of
// evaluation strategies over a base of n rows can hold it.
func execForced(strategy paper.Strategy) func(*testing.T, *Engine, string, int) *Result {
	return func(t *testing.T, e *Engine, sql string, n int) *Result {
		t.Helper()
		return execDerived(t, e, sql, strategy, paper.FormDisjunctive, n)
	}
}

func parseSelect(t *testing.T, sql string) *sqlparser.Select {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		t.Fatalf("%q is not a SELECT", sql)
	}
	return sel
}

func execStmt(t *testing.T, e *Engine, stmt sqlparser.Statement) *Result {
	t.Helper()
	res, err := e.ExecStmt(stmt)
	if err != nil {
		t.Fatalf("ExecStmt(%s): %v", stmt, err)
	}
	return res
}
