package bench

import (
	"fmt"
	"strings"

	"rfview/internal/engine"
	"rfview/internal/exec"
	"rfview/internal/paper"
	"rfview/internal/plan"
	"rfview/internal/rewrite"
	"rfview/internal/sqlparser"
)

// PatternsReport renders, for each relational operator pattern in the paper
// (Figs. 2, 4, 10, 13), the SQL our rewriter generates and the physical plan
// the engine runs — the qualitative counterpart to Tables 1 and 2.
func PatternsReport() (string, error) {
	var b strings.Builder

	// A small warehouse: seq with index, a sliding view, and a cumulative
	// view.
	e := engine.New(engine.DefaultOptions())
	const n = 50
	if err := LoadSequenceTable(e, n, 3); err != nil {
		return "", err
	}
	if _, err := e.Exec(`CREATE UNIQUE INDEX seq_pk ON seq (pos)`); err != nil {
		return "", err
	}
	if _, err := e.Exec(Table2ViewDDL); err != nil {
		return "", err
	}
	if _, err := e.Exec(`CREATE MATERIALIZED VIEW cumseq AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS val FROM seq`); err != nil {
		return "", err
	}

	explain := func(stmt sqlparser.SelectStatement) (string, error) {
		op, err := plan.New(e.Cat, plan.DefaultOptions()).PlanSelect(stmt)
		if err != nil {
			return "", err
		}
		return exec.FormatPlan(op), nil
	}
	section := func(title, query, rewritten, tree string) {
		fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
		if query != "" {
			fmt.Fprintf(&b, "query:\n  %s\n", query)
		}
		fmt.Fprintf(&b, "rewritten SQL:\n  %s\nphysical plan:\n", rewritten)
		for _, line := range strings.Split(strings.TrimRight(tree, "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
		b.WriteString("\n")
	}

	// Fig. 2 — self-join simulation of a reporting function.
	fig2src := `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq`
	stmt, err := sqlparser.Parse(fig2src)
	if err != nil {
		return "", err
	}
	sj, err := paper.SelfJoin(stmt.(*sqlparser.Select))
	if err != nil {
		return "", err
	}
	p, err := explain(sj)
	if err != nil {
		return "", err
	}
	section("Fig. 2 — relational mapping of a reporting function (self join)", fig2src, sj.String(), p)

	// Fig. 4 — reconstructing raw data from a cumulative view.
	cum, _ := e.Cat.MatView("cumseq")
	raw, err := paper.RawFromCumulative(cum, n)
	if err != nil {
		return "", err
	}
	p, err = explain(raw)
	if err != nil {
		return "", err
	}
	section("Fig. 4 — reconstructing raw data values from a cumulative view", "", raw.String(), p)

	// Figs. 10 and 13 — the derivation patterns, both forms.
	derived := []struct {
		title    string
		strategy paper.Strategy
		form     paper.Form
	}{
		{"Fig. 10 — MaxOA relational operator pattern (disjunctive)", paper.StrategyMaxOA, paper.FormDisjunctive},
		{"Fig. 10 — MaxOA pattern, UNION-of-simple-predicates form", paper.StrategyMaxOA, paper.FormUnion},
		{"Fig. 13 — MinOA relational operator pattern (disjunctive)", paper.StrategyMinOA, paper.FormDisjunctive},
		{"Fig. 13 — MinOA pattern, UNION-of-simple-predicates form", paper.StrategyMinOA, paper.FormUnion},
	}
	qstmt, err := sqlparser.Parse(Table2Query)
	if err != nil {
		return "", err
	}
	d := rewrite.Derive(e.Cat, qstmt.(*sqlparser.Select))
	if d == nil {
		return "", fmt.Errorf("patterns: %s produced no derivation", Table2Query)
	}
	for _, dv := range derived {
		stmt, err := paper.Pattern(d, dv.strategy, dv.form, n)
		if err != nil {
			return "", err
		}
		p, err := explain(stmt)
		if err != nil {
			return "", err
		}
		section(dv.title, strings.Join(strings.Fields(Table2Query), " "), stmt.String(), p)
	}
	return b.String(), nil
}
