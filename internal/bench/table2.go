package bench

import (
	"fmt"
	"strings"
	"time"

	"rfview/internal/engine"
	"rfview/internal/paper"
	"rfview/internal/rewrite"
	"rfview/internal/sqlparser"
)

// Table 2 derives the query sequence ỹ=(3,1) from the materialized view
// x̃=(2,1) — the paper's running example (§3.2, Fig. 6) — comparing MaxOA and
// MinOA in both relational renderings.
const (
	Table2ViewDDL = `CREATE MATERIALIZED VIEW matseq AS
  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq`
	Table2Query = `SELECT pos, SUM(val) OVER (ORDER BY pos
  ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq`
)

// Table2Row is one measured row of Table 2.
type Table2Row struct {
	N                int
	MaxOADisjunctive time.Duration
	MaxOAUnion       time.Duration
	MinOADisjunctive time.Duration
	MinOAUnion       time.Duration
}

// Table2Sizes are the paper's sequence cardinalities.
var Table2Sizes = []int{100, 500, 1000, 1500, 2000, 3000, 5000}

// Table2Strategy names one of the four measured strategies.
type Table2Strategy struct {
	Name     string
	Strategy paper.Strategy
	Form     paper.Form
}

// Table2Strategies lists the four columns of Table 2.
var Table2Strategies = []Table2Strategy{
	{"MaxOA/disjunctive", paper.StrategyMaxOA, paper.FormDisjunctive},
	{"MaxOA/union", paper.StrategyMaxOA, paper.FormUnion},
	{"MinOA/disjunctive", paper.StrategyMinOA, paper.FormDisjunctive},
	{"MinOA/union", paper.StrategyMinOA, paper.FormUnion},
}

// Stmt renders Table2Query's derivation from e's matseq view over n rows by
// this strategy and form — the statement the Table 2 column measures.
func (st Table2Strategy) Stmt(e *engine.Engine, n int) (sqlparser.Statement, error) {
	sel, err := parseSelect(Table2Query)
	if err != nil {
		return nil, err
	}
	d := rewrite.Derive(e.Cat, sel)
	if d == nil {
		return nil, fmt.Errorf("table2 %s: derivation did not fire", st.Name)
	}
	return paper.Pattern(d, st.Strategy, st.Form, n)
}

// NewTable2Engine builds an engine loaded with n sequence rows, a primary
// key index (the paper's Table 2 ran "including primary key indexes"), and
// the materialized (2,1) view. The engine itself never derives from the
// view: Table2Query on it is the native reference, and the measured
// statements are the ones Table2Strategy.Stmt renders.
func NewTable2Engine(n int) (*engine.Engine, error) {
	opts := engine.DefaultOptions()
	opts.UseMatViews = false
	return newTable2Engine(n, opts)
}

// newTable2Engine is Table 2's data and view under the given options; with
// the defaults it is the served system, which answers Table2Query from the
// view by the Derive operator.
func newTable2Engine(n int, opts engine.Options) (*engine.Engine, error) {
	e := engine.New(opts)
	if err := LoadSequenceTable(e, n, 7); err != nil {
		return nil, err
	}
	if _, err := e.Exec(`CREATE UNIQUE INDEX seq_pk ON seq (pos)`); err != nil {
		return nil, err
	}
	if _, err := e.Exec(Table2ViewDDL); err != nil {
		return nil, err
	}
	return e, nil
}

// RunTable2 measures the four derivation strategies for every size. With
// check set, every strategy's result is verified against native evaluation
// over the raw data.
func RunTable2(sizes []int, check bool) ([]Table2Row, error) {
	out := make([]Table2Row, 0, len(sizes))
	for _, n := range sizes {
		e, err := NewTable2Engine(n)
		if err != nil {
			return nil, err
		}
		var ref *engine.Result
		if check {
			ref, err = e.Exec(Table2Query)
			if err != nil {
				return nil, err
			}
		}
		row := Table2Row{N: n}
		for _, st := range Table2Strategies {
			stmt, err := st.Stmt(e, n)
			if err != nil {
				return nil, fmt.Errorf("n=%d: %w", n, err)
			}
			d, rows, err := timeQuery(e, stmt, 1)
			if err != nil {
				return nil, fmt.Errorf("table2 %s n=%d: %w", st.Name, n, err)
			}
			if check && !sameSeries(ref.Rows, rows) {
				return nil, fmt.Errorf("table2 %s n=%d: derived result diverges from native", st.Name, n)
			}
			switch st.Name {
			case "MaxOA/disjunctive":
				row.MaxOADisjunctive = d
			case "MaxOA/union":
				row.MaxOAUnion = d
			case "MinOA/disjunctive":
				row.MinOADisjunctive = d
			case "MinOA/union":
				row.MinOAUnion = d
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatTable2 renders the rows the way the paper prints Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Deriving ỹ=(3,1) from materialized x̃=(2,1)\n")
	b.WriteString("                 ------- MaxO Algorithm -------   ------- MinO Algorithm -------\n")
	b.WriteString("  # seq values   disjunctive   union of simple   disjunctive   union of simple\n")
	b.WriteString("                 predicate     pred. queries     predicate     pred. queries\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %12d   %-13s %-17s %-13s %-13s\n",
			r.N, fmtDur(r.MaxOADisjunctive), fmtDur(r.MaxOAUnion),
			fmtDur(r.MinOADisjunctive), fmtDur(r.MinOAUnion))
	}
	return b.String()
}

// CSVTable2 renders the measurements as CSV (microseconds), for plotting.
func CSVTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("n,maxoa_disjunctive_us,maxoa_union_us,minoa_disjunctive_us,minoa_union_us\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d\n", r.N,
			r.MaxOADisjunctive.Microseconds(), r.MaxOAUnion.Microseconds(),
			r.MinOADisjunctive.Microseconds(), r.MinOAUnion.Microseconds())
	}
	return b.String()
}
