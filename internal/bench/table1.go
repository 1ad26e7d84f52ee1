package bench

import (
	"fmt"
	"strings"
	"time"

	"rfview/internal/engine"
	"rfview/internal/paper"
	"rfview/internal/sqlparser"
)

// Table1Query is the workload of the paper's Table 1: a centered size-3
// sliding window over the sequence table (§2.2's sample query, Fig. 2).
const Table1Query = `SELECT pos, SUM(val) OVER (ORDER BY pos
  ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq`

// Table1Row is one measured row of Table 1.
type Table1Row struct {
	N int
	// Without a position index.
	NativeNoIndex   time.Duration
	SelfJoinNoIndex time.Duration
	// With a unique ordered index on seq.pos.
	NativeIndex   time.Duration
	SelfJoinIndex time.Duration
}

// Table1Sizes are the paper's sequence cardinalities.
var Table1Sizes = []int{5000, 10000, 15000}

// NewTable1Engine builds an engine loaded with n sequence rows and — for the
// "with primary key index" columns — the index on seq.pos. No view exists, so
// whatever statement it is handed runs as written.
func NewTable1Engine(n int, withIndex bool) (*engine.Engine, error) {
	opts := engine.DefaultOptions()
	opts.UseMatViews = false
	e := engine.New(opts)
	if err := LoadSequenceTable(e, n, 42); err != nil {
		return nil, err
	}
	if withIndex {
		if _, err := e.Exec(`CREATE UNIQUE INDEX seq_pk ON seq (pos)`); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Table1Stmt is Table1Query as one column pair of Table 1 evaluates it: the
// reporting function itself, or its Fig. 2 self-join simulation.
func Table1Stmt(native bool) (sqlparser.Statement, error) {
	sel, err := parseSelect(Table1Query)
	if err != nil || native {
		return sel, err
	}
	return paper.SelfJoin(sel)
}

func parseSelect(sql string) (*sqlparser.Select, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		return nil, fmt.Errorf("bench: not a SELECT: %s", sql)
	}
	return sel, nil
}

// RunTable1 measures the four strategies of Table 1 for every size. With
// check set, the self-join results are verified against the native window
// operator's.
func RunTable1(sizes []int, check bool) ([]Table1Row, error) {
	out := make([]Table1Row, 0, len(sizes))
	for _, n := range sizes {
		row := Table1Row{N: n}

		run := func(native, withIndex bool) (time.Duration, error) {
			e, err := NewTable1Engine(n, withIndex)
			if err != nil {
				return 0, err
			}
			stmt, err := Table1Stmt(native)
			if err != nil {
				return 0, err
			}
			d, rows, err := timeQuery(e, stmt, 1)
			if err != nil {
				return 0, err
			}
			if check && !native {
				refRes, err := e.Exec(Table1Query)
				if err != nil {
					return 0, err
				}
				if !sameSeries(refRes.Rows, rows) {
					return 0, fmt.Errorf("table1: self-join result diverges from native at n=%d", n)
				}
			}
			return d, nil
		}

		var err error
		if row.NativeNoIndex, err = run(true, false); err != nil {
			return nil, err
		}
		if row.SelfJoinNoIndex, err = run(false, false); err != nil {
			return nil, err
		}
		if row.NativeIndex, err = run(true, true); err != nil {
			return nil, err
		}
		if row.SelfJoinIndex, err = run(false, true); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatTable1 renders the rows the way the paper prints Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: Computing Sequence Data\n")
	b.WriteString("                 ---- no position index ----   --- with primary key index ---\n")
	b.WriteString("  # seq values   reporting     self join       reporting     self join\n")
	b.WriteString("                 functionality method          functionality method\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %12d   %-13s %-15s %-13s %-13s\n",
			r.N, fmtDur(r.NativeNoIndex), fmtDur(r.SelfJoinNoIndex),
			fmtDur(r.NativeIndex), fmtDur(r.SelfJoinIndex))
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// CSVTable1 renders the measurements as CSV (microseconds), for plotting.
func CSVTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("n,native_noindex_us,selfjoin_noindex_us,native_index_us,selfjoin_index_us\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d\n", r.N,
			r.NativeNoIndex.Microseconds(), r.SelfJoinNoIndex.Microseconds(),
			r.NativeIndex.Microseconds(), r.SelfJoinIndex.Microseconds())
	}
	return b.String()
}
