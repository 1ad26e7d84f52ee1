package exec

import (
	"fmt"
	"strings"
	"time"

	"rfview/internal/expr"
	"rfview/internal/sqltypes"
)

// This file is the EXPLAIN ANALYZE half of the executor: Instrument wraps an
// operator tree in measuring probes, and FormatAnalyzedPlan renders the tree
// with the actual row counts and wall time each node accumulated while the
// query ran. Probes are only inserted when analysis was requested (EXPLAIN
// ANALYZE, the WithAnalyze exec option, or an armed slow-query log), so the
// ordinary hot path pays nothing.

// OpStats are the measurements one probe collected.
type OpStats struct {
	// Rows is the number of rows the operator emitted through Next.
	Rows int64
	// Elapsed is wall time spent inside the operator (Open + all Next calls
	// + Close), inclusive of its children — Volcano operators pull from their
	// children inside those calls, so inclusive time is what a node's calls
	// actually cost.
	Elapsed time.Duration
}

// Probe wraps an operator, counting rows and accumulating wall time. It is
// transparent to plan-shape helpers: Describe delegates to the wrapped
// operator.
type Probe struct {
	Inner Operator
	stats OpStats
}

// Rewirable lets operators defined outside this package participate in
// Instrument: the tree rewrite hands back probed children in the order
// Children returned them.
type Rewirable interface {
	Operator
	// SetChildren replaces the operator's children; len matches Children().
	SetChildren(children []Operator)
}

// Instrument rewires an operator tree so every node is observed by a Probe:
// each operator's child references are replaced with probed children (child
// fields are exported on every exec operator, which is what makes a generic
// rewrite possible; foreign operators opt in through Rewirable), then the
// node itself is wrapped. The returned root is a Probe; walk it with
// Children as usual.
//
// Instrument mutates the tree it is given. Plans are built fresh per
// execution (cached entries replan from the AST), so no shared plan is ever
// instrumented in place.
func Instrument(op Operator) Operator {
	switch o := op.(type) {
	case *Filter:
		o.Input = Instrument(o.Input)
	case *Project:
		o.Input = Instrument(o.Input)
	case *Limit:
		o.Input = Instrument(o.Input)
	case *Sort:
		o.Input = Instrument(o.Input)
	case *Distinct:
		o.Input = Instrument(o.Input)
	case *HashAggregate:
		o.Input = Instrument(o.Input)
	case *Window:
		o.Input = Instrument(o.Input)
	case *Ordinal:
		o.Input = Instrument(o.Input)
	case *Restore:
		o.Input = Instrument(o.Input)
	case *NestedLoopJoin:
		o.Left = Instrument(o.Left)
		o.Right = Instrument(o.Right)
	case *HashJoin:
		o.Left = Instrument(o.Left)
		o.Right = Instrument(o.Right)
	case *IndexNestedLoopJoin:
		o.Outer = Instrument(o.Outer)
	case *Derive:
		o.In.Scan = Instrument(o.In.Scan).(*Probe)
	case *UnionAll:
		for i := range o.Inputs {
			o.Inputs[i] = Instrument(o.Inputs[i])
		}
	case Rewirable:
		kids := o.Children()
		probed := make([]Operator, len(kids))
		for i, c := range kids {
			probed[i] = Instrument(c)
		}
		o.SetChildren(probed)
	}
	return &Probe{Inner: op}
}

// Stats returns the measurements collected so far.
func (p *Probe) Stats() OpStats { return p.stats }

// Schema implements Operator.
func (p *Probe) Schema() *expr.Schema { return p.Inner.Schema() }

// Open implements Operator.
func (p *Probe) Open() error {
	t := time.Now()
	err := p.Inner.Open()
	p.stats.Elapsed += time.Since(t)
	return err
}

// Next implements Operator.
func (p *Probe) Next() (sqltypes.Row, error) {
	t := time.Now()
	row, err := p.Inner.Next()
	p.stats.Elapsed += time.Since(t)
	if row != nil {
		p.stats.Rows++
	}
	return row, err
}

// NextBatch implements batchOperator, counting the batch's live rows.
func (p *Probe) NextBatch(cols []int, b *sqltypes.Batch) (bool, error) {
	t := time.Now()
	ok, err := p.Inner.(batchOperator).NextBatch(cols, b)
	p.stats.Elapsed += time.Since(t)
	if ok {
		p.stats.Rows += int64(b.Len())
	}
	return ok, err
}

func (p *Probe) canBatch() bool { return batchInput(p.Inner) != nil }

// Close implements Operator.
func (p *Probe) Close() error {
	t := time.Now()
	err := p.Inner.Close()
	p.stats.Elapsed += time.Since(t)
	return err
}

// Describe implements Operator, delegating so plan-shape assertions and
// EXPLAIN output see the real operator.
func (p *Probe) Describe() string { return p.Inner.Describe() }

// Children implements Operator. The inner operator's child fields were
// rewritten to probes by Instrument, so the walk stays fully probed.
func (p *Probe) Children() []Operator { return p.Inner.Children() }

// FormatAnalyzedPlan renders an instrumented tree as an indented listing with
// per-node actuals:
//
//	Window … (rows=100 time=1.234ms)
//	  SeqScan seq (rows=100 time=0.041ms)
//
// Non-probe nodes (a tree that was never instrumented) render without
// actuals, degrading to FormatPlan output.
func FormatAnalyzedPlan(op Operator) string {
	var b strings.Builder
	var walk func(o Operator, depth int)
	walk = func(o Operator, depth int) {
		indent := strings.Repeat("  ", depth)
		if p, ok := o.(*Probe); ok {
			st := p.Stats()
			fmt.Fprintf(&b, "%s%s (rows=%d time=%.3fms)\n",
				indent, p.Describe(), st.Rows, float64(st.Elapsed.Nanoseconds())/1e6)
		} else {
			fmt.Fprintf(&b, "%s%s\n", indent, o.Describe())
		}
		for _, c := range o.Children() {
			walk(c, depth+1)
		}
	}
	walk(op, 0)
	return b.String()
}
