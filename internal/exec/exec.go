// Package exec implements the physical operators of the rfview engine in the
// Volcano (open/next/close) style: scans, filters, projections, three join
// algorithms (nested-loop, index nested-loop, hash), sorting, hash
// aggregation, set operations, and the Window operator that provides the
// "native reporting functionality inside the database engine" whose benefit
// Table 1 of the paper measures.
package exec

import (
	"context"
	"fmt"
	"strings"

	rferrors "rfview/errors"
	"rfview/internal/expr"
	"rfview/internal/sqltypes"
)

// Operator is a Volcano-style iterator.
type Operator interface {
	// Schema describes the rows this operator produces.
	Schema() *expr.Schema
	// Open prepares the operator (and its children) for iteration.
	Open() error
	// Next returns the next row, or (nil, nil) at end of stream.
	Next() (sqltypes.Row, error)
	// Close releases resources. Safe to call after a failed Open.
	Close() error
	// Describe returns a one-line plan label (for EXPLAIN).
	Describe() string
	// Children returns the child operators (for EXPLAIN).
	Children() []Operator
}

// Collect drains an operator into a slice, handling open/close.
func Collect(op Operator) ([]sqltypes.Row, error) {
	return CollectCtx(context.Background(), op)
}

// cancelCheckEvery is how many rows CollectCtx drains between context
// checks: frequent enough that cancellation lands within milliseconds on any
// realistic row rate, rare enough to keep the per-row cost at one counter
// decrement.
const cancelCheckEvery = 128

// rowsHandoff is implemented by fully-materializing operators (Sort, Window,
// Restore, and a Project pushed down into its Window) that can surrender
// their buffered output wholesale. CollectCtx
// takes the slice instead of re-draining row by row — a stacked window plan
// materializes once per operator either way, but the hand-off skips the
// per-row Next calls and the append regrowth of the copy.
type rowsHandoff interface {
	// takeRows returns the operator's materialized output and relinquishes
	// ownership of it, or nil when the operator is not serving from memory
	// (e.g. a sort streaming an external merge).
	takeRows() []sqltypes.Row
}

// CollectCtx is Collect with cooperative cancellation: the context is checked
// before opening and every cancelCheckEvery rows. A cancelled context aborts
// the drain, closes the operator, and returns ErrCancelled (wrapping the
// context's own error).
func CollectCtx(ctx context.Context, op Operator) ([]sqltypes.Row, error) {
	return collectInto(ctx, op, nil)
}

// collectInto is CollectCtx draining into buf's backing array when the
// operator has no materialized output to hand over; a materializing caller
// passes its pooled buffer so the drain does not regrow a slice per run.
func collectInto(ctx context.Context, op Operator, buf []sqltypes.Row) ([]sqltypes.Row, error) {
	out := buf[:0]
	err := drain(ctx, op, func(rows []sqltypes.Row) { out = rows }, func(row sqltypes.Row) error {
		out = append(out, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Drain is CollectCtx handing each row to fn, in order, instead of
// collecting it: an operator streams through it in the memory its own state
// takes. An error of fn ends the drain and is returned.
func Drain(ctx context.Context, op Operator, fn func(sqltypes.Row) error) error {
	return drain(ctx, op, nil, fn)
}

// drain opens op, hands its rows to fn — or its materialized output to
// take, when op has one and take is set — and closes it.
func drain(ctx context.Context, op Operator, take func([]sqltypes.Row), fn func(sqltypes.Row) error) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if err := op.Open(); err != nil {
		op.Close()
		return err
	}
	if h, ok := op.(rowsHandoff); ok && take != nil {
		if rows := h.takeRows(); rows != nil {
			take(rows)
			return op.Close()
		}
	}
	until := cancelCheckEvery
	for {
		if until--; until <= 0 {
			until = cancelCheckEvery
			if err := ctxErr(ctx); err != nil {
				op.Close()
				return err
			}
		}
		row, err := op.Next()
		if err == nil && row != nil {
			err = fn(row)
		}
		if err != nil {
			op.Close()
			return err
		}
		if row == nil {
			return op.Close()
		}
	}
}

// ctxErr maps a cancelled context onto the engine's coded error surface; nil
// contexts and live contexts cost one branch.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return rferrors.Wrap(rferrors.CodeCancelled, err)
	}
	return nil
}

// FormatPlan renders an operator tree as an indented EXPLAIN listing.
func FormatPlan(op Operator) string {
	var b strings.Builder
	var walk func(o Operator, depth int)
	walk = func(o Operator, depth int) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), o.Describe())
		for _, c := range o.Children() {
			walk(c, depth+1)
		}
	}
	walk(op, 0)
	return b.String()
}

// PlanContains reports whether any operator in the tree has a Describe()
// line containing the given substring — the plan-shape assertion helper used
// by the Fig. 2/4/10/13 pattern tests.
func PlanContains(op Operator, substr string) bool {
	if strings.Contains(op.Describe(), substr) {
		return true
	}
	for _, c := range op.Children() {
		if PlanContains(c, substr) {
			return true
		}
	}
	return false
}

// CountOps counts operators in the tree whose Describe() line contains the
// substring.
func CountOps(op Operator, substr string) int {
	n := 0
	if strings.Contains(op.Describe(), substr) {
		n++
	}
	for _, c := range op.Children() {
		n += CountOps(c, substr)
	}
	return n
}
