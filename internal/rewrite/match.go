// Package rewrite implements the paper's view matching (§3–§5): Derive
// matches a reporting-function query against the materialized sequence views
// under core.Algorithm's rule and returns the DeriveSelect node the engine
// plans as the Derive operator. The paper's SQL renderings of the same
// derivations live in internal/paper, apart from the served tree.
package rewrite

import (
	"fmt"
	"strings"

	"rfview/internal/core"
	"rfview/internal/plan"
	"rfview/internal/sqlparser"
)

// WindowQuery is a reporting-function query in the canonical single-table
// shape view matching and the paper's renderings understand:
//
//	SELECT <pos> [, <cols>…], AGG(<val>) OVER (
//	    [PARTITION BY <cols>…] ORDER BY <pos> ROWS …) [AS alias]
//	FROM <table>
type WindowQuery struct {
	Table        string
	Ref          string // alias used in the query
	PosCol       string
	ValCol       string // "" for COUNT(*)
	Agg          core.Agg
	Shape        core.Window
	PartitionBy  []string // bare column names
	OutAlias     string   // alias of the window column ("" if none)
	PlainCols    []string // non-window select items (bare/qualified columns)
	WindowItemAt int      // index of the window item in the select list
}

// ErrNoMatch reports that a statement is not in the canonical shape; callers
// fall back to native planning.
type ErrNoMatch struct{ Reason string }

func (e *ErrNoMatch) Error() string { return "rewrite: query shape not supported: " + e.Reason }

func noMatch(reason string, args ...any) error {
	return &ErrNoMatch{Reason: fmt.Sprintf(reason, args...)}
}

// MatchWindowQuery recognizes the canonical single-table reporting-function
// query shape.
func MatchWindowQuery(sel *sqlparser.Select) (*WindowQuery, error) {
	if sel.Distinct || sel.Where != nil || len(sel.GroupBy) > 0 || sel.Having != nil {
		return nil, noMatch("only plain SELECT … FROM table queries are rewritable")
	}
	tn, ok := sel.From.(*sqlparser.TableName)
	if !ok {
		return nil, noMatch("FROM must reference a single table")
	}
	wq := &WindowQuery{Table: tn.Name, Ref: tn.RefName(), WindowItemAt: -1}

	for i, it := range sel.Items {
		if it.Star {
			return nil, noMatch("star projections are not rewritable")
		}
		if w, ok := it.Expr.(*sqlparser.WindowExpr); ok {
			if wq.WindowItemAt >= 0 {
				return nil, noMatch("more than one reporting function")
			}
			wq.WindowItemAt = i
			wq.OutAlias = it.Alias
			if err := matchWindowExpr(w, wq); err != nil {
				return nil, err
			}
			continue
		}
		cr, ok := it.Expr.(*sqlparser.ColumnRef)
		if !ok {
			return nil, noMatch("non-window select items must be plain columns")
		}
		if cr.Table != "" && !strings.EqualFold(cr.Table, wq.Ref) {
			return nil, noMatch("column %s does not belong to %s", cr, wq.Ref)
		}
		name := cr.Name
		if it.Alias != "" && !strings.EqualFold(it.Alias, cr.Name) {
			return nil, noMatch("renamed plain columns are not rewritable")
		}
		wq.PlainCols = append(wq.PlainCols, name)
	}
	if wq.WindowItemAt < 0 {
		return nil, noMatch("no reporting function in the select list")
	}
	return wq, nil
}

func matchWindowExpr(w *sqlparser.WindowExpr, wq *WindowQuery) error {
	name := w.Func.Name
	agg, err := core.ParseAgg(name)
	if err != nil {
		return noMatch("unsupported reporting function %s()", name)
	}
	wq.Agg = agg
	if w.Func.Star {
		if agg != core.Count {
			return noMatch("%s(*) is not valid", name)
		}
	} else {
		if len(w.Func.Args) != 1 {
			return noMatch("%s() must take one column", name)
		}
		cr, ok := w.Func.Args[0].(*sqlparser.ColumnRef)
		if !ok {
			return noMatch("aggregate argument must be a plain column")
		}
		wq.ValCol = cr.Name
	}
	// Spec-shape checks go through the planner's canonical WindowSpec: the
	// sequence views index one ascending position column (default NULL order)
	// per partition-column list, which is exactly the PlainOrder /
	// PlainPartition contract.
	spec := plan.SpecOf(w)
	pos, ok := spec.PlainOrder()
	if !ok {
		return noMatch("reporting function must ORDER BY a single ascending plain column")
	}
	wq.PosCol = pos
	part, ok := spec.PlainPartition()
	if !ok {
		return noMatch("PARTITION BY expressions must be plain columns")
	}
	if len(part) > 0 {
		wq.PartitionBy = part
	}
	wq.Shape, err = frameShape(w.Frame, len(w.OrderBy) > 0)
	return err
}

// frameShape normalizes a ROWS frame to the paper's window classification.
func frameShape(f *sqlparser.FrameClause, hasOrder bool) (core.Window, error) {
	if f == nil {
		if hasOrder {
			return core.Cumul(), nil
		}
		return core.Window{}, noMatch("whole-partition frames are not sequence windows")
	}
	start, end := f.Start, f.End
	if start.Type == sqlparser.UnboundedPreceding && end.Type == sqlparser.CurrentRow {
		return core.Cumul(), nil
	}
	l, err := boundPreceding(start)
	if err != nil {
		return core.Window{}, err
	}
	h, err := boundFollowing(end)
	if err != nil {
		return core.Window{}, err
	}
	return core.Sliding(l, h), nil
}

func boundPreceding(b sqlparser.FrameBound) (int, error) {
	switch b.Type {
	case sqlparser.OffsetPreceding:
		return b.Offset, nil
	case sqlparser.CurrentRow:
		return 0, nil
	default:
		return 0, noMatch("frame start %v is not a sliding-window bound", b)
	}
}

func boundFollowing(b sqlparser.FrameBound) (int, error) {
	switch b.Type {
	case sqlparser.OffsetFollowing:
		return b.Offset, nil
	case sqlparser.CurrentRow:
		return 0, nil
	default:
		return 0, noMatch("frame end %v is not a sliding-window bound", b)
	}
}
