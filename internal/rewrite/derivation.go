package rewrite

import (
	"strings"

	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/sqlparser"
)

// Derivation is the result of a successful view match: the view, the
// decision as the node the planner lowers to the Derive operator, and the
// paper's coverage factors for EXPLAIN (zero unless both windows slide).
type Derivation struct {
	View   *catalog.MatView
	DeltaL int
	DeltaH int
	Wx     int
	// Plan is what the engine executes: the sequence algebra over one scan
	// of the view. Plan.Source.Algo names the algorithm.
	Plan *sqlparser.DeriveSelect
}

// Derive matches a reporting-function query against the materialized
// sequence views in the catalog and, if one can answer it, returns the
// derivation (§3–§5). Whether a view answers, and by which algorithm, is
// core.Algorithm's to say. nil means "no applicable view": the caller plans
// the query natively.
func Derive(cat *catalog.Catalog, sel *sqlparser.Select) *Derivation {
	wq, err := MatchWindowQuery(sel)
	if err != nil {
		return nil // not the canonical shape; not an error
	}
	partCol := ""
	switch len(wq.PartitionBy) {
	case 0:
	case 1:
		// One partition column: answerable from a partitioned sequence view
		// (a "complete reporting function" with header/trailer per
		// partition, §6.2).
		partCol = wq.PartitionBy[0]
	default:
		return nil // multi-column partitioning stays at the core layer
	}
	if !plainColsMatch(wq, partCol) {
		return nil // only SELECT [part,] pos, agg OVER … is view-answerable
	}
	valCol := wq.ValCol
	if wq.Agg == core.Count && valCol == "" {
		valCol = wq.PosCol // COUNT(*) ≡ COUNT(pos) over a dense position column
	}
	cols := deriveColumns(wq, sel)
	if !namesOutputs(wq, sel.OrderBy, cols) {
		return nil // the Derive operator's output cannot sort by the key
	}
	// AVG is a SUM derivation divided by the counts the window implies
	// (§2.1): SUM and AVG views both store SUM sequences.
	v, algo := pickView(cat.SequenceViewsOver(wq.Table, wq.PosCol, partCol, valCol, wq.Agg.Stored()), wq.Shape)
	if v == nil {
		return nil
	}
	d := &Derivation{View: v, Plan: &sqlparser.DeriveSelect{
		Source:  sqlparser.DeriveSource{View: v.Name, Agg: v.Agg.Stored(), Window: v.Window, Algo: algo},
		Agg:     wq.Agg,
		Target:  wq.Shape,
		Columns: cols,
		OrderBy: sel.OrderBy,
		Limit:   sel.Limit,
	}}
	if !v.Window.Cumulative && !wq.Shape.Cumulative {
		d.DeltaL = wq.Shape.Preceding - v.Window.Preceding
		d.DeltaH = wq.Shape.Following - v.Window.Following
		d.Wx = 1 + v.Window.Preceding + v.Window.Following
	}
	return d
}

// pickView chooses the candidate view a derivation will run against, asking
// core.Algorithm once per candidate — an error declines the view. The
// identical window wins outright; then sliding views beat cumulative ones,
// the largest materialized window first (the fewest telescoping terms in the
// explicit forms and their SQL patterns). Candidates arrive sorted by name and the first of equals wins, so
// the choice — and every cached or explained plan — is stable across runs.
func pickView(candidates []*catalog.MatView, target core.Window) (*catalog.MatView, core.Algo) {
	var best *catalog.MatView
	var bestAlgo core.Algo
	bestRank := -1
	for _, v := range candidates {
		algo, err := core.Algorithm(v.Window, v.Agg.Stored(), target)
		if err != nil {
			continue
		}
		rank := 0 // cumulative
		switch {
		case algo == core.AlgoExact:
			return v, algo
		case !v.Window.Cumulative:
			rank = 1 + v.Window.Preceding + v.Window.Following
		}
		if rank > bestRank {
			best, bestAlgo, bestRank = v, algo, rank
		}
	}
	return best, bestAlgo
}

// plainColsMatch checks the non-window select items are the position
// column and, for partitioned queries, at most the partition column: the
// Derive operator partitions by the view's column whether or not the query
// selects it.
func plainColsMatch(wq *WindowQuery, partCol string) bool {
	sawPos, sawPart := false, false
	for _, c := range wq.PlainCols {
		switch {
		case strings.EqualFold(c, wq.PosCol) && !sawPos:
			sawPos = true
		case partCol != "" && strings.EqualFold(c, partCol) && !sawPart:
			sawPart = true
		default:
			return false
		}
	}
	return sawPos
}

// deriveColumns are the query's output columns in select-list order: the
// plain columns by role, the reporting function as the derived value, each
// under the name native evaluation gives it (sqlparser.SelectItem.Name).
func deriveColumns(wq *WindowQuery, sel *sqlparser.Select) []sqlparser.DeriveColumn {
	cols := make([]sqlparser.DeriveColumn, len(sel.Items))
	for i, it := range sel.Items {
		kind := sqlparser.DerivePart
		switch {
		case i == wq.WindowItemAt:
			kind = sqlparser.DeriveValue
		case strings.EqualFold(it.Expr.(*sqlparser.ColumnRef).Name, wq.PosCol):
			kind = sqlparser.DerivePos
		}
		cols[i] = sqlparser.DeriveColumn{Name: it.Name(i), Kind: kind}
	}
	return cols
}

// namesOutputs reports whether every ORDER BY key names exactly one output
// column as native evaluation resolves it: by the window's alias or a plain
// column's name, never by a name the window item was given for want of one.
func namesOutputs(wq *WindowQuery, keys []sqlparser.OrderItem, cols []sqlparser.DeriveColumn) bool {
	for _, k := range keys {
		cr, ok := k.Expr.(*sqlparser.ColumnRef)
		if !ok || cr.Table != "" {
			return false
		}
		n := 0
		for _, c := range cols {
			if strings.EqualFold(c.Name, cr.Name) && (c.Kind != sqlparser.DeriveValue || wq.OutAlias != "") {
				n++
			}
		}
		if n != 1 {
			return false
		}
	}
	return true
}
