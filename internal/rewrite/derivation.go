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
	if wq.Agg == "COUNT" && valCol == "" {
		valCol = wq.PosCol // COUNT(*) ≡ COUNT(pos) over a dense position column
	}
	// AVG is a SUM derivation divided by the counts the window implies
	// (§2.1): SUM and AVG views both store SUM sequences.
	stored := wq.Agg
	if stored == "AVG" {
		stored = "SUM"
	}
	target := core.Window(wq.Shape)
	v, algo := pickView(cat.SequenceViewsOver(wq.Table, wq.PosCol, partCol, valCol, stored), target)
	if v == nil {
		return nil
	}
	d := &Derivation{View: v, Plan: &sqlparser.DeriveSelect{
		Source:  sqlparser.DeriveSource{View: v.Name, Agg: stored, Window: sqlparser.SeqWindow(v.Window), Algo: algo},
		Agg:     wq.Agg,
		Target:  sqlparser.SeqWindow(wq.Shape),
		Columns: deriveColumns(wq),
	}}
	if !v.Window.Cumulative && !target.Cumulative {
		d.DeltaL = target.Preceding - v.Window.Preceding
		d.DeltaH = target.Following - v.Window.Following
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
		agg, err := core.ParseAgg(v.Stored())
		if err != nil {
			continue
		}
		algo, err := core.Algorithm(core.Window(v.Window), agg, target)
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

// plainColsMatch checks the non-window select items are exactly the
// position column (and, for partitioned queries, the partition column).
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
	return sawPos && (partCol == "" || sawPart)
}

// deriveColumns are the query's output columns in select-list order: the
// plain columns by role, the reporting function as the derived value.
func deriveColumns(wq *WindowQuery) []sqlparser.DeriveColumn {
	value := sqlparser.DeriveColumn{Name: outAlias(wq), Kind: sqlparser.DeriveValue}
	cols := make([]sqlparser.DeriveColumn, 0, len(wq.PlainCols)+1)
	for _, c := range wq.PlainCols {
		if len(cols) == wq.WindowItemAt {
			cols = append(cols, value)
		}
		kind := sqlparser.DerivePart
		if strings.EqualFold(c, wq.PosCol) {
			kind = sqlparser.DerivePos
		}
		cols = append(cols, sqlparser.DeriveColumn{Name: c, Kind: kind})
	}
	if len(cols) == len(wq.PlainCols) {
		cols = append(cols, value)
	}
	return cols
}

// outAlias returns the output column name for the derived value.
func outAlias(wq *WindowQuery) string {
	if wq.OutAlias != "" {
		return wq.OutAlias
	}
	return "val"
}
