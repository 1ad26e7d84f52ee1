package plan

import (
	"fmt"

	rferrors "rfview/errors"
	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/exec"
	"rfview/internal/sqlparser"
)

// planDerive lowers the rewriter's decision to the Derive operator over one
// scan of the view it names. The node says which view and which windows;
// where the view's rows and columns are is the catalog's to say.
func (p *Planner) planDerive(s *sqlparser.DeriveSelect) (exec.Operator, error) {
	in, err := p.deriveInput(s.Source)
	if err != nil {
		return nil, err
	}
	if s.Agg.Stored() != in.Agg {
		return nil, fmt.Errorf("plan: %v is not derivable from the %v view %q", s.Agg, in.Agg, in.View)
	}
	for _, c := range s.Columns {
		if c.Kind == sqlparser.DerivePart && in.Part < 0 {
			return nil, fmt.Errorf("plan: view %q has no partition column for output column %q", in.View, c.Name)
		}
	}
	d := exec.NewDerive(in, s.Agg, s.Target, s.Columns)
	d.Ctx, d.Spill = p.Opts.Ctx, p.Opts.Spill
	return p.orderAndLimit(d, s.OrderBy, s.Limit)
}

// deriveInput resolves the source of a derivation against the catalog: the
// scan of the view's backing table at the statement's snapshot, and the
// layout mview gives it — (pos, val), or (part, pos, val, body).
func (p *Planner) deriveInput(src sqlparser.DeriveSource) (exec.DeriveInput, error) {
	v, ok := p.Cat.MatView(src.View)
	if !ok {
		return exec.DeriveInput{}, rferrors.New(rferrors.CodeUnknownView, "materialized view %q does not exist", src.View)
	}
	if v.Kind != catalog.SequenceView || !v.Window.Equal(src.Window) || v.Agg.Stored() != src.Agg {
		return exec.DeriveInput{}, fmt.Errorf("plan: view %q is not the %s %s sequence view the derivation was made for", src.View, src.Agg, src.Window)
	}
	scan := exec.NewScan(v.Table, v.Name)
	scan.Snap = p.Opts.Snap
	in := exec.DeriveInput{
		Scan: scan, View: v.Name, Win: src.Window, Agg: src.Agg,
		Algo: src.Algo,
		Part: v.Table.ColumnIndex("part"), Pos: v.Table.ColumnIndex("pos"),
		Val: v.Table.ColumnIndex("val"), Body: v.Table.ColumnIndex("body"),
		Rows: v.Table.Heap.Len(),
	}
	return in, nil
}

// planQuotients plans a read of an AVG view by name as the Derive operator in
// complete mode: the view's backing layout, header and trailer included,
// with each stored sum divided by the count its window holds — the rows of
// the view's query — under the reference name ref.
func (p *Planner) planQuotients(v *catalog.MatView, ref string) (exec.Operator, error) {
	in, err := p.deriveInput(sqlparser.DeriveSource{View: v.Name, Agg: v.Agg.Stored(), Window: v.Window, Algo: core.AlgoExact})
	if err != nil {
		return nil, err
	}
	kinds := map[string]sqlparser.DeriveColumnKind{"part": sqlparser.DerivePart, "pos": sqlparser.DerivePos, "val": sqlparser.DeriveValue, "body": sqlparser.DeriveBody}
	cols := make([]sqlparser.DeriveColumn, len(v.Table.Columns))
	for i, c := range v.Table.Columns {
		cols[i] = sqlparser.DeriveColumn{Name: c.Name, Kind: kinds[c.Name]}
	}
	d := exec.NewDerive(in, core.Avg, in.Win, cols)
	d.Complete, d.Ctx, d.Spill = true, p.Opts.Ctx, p.Opts.Spill
	return requalified(d, ref), nil
}
