package wal

import (
	"fmt"

	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/engine"
	"rfview/internal/mview"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
	"rfview/internal/txn"
)

// captureState dumps a quiesced engine into a Snapshot. Callers must hold
// the engine's exclusive lock (or own the engine outright), so the catalog,
// heaps, and view manager are mutually consistent. The capture reads at one
// snapshot, registered with the commit clock for its duration like any
// other reader's.
func captureState(e *engine.Engine, lsn uint64) (*Snapshot, error) {
	reg, epoch := e.Cat.Clock().Register()
	defer reg.Release()
	at := txn.Snapshot{Epoch: epoch}
	snap := &Snapshot{LSN: lsn}
	for _, name := range e.Cat.Tables() {
		t, err := e.Cat.Table(name)
		if err != nil {
			return nil, err
		}
		st := SnapTable{Name: t.Name}
		for _, c := range t.Columns {
			st.Columns = append(st.Columns, SnapColumn{Name: c.Name, Type: uint8(c.Type)})
		}
		if err := t.Heap.ScanAt(at, func(_ storage.RowID, row sqltypes.Row) bool {
			st.Rows = sqltypes.EncodeRows(st.Rows, row)
			return true
		}); err != nil {
			return nil, err
		}
		for _, idx := range t.Indexes {
			snap.Indexes = append(snap.Indexes, SnapIndex{Name: idx.Name, Table: idx.Table, Columns: idx.Columns, Unique: idx.Unique})
		}
		snap.Tables = append(snap.Tables, st)
	}
	for _, mv := range e.Cat.MatViews() {
		stale, why := e.Views.StaleInfo(mv.Name)
		agg := "" // a plain view has no aggregate
		if mv.Kind == catalog.SequenceView {
			agg = mv.Agg.String()
		}
		snap.MatViews = append(snap.MatViews, SnapMatView{
			Name: mv.Name, Kind: uint8(mv.Kind), Backing: mv.Table.Name,
			BaseTable: mv.BaseTable, PosColumn: mv.PosColumn,
			PartColumn: mv.PartColumn, ValColumn: mv.ValColumn, Agg: agg,
			Window: SnapWindow(mv.Window), Definition: mv.Definition, Stale: stale, StaleWhy: why,
		})
	}
	return snap, nil
}

// restoreState rebuilds a fresh engine from a snapshot: heaps first, their
// rows in one transaction that commits at one epoch, then indexes (rebuilt
// from the restored rows), then materialized views (catalog registration
// against their restored backing tables). Storage version counters restart
// from zero in the new engine — together with the empty plan/result cache of
// a fresh engine, no cached entry keyed on pre-crash versions can survive
// into the recovered process. A view's rows are its backing table's: a
// restore reads no base row.
func restoreState(e *engine.Engine, snap *Snapshot) error {
	tx := e.BeginTxn()
	for _, st := range snap.Tables {
		cols := make([]catalog.Column, len(st.Columns))
		for i, c := range st.Columns {
			cols[i] = catalog.Column{Name: c.Name, Type: sqltypes.Type(c.Type)}
		}
		t, err := e.Cat.CreateTable(st.Name, cols)
		if err == nil {
			var rows []sqltypes.Row
			rows, err = sqltypes.DecodeRows(st.Rows)
			for i := 0; err == nil && i < len(rows); i++ {
				_, err = t.Heap.InsertTx(tx, rows[i])
			}
		}
		if err != nil {
			e.RollbackTxn(tx)
			return fmt.Errorf("wal: restore table %q: %w", st.Name, err)
		}
	}
	if err := e.CommitTxn(tx); err != nil {
		return fmt.Errorf("wal: restore rows: %w", err)
	}
	for _, idx := range snap.Indexes {
		if _, err := e.Cat.CreateIndex(idx.Name, idx.Table, idx.Columns, idx.Unique); err != nil {
			return fmt.Errorf("wal: restore index %q: %w", idx.Name, err)
		}
	}
	for _, smv := range snap.MatViews {
		view := &catalog.MatView{
			Name: smv.Name, Kind: catalog.MatViewKind(smv.Kind),
			BaseTable: smv.BaseTable, PosColumn: smv.PosColumn, PartColumn: smv.PartColumn, ValColumn: smv.ValColumn,
			Window: core.Window(smv.Window), Definition: smv.Definition,
		}
		if view.Kind == catalog.SequenceView {
			agg, err := core.ParseAgg(smv.Agg)
			if err != nil {
				return fmt.Errorf("wal: restore view %q: %w", smv.Name, err)
			}
			view.Agg = agg
		}
		spec := mview.RestoreSpec{View: view, Backing: smv.Backing, Stale: smv.Stale, StaleWhy: smv.StaleWhy}
		if err := e.Views.Restore(spec); err != nil {
			return fmt.Errorf("wal: restore view %q: %w", smv.Name, err)
		}
	}
	return nil
}
