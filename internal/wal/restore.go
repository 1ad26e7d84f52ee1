package wal

import (
	"fmt"
	"math"

	"rfview/internal/catalog"
	"rfview/internal/engine"
	"rfview/internal/mview"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
)

// captureState dumps a quiesced engine into a Snapshot. Callers must hold
// the engine's exclusive lock (or own the engine outright), so the catalog,
// heaps, and view manager are mutually consistent.
func captureState(e *engine.Engine, lsn uint64) (*Snapshot, error) {
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
		if err := t.Heap.Scan(func(_ storage.RowID, row sqltypes.Row) bool {
			out := make([]SnapDatum, len(row))
			for i, d := range row {
				out[i] = dumpDatum(d)
			}
			st.Rows = append(st.Rows, out)
			return true
		}); err != nil {
			return nil, err
		}
		for _, idx := range t.Indexes {
			snap.Indexes = append(snap.Indexes, SnapIndex{
				Name: idx.Name, Table: idx.Table, Columns: idx.Columns,
				Unique: idx.Unique, Ordered: true,
			})
		}
		snap.Tables = append(snap.Tables, st)
	}
	for _, mv := range e.Cat.MatViews() {
		stale, why := e.Views.StaleInfo(mv.Name)
		n, err := bodyLen(mv)
		if err != nil {
			return nil, err
		}
		snap.MatViews = append(snap.MatViews, SnapMatView{
			Name: mv.Name, Kind: uint8(mv.Kind), Backing: mv.Table.Name,
			BaseTable: mv.BaseTable, PosColumn: mv.PosColumn,
			PartColumn: mv.PartColumn, ValColumn: mv.ValColumn, Agg: mv.Agg,
			Window: SnapWindow{
				Cumulative: mv.Window.Cumulative,
				Preceding:  mv.Window.Preceding,
				Following:  mv.Window.Following,
			},
			N: n, Definition: mv.Definition,
			Stale: stale, StaleWhy: why,
		})
	}
	return snap, nil
}

// bodyLen is a simple sequence view's n as its stored rows say: the last
// position less the trailer (a partitioned view records 0).
func bodyLen(mv *catalog.MatView) (int, error) {
	if mv.Kind != catalog.SequenceView || mv.PartColumn != "" {
		return 0, nil
	}
	pos, last := mv.Table.ColumnIndex("pos"), 0
	err := mv.Table.Heap.Scan(func(_ storage.RowID, row sqltypes.Row) bool {
		last = max(last, int(row[pos].Int()))
		return true
	})
	if !mv.Window.Cumulative {
		last -= mv.Window.Preceding
	}
	return max(last, 0), err
}

// restoreState rebuilds a fresh engine from a snapshot: heaps first, then
// indexes (rebuilt from the restored rows), then materialized views (catalog
// registration plus maintainer reconstruction from the restored base
// tables). Storage version counters restart from zero in the new engine —
// together with the empty plan/result cache of a fresh engine, no cached
// entry keyed on pre-crash versions can survive into the recovered process.
func restoreState(e *engine.Engine, snap *Snapshot) error {
	for _, st := range snap.Tables {
		cols := make([]catalog.Column, len(st.Columns))
		for i, c := range st.Columns {
			cols[i] = catalog.Column{Name: c.Name, Type: sqltypes.Type(c.Type)}
		}
		t, err := e.Cat.CreateTable(st.Name, cols)
		if err != nil {
			return fmt.Errorf("wal: restore table %q: %w", st.Name, err)
		}
		for _, sr := range st.Rows {
			row := make(sqltypes.Row, len(sr))
			for i, d := range sr {
				row[i] = loadDatum(d)
			}
			if _, err := t.Heap.Insert(row); err != nil {
				return fmt.Errorf("wal: restore rows of %q: %w", st.Name, err)
			}
		}
	}
	for _, idx := range snap.Indexes {
		if _, err := e.Cat.CreateIndex(idx.Name, idx.Table, idx.Columns, idx.Unique); err != nil {
			return fmt.Errorf("wal: restore index %q: %w", idx.Name, err)
		}
	}
	for _, smv := range snap.MatViews {
		view := &catalog.MatView{
			Name: smv.Name, Kind: catalog.MatViewKind(smv.Kind),
			BaseTable: smv.BaseTable, PosColumn: smv.PosColumn,
			PartColumn: smv.PartColumn, ValColumn: smv.ValColumn,
			Agg: smv.Agg,
			Window: catalog.WindowSpec{
				Cumulative: smv.Window.Cumulative,
				Preceding:  smv.Window.Preceding,
				Following:  smv.Window.Following,
			},
			Definition: smv.Definition,
		}
		spec := mview.RestoreSpec{
			View:     view,
			Backing:  smv.Backing,
			Stale:    smv.Stale,
			StaleWhy: smv.StaleWhy,
		}
		if err := e.Views.Restore(spec); err != nil {
			return fmt.Errorf("wal: restore view %q: %w", smv.Name, err)
		}
	}
	return nil
}

func dumpDatum(d sqltypes.Datum) SnapDatum {
	switch d.Typ() {
	case sqltypes.Null:
		return SnapDatum{T: uint8(sqltypes.Null)}
	case sqltypes.Bool:
		var i int64
		if d.Bool() {
			i = 1
		}
		return SnapDatum{T: uint8(sqltypes.Bool), I: i}
	case sqltypes.Int:
		return SnapDatum{T: uint8(sqltypes.Int), I: d.Int()}
	case sqltypes.Float:
		return SnapDatum{T: uint8(sqltypes.Float), F: math.Float64bits(d.Float())}
	case sqltypes.String:
		return SnapDatum{T: uint8(sqltypes.String), S: d.Str()}
	case sqltypes.Date:
		return SnapDatum{T: uint8(sqltypes.Date), I: d.Int()}
	default:
		return SnapDatum{T: uint8(sqltypes.Null)}
	}
}

func loadDatum(sd SnapDatum) sqltypes.Datum {
	switch sqltypes.Type(sd.T) {
	case sqltypes.Bool:
		return sqltypes.NewBool(sd.I != 0)
	case sqltypes.Int:
		return sqltypes.NewInt(sd.I)
	case sqltypes.Float:
		return sqltypes.NewFloat(math.Float64frombits(sd.F))
	case sqltypes.String:
		return sqltypes.NewString(sd.S)
	case sqltypes.Date:
		return sqltypes.NewDate(sd.I)
	default:
		return sqltypes.NullDatum
	}
}
