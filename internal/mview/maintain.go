package mview

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
	"rfview/internal/txn"
)

// This file folds base-table DML into materialized sequence views using the
// incremental rules of §2.3. Density-preserving changes patch only the
// affected band of view rows; anything else marks the view stale. Fold runs
// under the engine's exclusive lock and applies a commit's deltas inside the
// commit itself, so readers never pay for freshness.

// Stats carries the maintenance counters, readable without the manager lock.
type Stats struct {
	// DeltaApplied counts DML deltas folded into a view incrementally.
	DeltaApplied atomic.Int64
	// MaintenanceEvents counts the row changes those deltas applied, one
	// §2.3 rule each.
	MaintenanceEvents atomic.Int64
	// FullRefreshes counts REFRESH MATERIALIZED VIEW recomputes of sequence
	// views — the §2.3 alternative the delta path avoids.
	FullRefreshes atomic.Int64
}

// Stats returns the manager's maintenance counters.
func (m *Manager) Stats() *Stats { return &m.stats }

// Fold folds a transaction's deltas, in order, into every fresh sequence
// view over their tables, updating the stats counters and the touched-rows
// observer. tx is the committing transaction: backing-table writes join its
// write-set and become visible at its publication instant, and a view the
// deltas break is stale from the epoch it publishes. The base table already
// holds every delta's writes. The committer holds its commit serialization
// from here to publication, so the clock's next epoch is tx's.
func (m *Manager) Fold(tx *txn.Txn, deltas []txn.Delta) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, sv := range m.seq {
		if sv.stale() {
			continue
		}
		var changes []change
		var ends []int // the end of each delta's changes
		for _, d := range deltas {
			if !strings.EqualFold(sv.mv.BaseTable, d.Table) {
				continue
			}
			cs, why := sv.changes(d)
			if why != "" {
				m.markStale(sv, why)
				break
			}
			changes = append(changes, cs...)
			ends = append(ends, len(changes))
		}
		if !sv.stale() {
			m.foldChanges(tx, sv, changes, ends)
		}
	}
}

// change is one base row change in a view's terms: a §2.3 operation on one
// partition.
type change struct {
	part sqltypes.Datum
	op   core.Op
}

// colIndex finds a column in the insert layout (cols may be the insert
// statement's explicit column list).
func colIndex(cols []string, name string) int {
	for i, c := range cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// byPos returns rows ordered by position: ascending, so appends arrive as
// n+1, n+2, …; descending, so suffix deletes arrive as n, n−1, ….
func byPos(rows []sqltypes.Row, pi int, desc bool) []sqltypes.Row {
	ordered := append([]sqltypes.Row(nil), rows...)
	sort.Slice(ordered, func(a, b int) bool {
		return (ordered[a][pi].Int() < ordered[b][pi].Int()) != desc
	})
	return ordered
}

// changes translates one delta into the view's changes, or says why the
// §2.3 rules cannot absorb it.
func (sv *seqView) changes(d txn.Delta) (out []change, why string) {
	find := func(name string) int { return colIndex(d.Cols, name) }
	pi, vi := find(sv.mv.PosColumn), find(sv.mv.ValColumn)
	gi, ok := sv.lay.partOrd(find)
	if !ok || pi < 0 || vi < 0 {
		return nil, "change without position, value or partition column"
	}
	numeric := func(v sqltypes.Datum) bool { return !v.IsNull() && v.Typ().Numeric() }
	switch d.Kind {
	case txn.DeltaInsert, txn.DeltaDelete:
		// Appends at n_p+1 — position 1 of a new key is a partition birth —
		// and deletes of n_p — the last row's is a death — stay incremental.
		kind := core.OpInsert
		if d.Kind == txn.DeltaDelete {
			kind = core.OpDelete
		}
		for _, row := range byPos(d.Rows, pi, kind == core.OpDelete) {
			p, v := row[pi], row[vi]
			part, ok := sv.lay.partOf(row, gi)
			if p.IsNull() || p.Typ() != sqltypes.Int || !numeric(v) || !ok {
				return nil, "row has a bad position, value or partition key"
			}
			op := core.Op{Kind: kind, K: int(p.Int()), New: v.Float()}
			if kind == core.OpDelete {
				op.Old, op.New = op.New, 0
			}
			out = append(out, change{part, op})
		}
	case txn.DeltaUpdate:
		for i, before := range d.Before {
			after := d.After[i]
			bpart, bok := sv.lay.partOf(before, gi)
			part, ok := sv.lay.partOf(after, gi)
			switch av := after[vi]; {
			case !sqltypes.Equal(before[pi], after[pi]):
				return nil, "position column updated"
			case !bok || !ok:
				return nil, "partition key updated to or from NULL"
			case !sqltypes.Equal(bpart, part):
				return nil, "partition column updated"
			case valueUnchanged(before[vi], av):
			case !numeric(av):
				return nil, "value updated to non-numeric"
			default:
				op := core.Op{Kind: core.OpUpdate, K: int(after[pi].Int()), Old: before[vi].Float(), New: av.Float()}
				out = append(out, change{part, op})
			}
		}
	}
	return out, ""
}

// valueUnchanged reports whether an updated value carries the same bits.
// sqltypes.Equal is a SQL comparison: it calls NaN equal to any float and −0
// equal to +0, which would silently drop exactly the updates whose bit
// patterns the view must track to stay refresh-identical.
func valueUnchanged(a, b sqltypes.Datum) bool {
	if (a.Typ() == sqltypes.Float || b.Typ() == sqltypes.Float) &&
		!a.IsNull() && !b.IsNull() && a.Typ().Numeric() && b.Typ().Numeric() {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return sqltypes.Equal(a, b)
}

// foldChanges applies a view's changes in order, ends marking where each
// delta's end; what the §2.3 rules cannot absorb marks the view stale and
// ends the fold. The base table holds the writes of every change already:
// the store's raw data steps through them one change at a time.
func (m *Manager) foldChanges(tx *txn.Txn, sv *seqView, changes []change, ends []int) {
	st := &backingStore{m: m, tx: tx, sv: sv, changes: changes}
	touched, next := 0, 0
	delta := func(done int) { // count the deltas whose changes are all in
		for ; next < len(ends) && ends[next] <= done; next++ {
			m.stats.DeltaApplied.Add(1)
			if m.observeTouched != nil {
				m.observeTouched(float64(touched))
			}
			touched = 0
		}
	}
	delta(0)
	for i, c := range changes {
		st.part, st.at = c.part, i
		st.raw.step(c, false)
		t, err := core.Apply(st, windowOfSpec(sv.mv.Window), sv.agg, c.op)
		if err != nil {
			m.markStale(sv, err.Error())
			return
		}
		m.stats.MaintenanceEvents.Add(1)
		touched += t
		delta(i + 1)
	}
}

// markStale ends the view's freshness at the epoch the breaking commit
// publishes: readers of earlier snapshots may still read it.
func (m *Manager) markStale(sv *seqView, why string) {
	if !sv.stale() {
		sv.staleFrom, sv.staleSince = m.cat.Clock().Next(), time.Now()
	}
	sv.staleWhy = why
}

// shiftTarget resolves the view and base table of a positional shift (§2.3),
// which renumbers the one sequence of a simple view. The shift's view
// writes take the base table as its transaction found it, so tx must not
// hold DML on the base already: its deltas, folded at commit, would name
// positions the shift renumbered.
func (m *Manager) shiftTarget(tx *txn.Txn, viewName string) (*seqView, *catalog.Table, error) {
	sv, ok := m.seq[lower(viewName)]
	if !ok {
		return nil, nil, fmt.Errorf("materialized view %q is not a sequence view", viewName)
	}
	if sv.lay.keyed() {
		return nil, nil, fmt.Errorf("positional shifts apply to simple sequence views only")
	}
	for _, d := range tx.Deltas {
		if strings.EqualFold(d.Table, sv.mv.BaseTable) {
			return nil, nil, fmt.Errorf("a positional shift cannot follow DML on %q in one transaction", d.Table)
		}
	}
	base, err := m.cat.Table(sv.mv.BaseTable)
	return sv, base, err
}

// ShiftInsert performs the paper's positional insert (§2.3) inside tx: a
// value enters at position k and every later position shifts right —
// applied to BOTH the base table (renumbering its position column) and the
// view (via the incremental insert rule), so tx's commit publishes both at
// one epoch. This is the sequence-semantics operation the relational INSERT
// cannot express while keeping positions dense. On an error the caller
// rolls tx back.
func (m *Manager) ShiftInsert(tx *txn.Txn, viewName string, k int, val float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sv, base, err := m.shiftTarget(tx, viewName)
	if err != nil {
		return err
	}
	if err := shiftBase(tx, base, sv.mv.PosColumn, sv.mv.ValColumn, k, &val, true); err != nil {
		return err
	}
	return m.shift(tx, sv, core.Op{Kind: core.OpInsert, K: k, New: val, Shift: true})
}

// ShiftDelete removes position k inside tx, shifting later positions left
// (§2.3).
func (m *Manager) ShiftDelete(tx *txn.Txn, viewName string, k int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sv, base, err := m.shiftTarget(tx, viewName)
	if err != nil {
		return err
	}
	if err := shiftBase(tx, base, sv.mv.PosColumn, sv.mv.ValColumn, k, nil, false); err != nil {
		return err
	}
	return m.shift(tx, sv, core.Op{Kind: core.OpDelete, K: k, Shift: true})
}

// shift folds a positional shift the base table already holds into the view.
func (m *Manager) shift(tx *txn.Txn, sv *seqView, op core.Op) error {
	if _, err := core.Apply(&backingStore{m: m, tx: tx, sv: sv}, windowOfSpec(sv.mv.Window), sv.agg, op); err != nil {
		return err
	}
	m.stats.MaintenanceEvents.Add(1)
	return nil
}

// shiftBase renumbers the base table's position column around a positional
// insert (withValue=true) or delete, as pending writes of tx.
func shiftBase(tx *txn.Txn, base *catalog.Table, posCol, valCol string, k int, val *float64, insert bool) error {
	pi := base.ColumnIndex(posCol)
	vi := base.ColumnIndex(valCol)
	if pi < 0 || vi < 0 {
		return fmt.Errorf("mview: base table lost its sequence columns")
	}
	type target struct {
		id  storage.RowID
		row sqltypes.Row
	}
	var touch []target
	if err := base.Heap.ScanAt(base.Heap.WriteView(tx), func(id storage.RowID, row sqltypes.Row) bool {
		if int(row[pi].Int()) >= k {
			touch = append(touch, target{id, row})
		}
		return true
	}); err != nil {
		return err
	}
	if insert {
		// Shift right in descending order to avoid transient duplicates.
		sort.Slice(touch, func(a, b int) bool { return touch[a].row[pi].Int() > touch[b].row[pi].Int() })
		for _, t := range touch {
			nr := t.row.Clone()
			nr[pi] = sqltypes.NewInt(t.row[pi].Int() + 1)
			if _, err := base.Heap.UpdateTx(tx, t.id, nr); err != nil {
				return err
			}
		}
		nr := make(sqltypes.Row, len(base.Columns))
		for i := range nr {
			nr[i] = sqltypes.NullDatum
		}
		nr[pi] = sqltypes.NewInt(int64(k))
		if base.Columns[vi].Type == sqltypes.Int {
			nr[vi] = sqltypes.NewInt(int64(*val))
		} else {
			nr[vi] = sqltypes.NewFloat(*val)
		}
		_, err := base.Heap.InsertTx(tx, nr)
		return err
	}
	// Delete: remove position k, shift the rest left in ascending order.
	sort.Slice(touch, func(a, b int) bool { return touch[a].row[pi].Int() < touch[b].row[pi].Int() })
	for _, t := range touch {
		if int(t.row[pi].Int()) == k {
			if err := base.Heap.DeleteTx(tx, t.id); err != nil {
				return err
			}
			continue
		}
		nr := t.row.Clone()
		nr[pi] = sqltypes.NewInt(t.row[pi].Int() - 1)
		if _, err := base.Heap.UpdateTx(tx, t.id, nr); err != nil {
			return err
		}
	}
	return nil
}
