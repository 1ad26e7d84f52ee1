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
// affected band of view rows; anything else marks the view stale. The After*
// hooks run under the engine's exclusive lock and apply the delta inside the
// write itself, so readers never pay for freshness.

// Stats carries the maintenance counters, readable without the manager lock.
type Stats struct {
	// DeltaApplied counts DML deltas folded into a view incrementally.
	DeltaApplied atomic.Int64
	// FullRefreshes counts REFRESH MATERIALIZED VIEW recomputes of sequence
	// views — the §2.3 alternative the delta path avoids.
	FullRefreshes atomic.Int64
}

// Stats returns the manager's maintenance counters.
func (m *Manager) Stats() *Stats { return &m.stats }

// AfterInsert is called by the engine once rows have been inserted into a
// base table. tx, when non-nil, is the committing transaction: backing-table
// writes join its write-set and become visible at its publication instant.
func (m *Manager) AfterInsert(tx *txn.Txn, table string, rows []sqltypes.Row, cols []string) {
	m.applyDelta(tx, table, func(sv *seqView) { m.applyInserts(sv, rows, cols) })
}

// AfterUpdate is called with the before/after images of updated base rows.
func (m *Manager) AfterUpdate(tx *txn.Txn, table string, before, after []sqltypes.Row, cols []string) {
	m.applyDelta(tx, table, func(sv *seqView) { m.applyUpdates(sv, before, after, cols) })
}

// AfterDelete is called with the images of deleted base rows.
func (m *Manager) AfterDelete(tx *txn.Txn, table string, deleted []sqltypes.Row, cols []string) {
	m.applyDelta(tx, table, func(sv *seqView) { m.applyDeletes(sv, deleted, cols) })
}

// applyDelta folds one DML delta into every fresh sequence view over table,
// updating the stats counters and the touched-rows observer.
func (m *Manager) applyDelta(tx *txn.Txn, table string, fold func(sv *seqView)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.curTx = tx
	defer func() { m.curTx = nil }()
	for _, sv := range m.seq {
		if !strings.EqualFold(sv.mv.BaseTable, table) || sv.stale() {
			continue
		}
		before := sv.parts.Touched()
		fold(sv)
		if sv.stale() {
			continue
		}
		m.stats.DeltaApplied.Add(1)
		if m.observeTouched != nil {
			m.observeTouched(float64(sv.parts.Touched() - before))
		}
	}
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

// locate finds the view's position, value and partition columns in a DML
// delta's column layout.
func (sv *seqView) locate(cols []string) (pi, vi, gi int, ok bool) {
	find := func(name string) int { return colIndex(cols, name) }
	pi, vi = find(sv.mv.PosColumn), find(sv.mv.ValColumn)
	gi, ok = sv.lay.partOrd(find)
	return pi, vi, gi, ok && pi >= 0 && vi >= 0
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

func (m *Manager) applyInserts(sv *seqView, rows []sqltypes.Row, cols []string) {
	pi, vi, gi, ok := sv.locate(cols)
	if !ok {
		m.markStale(sv, "insert without position, value or partition column")
		return
	}
	for _, row := range byPos(rows, pi, false) {
		p, v := row[pi], row[vi]
		part, key, ok := sv.lay.partOf(row, gi)
		if p.IsNull() || p.Typ() != sqltypes.Int || v.IsNull() || !v.Typ().Numeric() || !ok {
			m.markStale(sv, "inserted row has bad position, value, or partition key")
			return
		}
		// Appends at n_p+1 — position 1 of a new key is a partition birth —
		// stay incremental.
		pos := int(p.Int())
		if !m.fold(sv, part, key, pos, true, func() error {
			_, _, err := sv.parts.Append(key, pos, v.Float())
			return err
		}) {
			return
		}
	}
}

func (m *Manager) applyUpdates(sv *seqView, before, after []sqltypes.Row, cols []string) {
	pi, vi, gi, ok := sv.locate(cols)
	if !ok {
		m.markStale(sv, "update on untracked columns")
		return
	}
	for i := range before {
		_, bkey, _ := sv.lay.partOf(before[i], gi)
		part, key, _ := sv.lay.partOf(after[i], gi)
		av := after[i][vi]
		switch {
		case !sqltypes.Equal(before[i][pi], after[i][pi]):
			m.markStale(sv, "position column updated")
			return
		case bkey != key:
			m.markStale(sv, "partition column updated")
			return
		case valueUnchanged(before[i][vi], av):
			continue
		case av.IsNull() || !av.Typ().Numeric():
			m.markStale(sv, "value updated to non-numeric")
			return
		}
		pos := int(after[i][pi].Int())
		if !m.fold(sv, part, key, pos, false, func() error { return sv.parts.Update(key, pos, av.Float()) }) {
			return
		}
	}
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

func (m *Manager) applyDeletes(sv *seqView, deleted []sqltypes.Row, cols []string) {
	pi, _, gi, ok := sv.locate(cols)
	if !ok {
		m.markStale(sv, "delete without position, value or partition column")
		return
	}
	for _, row := range byPos(deleted, pi, true) {
		part, key, ok := sv.lay.partOf(row, gi)
		if row[pi].IsNull() || !ok {
			m.markStale(sv, "deleted row lacks position or partition key")
			return
		}
		// Only deleting position n_p keeps a partition dense; deleting its
		// last row kills it.
		pos := int(row[pi].Int())
		if !m.fold(sv, part, key, pos, true, func() error {
			_, err := sv.parts.DeleteSuffix(key, pos)
			return err
		}) {
			return
		}
	}
}

// fold applies one DML row to its partition; what the §2.3 rules cannot
// absorb marks the view stale and ends the delta.
func (m *Manager) fold(sv *seqView, part sqltypes.Datum, key string, k int, shifts bool, mutate func() error) bool {
	if err := m.apply(sv, part, key, k, shifts, mutate); err != nil {
		m.markStale(sv, err.Error())
		return false
	}
	return true
}

// markStale ends the view's freshness at the epoch the breaking write
// commits at: readers of earlier snapshots may still read it.
func (m *Manager) markStale(sv *seqView, why string) {
	if !sv.stale() {
		sv.staleFrom, sv.staleSince = m.epoch(), time.Now()
	}
	sv.staleWhy = why
}

// apply runs one mutation at raw position k of a partition — shifts says
// whether it moved the positions after k (insert, delete) or left them in
// place (update) — and mirrors what it changed into the backing table.
func (m *Manager) apply(sv *seqView, part sqltypes.Datum, key string, k int, shifts bool, mutate func() error) error {
	oldLo, oldHi := 0, -1 // stored range before; empty for a partition about to be born
	if p := sv.parts.Partition(key); p != nil {
		oldLo, oldHi = p.Seq().Lo(), p.Seq().Hi()
	}
	if err := mutate(); err != nil {
		return err
	}
	m.MaintenanceEvents++
	p := sv.parts.Partition(key)
	if p == nil {
		// The partition died: every row it stored goes (an empty sequence
		// would otherwise materialize zero-valued header/trailer rows).
		delete(sv.partKeys, key)
		return m.syncRange(sv, part, nil, oldLo, oldHi)
	}
	sv.partKeys[key] = part
	lo, hi := band(p, k, oldHi, shifts)
	return m.syncRange(sv, part, p, lo, hi)
}

// band is the one patch rule: the stored positions of p a mutation at raw
// position k can have changed. An update changes the §2.3 band [k−h, k+l].
// An insert or delete also shifts everything right of the band, up to the
// new trailer position of an append or the vanished one of a delete (oldHi
// is the stored maximum before the mutation). Cumulative windows ripple
// right from k. A full recompute — the exotic-value fallback, or a birth —
// can differ at every stored position.
func band(p *core.Partition, k, oldHi int, shifts bool) (lo, hi int) {
	seq := p.Seq()
	top := max(seq.Hi(), oldHi)
	switch {
	case p.FullRecompute():
		return seq.Lo(), top
	case seq.Win.Cumulative:
		return k, top
	case shifts:
		return k - seq.Win.Following, top
	default:
		return k - seq.Win.Following, k + seq.Win.Preceding
	}
}

// syncRange re-writes the backing rows for positions [lo, hi] of one
// partition from its maintained sequence, through the pk prefix, removing
// rows the sequence does not store. p is nil for a partition that died.
func (m *Manager) syncRange(sv *seqView, part sqltypes.Datum, p *core.Partition, lo, hi int) error {
	t := sv.mv.Table
	h := t.Heap.IndexOn(sv.lay.pkOrds())
	if h == nil {
		return fmt.Errorf("mview: backing table of %q lost its index", sv.mv.Name)
	}
	for k := lo; k <= hi; k++ {
		id, found := m.hFirst(t, h, sv.lay.pkKey(part, k))
		v, ok := 0.0, false
		if p != nil && k >= p.Seq().Lo() && k <= p.Seq().Hi() {
			v, ok = p.At(k) // !ok: a MIN/MAX empty window, not materialized
		}
		var err error
		switch {
		case ok && found:
			err = m.hUpdate(t, id, sv.row(part, k, v, p.Len()))
		case ok:
			err = m.hInsert(t, sv.row(part, k, v, p.Len()))
		case found:
			err = m.hDelete(t, id)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// shiftTarget resolves the view and base table of a positional shift (§2.3),
// which renumbers the one sequence of a simple view.
func (m *Manager) shiftTarget(viewName string) (*seqView, *catalog.Table, error) {
	sv, ok := m.seq[lower(viewName)]
	if !ok {
		return nil, nil, fmt.Errorf("materialized view %q is not a sequence view", viewName)
	}
	if sv.lay.keyed() {
		return nil, nil, fmt.Errorf("positional shifts apply to simple sequence views only")
	}
	base, err := m.cat.Table(sv.mv.BaseTable)
	return sv, base, err
}

// ShiftInsert performs the paper's positional insert (§2.3): a value enters
// at position k and every later position shifts right — applied to BOTH the
// base table (renumbering its position column) and the view (via the
// incremental insert rule). This is the sequence-semantics operation the
// relational INSERT cannot express while keeping positions dense.
func (m *Manager) ShiftInsert(viewName string, k int, val float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sv, base, err := m.shiftTarget(viewName)
	if err != nil {
		return err
	}
	if err := shiftBase(base, sv.mv.PosColumn, sv.mv.ValColumn, k, &val, true); err != nil {
		return err
	}
	part, key, _ := sv.lay.partOf(nil, -1)
	return m.apply(sv, part, key, k, true, func() error { return sv.parts.Insert(key, k, val) })
}

// ShiftDelete removes position k, shifting later positions left (§2.3).
func (m *Manager) ShiftDelete(viewName string, k int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sv, base, err := m.shiftTarget(viewName)
	if err != nil {
		return err
	}
	if err := shiftBase(base, sv.mv.PosColumn, sv.mv.ValColumn, k, nil, false); err != nil {
		return err
	}
	part, key, _ := sv.lay.partOf(nil, -1)
	return m.apply(sv, part, key, k, true, func() error {
		_, err := sv.parts.Delete(key, k)
		return err
	})
}

// shiftBase renumbers the base table's position column around a positional
// insert (withValue=true) or delete.
func shiftBase(base *catalog.Table, posCol, valCol string, k int, val *float64, insert bool) error {
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
	if err := base.Heap.Scan(func(id storage.RowID, row sqltypes.Row) bool {
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
			if _, err := base.Heap.Update(t.id, nr); err != nil {
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
		_, err := base.Heap.Insert(nr)
		return err
	}
	// Delete: remove position k, shift the rest left in ascending order.
	sort.Slice(touch, func(a, b int) bool { return touch[a].row[pi].Int() < touch[b].row[pi].Int() })
	for _, t := range touch {
		if int(t.row[pi].Int()) == k {
			if err := base.Heap.Delete(t.id); err != nil {
				return err
			}
			continue
		}
		nr := t.row.Clone()
		nr[pi] = sqltypes.NewInt(t.row[pi].Int() - 1)
		if _, err := base.Heap.Update(t.id, nr); err != nil {
			return err
		}
	}
	return nil
}
