package mview

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"rfview/internal/catalog"
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
		if !strings.EqualFold(sv.mv.BaseTable, table) || sv.stale {
			continue
		}
		before := sv.touchedTotal()
		fold(sv)
		if sv.stale {
			continue
		}
		m.stats.DeltaApplied.Add(1)
		if m.observeTouched != nil {
			m.observeTouched(float64(sv.touchedTotal() - before))
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

func (m *Manager) applyInserts(sv *seqView, rows []sqltypes.Row, cols []string) {
	pi := colIndex(cols, sv.mv.PosColumn)
	vi := colIndex(cols, sv.mv.ValColumn)
	if pi < 0 || vi < 0 {
		m.markStale(sv, "insert without position or value column")
		return
	}
	if sv.partitioned() {
		gi := colIndex(cols, sv.mv.PartColumn)
		if gi < 0 {
			m.markStale(sv, "insert without partition column")
			return
		}
		ordered := append([]sqltypes.Row(nil), rows...)
		sort.Slice(ordered, func(a, b int) bool { return ordered[a][pi].Int() < ordered[b][pi].Int() })
		for _, row := range ordered {
			p, v, g := row[pi], row[vi], row[gi]
			if p.IsNull() || p.Typ() != sqltypes.Int || v.IsNull() || !v.Typ().Numeric() || g.IsNull() {
				m.markStale(sv, "inserted row has bad position, value, or partition key")
				return
			}
			m.applyPartitionedInsert(sv, g, int(p.Int()), v.Float())
			if sv.stale {
				return
			}
		}
		return
	}
	// Appends must arrive in position order n+1, n+2, …
	ordered := append([]sqltypes.Row(nil), rows...)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a][pi].Int() < ordered[b][pi].Int() })
	for _, row := range ordered {
		p, v := row[pi], row[vi]
		if p.IsNull() || p.Typ() != sqltypes.Int || v.IsNull() || !v.Typ().Numeric() {
			m.markStale(sv, "inserted row has non-integer position or non-numeric value")
			return
		}
		n := sv.maint.Len()
		if p.Int() != int64(n+1) {
			m.markStale(sv, fmt.Sprintf("insert at position %d is not an append (n=%d)", p.Int(), n))
			return
		}
		if err := m.seqInsert(sv, n+1, v.Float()); err != nil {
			m.markStale(sv, err.Error())
			return
		}
		m.MaintenanceEvents++
		if err := m.patchAppend(sv, n+1); err != nil {
			m.markStale(sv, err.Error())
			return
		}
	}
}

func (m *Manager) applyUpdates(sv *seqView, before, after []sqltypes.Row, cols []string) {
	pi := colIndex(cols, sv.mv.PosColumn)
	vi := colIndex(cols, sv.mv.ValColumn)
	if pi < 0 || vi < 0 {
		m.markStale(sv, "update on untracked columns")
		return
	}
	gi := -1
	if sv.partitioned() {
		gi = colIndex(cols, sv.mv.PartColumn)
		if gi < 0 {
			m.markStale(sv, "update without partition column")
			return
		}
	}
	for i := range before {
		bp, ap := before[i][pi], after[i][pi]
		bv, av := before[i][vi], after[i][vi]
		if !sqltypes.Equal(bp, ap) {
			m.markStale(sv, "position column updated")
			return
		}
		if valueUnchanged(bv, av) {
			continue
		}
		if av.IsNull() || !av.Typ().Numeric() {
			m.markStale(sv, "value updated to non-numeric")
			return
		}
		if sv.partitioned() {
			if !sqltypes.Equal(before[i][gi], after[i][gi]) {
				m.markStale(sv, "partition column updated")
				return
			}
			m.applyPartitionedUpdate(sv, after[i][gi], int(ap.Int()), av.Float())
			if sv.stale {
				return
			}
			continue
		}
		k := int(ap.Int())
		if err := m.seqUpdate(sv, k, av.Float()); err != nil {
			m.markStale(sv, err.Error())
			return
		}
		m.MaintenanceEvents++
		if err := m.patchBand(sv, k); err != nil {
			m.markStale(sv, err.Error())
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
	pi := colIndex(cols, sv.mv.PosColumn)
	if pi < 0 {
		m.markStale(sv, "delete without position column")
		return
	}
	if sv.partitioned() {
		gi := colIndex(cols, sv.mv.PartColumn)
		if gi < 0 {
			m.markStale(sv, "delete without partition column")
			return
		}
		ordered := append([]sqltypes.Row(nil), deleted...)
		sort.Slice(ordered, func(a, b int) bool { return ordered[a][pi].Int() > ordered[b][pi].Int() })
		for _, row := range ordered {
			if row[pi].IsNull() || row[gi].IsNull() {
				m.markStale(sv, "deleted row lacks position or partition key")
				return
			}
			m.applyPartitionedDelete(sv, row[gi], int(row[pi].Int()))
			if sv.stale {
				return
			}
		}
		return
	}
	// Deleting a suffix (n, n−1, …) keeps positions dense.
	ordered := append([]sqltypes.Row(nil), deleted...)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a][pi].Int() > ordered[b][pi].Int() })
	for _, row := range ordered {
		n := sv.maint.Len()
		if row[pi].IsNull() || row[pi].Int() != int64(n) {
			m.markStale(sv, fmt.Sprintf("delete at position %v is not a suffix delete (n=%d)", row[pi], n))
			return
		}
		if err := m.seqDelete(sv, n); err != nil {
			m.markStale(sv, err.Error())
			return
		}
		m.MaintenanceEvents++
		if err := m.patchShrink(sv, n); err != nil {
			m.markStale(sv, err.Error())
			return
		}
	}
}

// seqUpdate / seqInsert / seqDelete mutate a simple view's maintainer pair:
// AVG views carry a COUNT maintainer alongside the SUM one (§2.1), and both
// must track the raw data.
func (m *Manager) seqUpdate(sv *seqView, k int, v float64) error {
	if err := sv.maint.Update(k, v); err != nil {
		return err
	}
	if sv.cnt != nil {
		return sv.cnt.Update(k, v)
	}
	return nil
}

func (m *Manager) seqInsert(sv *seqView, k int, v float64) error {
	if err := sv.maint.Insert(k, v); err != nil {
		return err
	}
	if sv.cnt != nil {
		return sv.cnt.Insert(k, v)
	}
	return nil
}

func (m *Manager) seqDelete(sv *seqView, k int) error {
	if err := sv.maint.Delete(k); err != nil {
		return err
	}
	if sv.cnt != nil {
		return sv.cnt.Delete(k)
	}
	return nil
}

func (m *Manager) markStale(sv *seqView, why string) {
	if !sv.stale {
		sv.staleSince = time.Now()
	}
	sv.stale = true
	sv.staleWhy = why
}

// upsert writes (pos, val/ok) into the backing table through its pk index.
func (m *Manager) upsert(sv *seqView, pos int, val float64, ok bool) error {
	h := sv.mv.Table.Heap.IndexOn([]int{0})
	if h == nil {
		return fmt.Errorf("mview: backing table of %q lost its index", sv.mv.Name)
	}
	key := sqltypes.Row{sqltypes.NewInt(int64(pos))}
	id, found := m.hFirst(sv.mv.Table, h, key)
	if !ok {
		if found {
			return m.hDelete(sv.mv.Table, id)
		}
		return nil
	}
	row := sqltypes.Row{sqltypes.NewInt(int64(pos)), sv.datum(val)}
	if found {
		return m.hUpdate(sv.mv.Table, id, row)
	}
	return m.hInsert(sv.mv.Table, row)
}

func (m *Manager) deleteRow(sv *seqView, pos int) error {
	h := sv.mv.Table.Heap.IndexOn([]int{0})
	if h == nil {
		return fmt.Errorf("mview: backing table of %q lost its index", sv.mv.Name)
	}
	if id, found := m.hFirst(sv.mv.Table, h, sqltypes.Row{sqltypes.NewInt(int64(pos))}); found {
		return m.hDelete(sv.mv.Table, id)
	}
	return nil
}

// syncRange re-writes the backing rows for positions [lo, hi] from the
// maintained sequence (removing rows the sequence no longer stores).
func (m *Manager) syncRange(sv *seqView, lo, hi int) error {
	seq := sv.maint.Seq()
	for k := lo; k <= hi; k++ {
		if k < seq.Lo() || k > seq.Hi() {
			if err := m.deleteRow(sv, k); err != nil {
				return err
			}
			continue
		}
		v, ok := sv.valueAt(k)
		if err := m.upsert(sv, k, v, ok); err != nil {
			return err
		}
	}
	m.setBaseRows(sv.mv, seq.N)
	return nil
}

// fullRecomputed reports whether the last mutation of sv's maintainer(s)
// took the exotic-value fallback: NaN and Inf poison the pipelined running
// sums past the §2.3 band, so the rebuilt sequence can differ at every
// stored position and the backing must resync in full.
func fullRecomputed(sv *seqView) bool {
	return sv.maint.FullRecompute() || (sv.cnt != nil && sv.cnt.FullRecompute())
}

// patchBand handles a value update at position k: only the §2.3 band
// [k−h, k+l] changes.
func (m *Manager) patchBand(sv *seqView, k int) error {
	seq := sv.maint.Seq()
	if fullRecomputed(sv) {
		return m.syncRange(sv, seq.Lo(), seq.Hi())
	}
	if seq.Win.Cumulative {
		// Cumulative updates ripple right: [k, hi].
		return m.syncRange(sv, k, seq.Hi())
	}
	return m.syncRange(sv, k-seq.Win.Following, k+seq.Win.Preceding)
}

// patchAppend handles an append at position k = n+1: the band plus the one
// new trailer position.
func (m *Manager) patchAppend(sv *seqView, k int) error {
	seq := sv.maint.Seq()
	if fullRecomputed(sv) {
		return m.syncRange(sv, seq.Lo(), seq.Hi())
	}
	if seq.Win.Cumulative {
		return m.syncRange(sv, k, seq.Hi())
	}
	return m.syncRange(sv, k-seq.Win.Following, seq.Hi())
}

// patchShrink handles a suffix delete of the old position n: band plus the
// vanished trailer position.
func (m *Manager) patchShrink(sv *seqView, oldN int) error {
	seq := sv.maint.Seq()
	if fullRecomputed(sv) {
		// The old stored range extended past the new Hi; cover both so the
		// vanished trailer rows are deleted too.
		hi := oldN + seq.Win.Preceding
		if seq.Win.Cumulative {
			hi = oldN
		}
		return m.syncRange(sv, seq.Lo(), hi)
	}
	if seq.Win.Cumulative {
		return m.syncRange(sv, oldN, oldN)
	}
	// New stored max is seq.Hi(); the old max was oldN + l.
	return m.syncRange(sv, oldN-seq.Win.Following, oldN+seq.Win.Preceding)
}

// ShiftInsert performs the paper's positional insert (§2.3): a value enters
// at position k and every later position shifts right — applied to BOTH the
// base table (renumbering its position column) and the view (via the
// incremental insert rule). This is the sequence-semantics operation the
// relational INSERT cannot express while keeping positions dense.
func (m *Manager) ShiftInsert(viewName string, k int, val float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sv, ok := m.seq[lower(viewName)]
	if !ok {
		return fmt.Errorf("materialized view %q is not a sequence view", viewName)
	}
	if sv.partitioned() {
		return fmt.Errorf("positional shifts apply to simple sequence views only")
	}
	base, err := m.cat.Table(sv.mv.BaseTable)
	if err != nil {
		return err
	}
	if err := shiftBase(base, sv.mv.PosColumn, sv.mv.ValColumn, k, &val, true); err != nil {
		return err
	}
	if err := m.seqInsert(sv, k, val); err != nil {
		return err
	}
	m.MaintenanceEvents++
	seq := sv.maint.Seq()
	if seq.Win.Cumulative {
		return m.syncRange(sv, k, seq.Hi())
	}
	// Positions right of k+l shift; patch everything from the band start.
	return m.syncRange(sv, k-seq.Win.Following, seq.Hi())
}

// ShiftDelete removes position k, shifting later positions left (§2.3).
func (m *Manager) ShiftDelete(viewName string, k int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sv, ok := m.seq[lower(viewName)]
	if !ok {
		return fmt.Errorf("materialized view %q is not a sequence view", viewName)
	}
	if sv.partitioned() {
		return fmt.Errorf("positional shifts apply to simple sequence views only")
	}
	base, err := m.cat.Table(sv.mv.BaseTable)
	if err != nil {
		return err
	}
	oldHi := sv.maint.Seq().Hi()
	if err := shiftBase(base, sv.mv.PosColumn, sv.mv.ValColumn, k, nil, false); err != nil {
		return err
	}
	if err := m.seqDelete(sv, k); err != nil {
		return err
	}
	m.MaintenanceEvents++
	seq := sv.maint.Seq()
	if seq.Win.Cumulative {
		return m.syncRange(sv, k, oldHi)
	}
	return m.syncRange(sv, k-seq.Win.Following, oldHi)
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
