package mview

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"rfview/internal/core"
	"rfview/internal/sqltypes"
	"rfview/internal/txn"
)

// This file folds base-table DML into materialized sequence views using the
// incremental rules of §2.3. Density-preserving changes patch only the
// affected band of view rows, a positional shift written as SQL (a ±1
// renumbering of a partition's suffix with the insert or delete that opens
// or closes its gap, in one commit) patches the band and shifts the suffix;
// anything else marks the view stale. Fold runs under the engine's
// exclusive lock and applies a commit's deltas inside the commit itself, so
// readers never pay for freshness.

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
		switch {
		case sv.stale():
		case sv.valType == sqltypes.Int:
			foldView[int64](m, tx, sv, deltas)
		default:
			foldView[float64](m, tx, sv, deltas)
		}
	}
}

// foldView folds the deltas into one view in its value type T.
func foldView[T core.Num](m *Manager, tx *txn.Txn, sv *seqView, deltas []txn.Delta) {
	if changes, ends, why := fold[T](sv, deltas); why != "" {
		m.markStale(sv, why)
	} else {
		foldChanges(m, tx, sv, changes, ends)
	}
}

// change is one base row change in a view's terms: a §2.3 operation on one
// partition. A renumbering moves the partition's positions op.K…last by
// move (±1); fold makes it part of a shift, whose last is the partition's
// n_p before the shift.
type change[T core.Num] struct {
	part       sqltypes.Datum
	op         core.Op[T]
	move, last int
}

// fold translates the deltas on the view's base table into its changes,
// ends marking where each delta's end, or says why the §2.3 rules cannot
// absorb them. A +1 renumbering of k…m and the insert at k after it are
// one shift insert; a delete at k and the −1 renumbering of k+1…m after it
// are one shift delete. Nothing else of the partition may come between.
func fold[T core.Num](sv *seqView, deltas []txn.Delta) (changes []change[T], ends []int, why string) {
	open := map[sqltypes.Datum]change[T]{} // +1 renumberings awaiting their insert, by partition Key
	for _, d := range deltas {
		if !strings.EqualFold(sv.mv.BaseTable, d.Table) {
			continue
		}
		cs, why := changesOf[T](sv, d)
		if why != "" {
			return nil, nil, why
		}
		for _, c := range cs {
			r, opened := open[c.part.Key()]
			switch {
			case opened && (c.move != 0 || c.op.Kind != core.OpInsert || c.op.K != r.op.K):
				return nil, nil, fmt.Sprintf("positions %d…%d renumbered without an insert at %d", r.op.K, r.last, r.op.K)
			case opened:
				c.op.Shift, c.last = true, r.last
				delete(open, c.part.Key())
			case c.move > 0:
				open[c.part.Key()] = c
				continue
			case c.move < 0:
				i := len(changes) - 1
				for i >= 0 && !sqltypes.Equal(changes[i].part, c.part) {
					i--
				}
				if i < 0 || changes[i].op.Kind != core.OpDelete || changes[i].op.Shift || changes[i].op.K != c.op.K-1 {
					return nil, nil, fmt.Sprintf("positions %d…%d renumbered without a delete at %d", c.op.K, c.last, c.op.K-1)
				}
				changes[i].op.Shift, changes[i].last = true, c.last
				continue
			}
			changes = append(changes, c)
		}
		ends = append(ends, len(changes))
	}
	for _, r := range open {
		return nil, nil, fmt.Sprintf("positions %d…%d renumbered without an insert at %d", r.op.K, r.last, r.op.K)
	}
	return changes, ends, ""
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

// changesOf translates one delta into the view's changes, or says why the
// §2.3 rules cannot absorb it.
func changesOf[T core.Num](sv *seqView, d txn.Delta) (out []change[T], why string) {
	find := func(name string) int { // d.Cols may be an INSERT's column list
		return slices.IndexFunc(d.Cols, func(c string) bool { return strings.EqualFold(c, name) })
	}
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
			op := core.Op[T]{Kind: kind, K: int(p.Int()), New: sqltypes.AsNum[T](v)}
			if kind == core.OpDelete {
				op.Old, op.New = op.New, 0
			}
			out = append(out, change[T]{part: part, op: op})
		}
	case txn.DeltaUpdate:
		var runs []change[T] // each partition's renumbering, in order
		var moved [][]int    // the positions each moves
		at := map[sqltypes.Datum]int{}
		for i, before := range d.Before {
			after := d.After[i]
			bpart, bok := sv.lay.partOf(before, gi)
			part, ok := sv.lay.partOf(after, gi)
			bp, ap := before[pi], after[pi]
			switch av := after[vi]; {
			case !bok || !ok:
				return nil, "partition key updated to or from NULL"
			case !sqltypes.Equal(bpart, part):
				return nil, "partition column updated"
			case !sqltypes.Equal(bp, ap):
				step := int(ap.Int() - bp.Int())
				if bp.Typ() != sqltypes.Int || ap.Typ() != sqltypes.Int || step*step != 1 || !valueUnchanged(before[vi], av) {
					return nil, "position column updated other than by a ±1 renumbering"
				}
				j, seen := at[part.Key()]
				if !seen {
					j, at[part.Key()] = len(runs), len(runs)
					runs, moved = append(runs, change[T]{part: part, move: step}), append(moved, nil)
				}
				if runs[j].move != step {
					return nil, "positions renumbered both ways"
				}
				moved[j] = append(moved[j], int(bp.Int()))
			case valueUnchanged(before[vi], av):
			case !numeric(av):
				return nil, "value updated to non-numeric"
			default:
				op := core.Op[T]{Kind: core.OpUpdate, K: int(after[pi].Int()), Old: sqltypes.AsNum[T](before[vi]), New: sqltypes.AsNum[T](av)}
				out = append(out, change[T]{part: part, op: op})
			}
		}
		for j, r := range runs {
			ps := moved[j]
			slices.Sort(ps)
			for i, p := range ps {
				if p != ps[0]+i {
					return nil, fmt.Sprintf("renumbered positions %d…%d are not a run", ps[0], ps[len(ps)-1])
				}
			}
			r.op.K, r.last = ps[0], ps[len(ps)-1]
			out = append(out, r)
		}
	}
	return out, ""
}

// valueUnchanged reports whether an updated value carries the same bits.
// sqltypes.Equal is a SQL comparison: it calls −0 equal to +0 and one NaN
// equal to another, which would silently drop exactly the updates whose bit
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
func foldChanges[T core.Num](m *Manager, tx *txn.Txn, sv *seqView, changes []change[T], ends []int) {
	st := &backingStore[T]{m: m, tx: tx, sv: sv, changes: changes}
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
		if c.op.Shift {
			// A shift renumbers the partition's whole suffix: one that ran
			// past the last renumbered position left two rows at last+1.
			if longer, err := st.longerThan(c.last); err != nil || longer {
				m.markStale(sv, fmt.Sprintf("a shift at %d renumbered positions only up to %d, short of the partition's end", c.op.K, c.last))
				return
			}
		}
		st.raw.step(c, false)
		t, err := core.Apply(st, sv.mv.Window, sv.mv.Agg.Stored(), c.op)
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
