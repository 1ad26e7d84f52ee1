package mview

import (
	"fmt"
	"time"

	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
)

// This file is the durability hook of the view manager: the wal package
// snapshots view *metadata* only (the backing rows travel with the ordinary
// table dump) and calls Restore to re-register each view and rebuild its
// in-memory maintainer state. Maintainers are pure functions of the base
// table — the same §2.3 invariant incremental maintenance relies on — so a
// fresh view's maintainer is reconstructed by re-reading the restored base
// sequence; a stale view defers that work to REFRESH, exactly as it would
// have before the crash.

// StaleInfo reports whether the named view is stale and why. It returns
// false for plain views and unknown names, which have no staleness state.
func (m *Manager) StaleInfo(name string) (bool, string) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	sv, ok := m.seq[lower(name)]
	if !ok || sv.freshAt(m.cat.Clock().Now()) {
		return false, ""
	}
	return true, sv.staleWhy
}

// RestoreSpec describes one materialized view as captured by a snapshot.
type RestoreSpec struct {
	// View carries the catalog metadata; its Table pointer is ignored and
	// re-resolved from Backing. It is a pointer because MatView embeds an
	// atomic field and must not be copied.
	View *catalog.MatView
	// Backing names the backing table, which must already be restored.
	Backing string
	// Stale / StaleWhy reproduce the pre-crash freshness state.
	Stale    bool
	StaleWhy string
}

// Restore re-registers a snapshotted materialized view against its restored
// backing table and rebuilds maintainer state for fresh sequence views.
func (m *Manager) Restore(spec RestoreSpec) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	backing, err := m.cat.Table(spec.Backing)
	if err != nil {
		return fmt.Errorf("mview: restore %q: backing table: %w", spec.View.Name, err)
	}
	mv := spec.View
	mv.Table = backing
	if err := m.cat.RegisterMatView(mv); err != nil {
		return err
	}

	if mv.Kind == catalog.PlainView {
		stmt, err := sqlparser.Parse(mv.Definition)
		if err != nil {
			return fmt.Errorf("mview: restore %q: reparse definition: %w", mv.Name, err)
		}
		cmv, ok := stmt.(*sqlparser.CreateMatView)
		if !ok {
			return fmt.Errorf("mview: restore %q: definition is %T, not CREATE MATERIALIZED VIEW", mv.Name, stmt)
		}
		m.plain[lower(mv.Name)] = cmv
		return nil
	}

	agg, err := core.ParseAgg(mv.Agg)
	if err != nil {
		return fmt.Errorf("mview: restore %q: %w", mv.Name, err)
	}
	valType := sqltypes.Int
	if vi := backing.ColumnIndex("val"); vi >= 0 {
		valType = backing.Columns[vi].Type
	}
	sv := &seqView{mv: mv, lay: layout{partCol: mv.PartColumn}, agg: agg, valType: valType}
	if spec.Stale {
		// Recovered staleness has unknown onset: no epoch answers, and age
		// counts from restore. The maintainers stay empty until REFRESH
		// rebuilds them.
		sv.staleWhy, sv.staleSince = spec.StaleWhy, time.Now()
		err = sv.setParts(nil, nil)
	} else if err = m.rebuild(sv); err == nil {
		m.setFresh(sv, m.epoch()) // the restored backing rows are visible from now on
	}
	if err != nil {
		return fmt.Errorf("mview: restore %q: %w", mv.Name, err)
	}
	m.seq[lower(mv.Name)] = sv
	return nil
}
