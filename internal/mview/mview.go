// Package mview manages materialized views: creation, full refresh, and —
// for materialized reporting-function views — incremental maintenance with
// the §2.3 rules via core.Maintainer.
//
// A *sequence view* is a materialized complete reporting function (§6.2):
// its backing table holds one row per sequence position of every partition,
// including the header (1−h … 0) and trailer (n+1 … n+l) positions (§3.2). A
// simple — unpartitioned — view is the one-partition case of the same
// representation; layout.go describes the only difference, the backing-table
// layout. Sequence views are recognized syntactically from the canonical
// reporting-function query shape; everything else materializes as a plain
// snapshot view.
//
// Sequence views require the base table's position column to hold the dense
// integers 1…n within each partition: the paper's sequence model is
// positional, and ROWS frames coincide with position arithmetic only on dense
// positions. Creation and refresh validate this. DML that preserves density
// (value updates, appends at n+1, deletes of position n) is folded into the
// view incrementally; anything else marks the view stale from its commit's
// epoch on. Freshness is a range of epochs, so a reader answers from the view
// exactly when its snapshot lies inside it — a snapshot taken before the
// breaking commit still may, one taken after it may not until REFRESH
// MATERIALIZED VIEW runs.
package mview

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	rferrors "rfview/errors"
	"rfview/internal/catalog"
	"rfview/internal/core"
	"rfview/internal/rewrite"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
	"rfview/internal/txn"
)

// ExecFunc runs a select statement and returns (columns, rows). The engine
// provides it; the manager uses it to materialize plain views. The context
// carries cancellation into the view query's execution.
type ExecFunc func(ctx context.Context, stmt sqlparser.SelectStatement) ([]string, []sqltypes.Row, error)

// seqView couples a catalog sequence view with its per-partition state: one
// core.Partition — the value maintainer, plus the COUNT side AVG needs
// (§2.1) — per partition key, whatever the view's layout.
type seqView struct {
	mv       *catalog.MatView
	lay      layout
	parts    *core.PartitionedMaintainer
	partKeys map[string]sqltypes.Datum // partition render key -> datum
	agg      core.Agg
	valType  sqltypes.Type
	// freshFrom and staleFrom bound the commit epochs at which the backing
	// rows are the view's query over the base table: a reader at snapshot s
	// may read them iff freshFrom ≤ s < staleFrom (the heap is MVCC, so its
	// scan is the view as of s). freshFrom is the epoch CREATE, REFRESH or
	// restore made the rows visible at; staleFrom is the epoch of the commit
	// that broke the §2.3 rules, txn.Infinity while maintenance keeps up.
	freshFrom, staleFrom uint64
	staleWhy             string
	// staleSince timestamps the transition to stale, for the staleness-age
	// metric; zero while fresh.
	staleSince time.Time
}

// stale reports whether some commit — published, or the one folding its
// deltas now — broke the view: maintenance stops until REFRESH.
func (sv *seqView) stale() bool { return sv.staleFrom != txn.Infinity }

// freshAt reports whether the backing rows answer a reader at epoch s.
func (sv *seqView) freshAt(s uint64) bool { return sv.freshFrom <= s && s < sv.staleFrom }

// setParts installs maintainers over the given raw sequences (none for a
// view restored stale, whose state waits for REFRESH).
func (sv *seqView) setParts(keys map[string]sqltypes.Datum, raws map[string][]float64) error {
	parts, err := core.NewPartitionedMaintainer(windowOfSpec(sv.mv.Window), sv.agg)
	if err != nil {
		return err
	}
	for key, raw := range raws {
		if err := parts.SetPartition(key, raw); err != nil {
			return err
		}
	}
	if err := sv.lay.pin(parts); err != nil {
		return err
	}
	if keys == nil {
		keys = make(map[string]sqltypes.Datum)
	}
	sv.parts, sv.partKeys = parts, keys
	return nil
}

// rebuild re-reads the base table and rematerializes every partition's
// maintainer — the full recompute behind CREATE, REFRESH and the restore of
// a fresh view. A failed read leaves the view's state as it was.
func (m *Manager) rebuild(sv *seqView) error {
	base, err := m.cat.Table(sv.mv.BaseTable)
	if err != nil {
		return err
	}
	keys, raws, err := m.readSequences(base, sv.mv.PosColumn, sv.mv.ValColumn, sv.lay)
	if err != nil {
		return err
	}
	return sv.setParts(keys, raws)
}

// Manager owns all materialized views of one engine.
//
// The mutex is a RWMutex so that freshness checks — which every view-derived
// read performs, concurrently under the engine's shared lock — do not
// serialize readers; mutation paths (create, drop, refresh, incremental
// maintenance) take the exclusive lock.
type Manager struct {
	mu    sync.RWMutex
	cat   *catalog.Catalog
	seq   map[string]*seqView // lower-case view name
	plain map[string]*sqlparser.CreateMatView
	exec  ExecFunc

	// observeTouched, when set, receives the number of view sequence
	// positions each applied delta touched (the histogram feed).
	observeTouched func(float64)
	// stats carries the maintenance counters the metrics registry and the
	// stats protocol op scrape.
	stats Stats

	// MaintenanceEvents counts incremental maintenance operations applied,
	// for tests and the maintenance example.
	MaintenanceEvents int

	// curTx is the transaction the current maintenance entry point runs
	// inside: backing-table writes join its write-set (becoming visible
	// atomically at commit) instead of committing immediately. Guarded by
	// the manager mutex: set on entry, cleared on exit, nil for legacy
	// (library/test) callers whose writes commit per operation.
	curTx *txn.Txn
}

// heap write/read helpers: route through curTx when a transaction is
// active, and see everything committed plus curTx's own pending writes.

func (m *Manager) hInsert(t *catalog.Table, row sqltypes.Row) error {
	var err error
	if m.curTx != nil {
		_, err = t.Heap.InsertTx(m.curTx, row)
	} else {
		_, err = t.Heap.Insert(row)
	}
	return err
}

func (m *Manager) hDelete(t *catalog.Table, id storage.RowID) error {
	if m.curTx != nil {
		return t.Heap.DeleteTx(m.curTx, id)
	}
	return t.Heap.Delete(id)
}

func (m *Manager) hUpdate(t *catalog.Table, id storage.RowID, row sqltypes.Row) error {
	var err error
	if m.curTx != nil {
		_, err = t.Heap.UpdateTx(m.curTx, id, row)
	} else {
		_, err = t.Heap.Update(id, row)
	}
	return err
}

func (m *Manager) hScan(t *catalog.Table, fn func(storage.RowID, sqltypes.Row) bool) error {
	return t.Heap.ScanAt(t.Heap.WriteView(m.curTx), fn)
}

func (m *Manager) hFirst(t *catalog.Table, h *storage.IndexHandle, key sqltypes.Row) (storage.RowID, bool) {
	return t.Heap.FirstAt(h, key, t.Heap.WriteView(m.curTx))
}

// epoch is the commit epoch a freshness stamp takes: the one the current
// transaction will publish — its committer holds the engine's exclusive
// lock, so Next cannot move before then — or the latest published one, after
// a library call's immediate writes or when the transaction has nothing to
// publish.
func (m *Manager) epoch() uint64 {
	if m.curTx != nil && m.curTx.HasWrites() {
		return m.cat.Clock().Next()
	}
	return m.cat.Clock().Now()
}

// setFresh stamps a view whose backing rows were just rewritten fresh from
// epoch, the one they become visible at: readers of older snapshots keep
// seeing the view as stale.
func (m *Manager) setFresh(sv *seqView, epoch uint64) {
	sv.freshFrom, sv.staleFrom = epoch, txn.Infinity
	sv.staleWhy, sv.staleSince = "", time.Time{}
}

// NewManager builds a manager over the catalog.
func NewManager(cat *catalog.Catalog, exec ExecFunc) *Manager {
	return &Manager{cat: cat, seq: make(map[string]*seqView), plain: make(map[string]*sqlparser.CreateMatView), exec: exec}
}

// SetTouchedObserver installs the touched-rows histogram feed.
func (m *Manager) SetTouchedObserver(fn func(float64)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observeTouched = fn
}

func lower(s string) string { return strings.ToLower(s) }

// Create materializes a view from its defining statement.
func (m *Manager) Create(stmt *sqlparser.CreateMatView) error {
	return m.CreateContext(context.Background(), stmt)
}

// CreateContext is Create with cancellation: materializing a plain view runs
// the defining query through the engine, which observes ctx.
func (m *Manager) CreateContext(ctx context.Context, stmt *sqlparser.CreateMatView) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sel, ok := stmt.Select.(*sqlparser.Select); ok {
		if wq, err := rewrite.MatchWindowQuery(sel); err == nil {
			if lay, ok := sequenceShape(wq); ok {
				return m.createSequenceView(stmt, wq, lay)
			}
		}
	}
	return m.createPlainView(ctx, stmt)
}

func windowOf(shape rewrite.WindowShape) core.Window {
	if shape.Cumulative {
		return core.Cumul()
	}
	return core.Sliding(shape.Preceding, shape.Following)
}

func (m *Manager) createSequenceView(stmt *sqlparser.CreateMatView, wq *rewrite.WindowQuery, lay layout) error {
	base, err := m.cat.Table(wq.Table)
	if err != nil {
		return err
	}
	agg, err := core.ParseAgg(wq.Agg)
	if err != nil {
		return err
	}
	valCol := wq.ValCol
	if valCol == "" { // COUNT(*)
		valCol = wq.PosCol
	}
	mv := &catalog.MatView{
		Name: stmt.Name, Kind: catalog.SequenceView,
		BaseTable: base.Name, PosColumn: wq.PosCol, PartColumn: lay.partCol,
		ValColumn: valCol, Agg: wq.Agg, Window: toSpec(windowOf(wq.Shape)),
		Definition: stmt.String(),
	}
	sv := &seqView{mv: mv, lay: lay, agg: agg, valType: sqltypes.Int}
	if err := m.rebuild(sv); err != nil {
		return err
	}
	if base.Columns[base.ColumnIndex(valCol)].Type == sqltypes.Float || agg == core.Avg {
		sv.valType = sqltypes.Float
	}
	backingName := "__mv_" + stmt.Name
	mv.Table, err = m.cat.CreateTable(backingName, lay.columns(base, sv.valType))
	if err != nil {
		return err
	}
	if _, err := m.cat.CreateIndex("pk_"+stmt.Name, backingName, lay.pk(), true); err != nil {
		return err
	}
	// Fill before registering: until the view exists in the catalog no
	// reader can derive from it, so the backing rows' immediate commits
	// never expose a half-built view.
	if err := m.fillBacking(sv); err != nil {
		m.cat.DropTable(backingName)
		return err
	}
	m.setFresh(sv, m.epoch())
	if err := m.cat.RegisterMatView(mv); err != nil {
		m.cat.DropTable(backingName)
		return err
	}
	m.seq[lower(stmt.Name)] = sv
	return nil
}

func toSpec(w core.Window) catalog.WindowSpec {
	return catalog.WindowSpec{Cumulative: w.Cumulative, Preceding: w.Preceding, Following: w.Following}
}

// clearTable deletes every row of a backing table.
func (m *Manager) clearTable(t *catalog.Table) error {
	var ids []storage.RowID
	if err := m.hScan(t, func(id storage.RowID, _ sqltypes.Row) bool {
		ids = append(ids, id)
		return true
	}); err != nil {
		return err
	}
	for _, id := range ids {
		if err := m.hDelete(t, id); err != nil {
			return err
		}
	}
	return nil
}

// fillBacking rewrites the backing table from every partition's maintained
// sequence.
func (m *Manager) fillBacking(sv *seqView) error {
	if err := m.clearTable(sv.mv.Table); err != nil {
		return err
	}
	for _, key := range sv.parts.Keys() {
		p := sv.parts.Partition(key)
		seq := p.Seq()
		for k := seq.Lo(); k <= seq.Hi(); k++ {
			v, ok := p.At(k)
			if !ok {
				continue // MIN/MAX empty windows are not materialized
			}
			if err := m.hInsert(sv.mv.Table, sv.row(sv.partKeys[key], k, v, seq.N)); err != nil {
				return err
			}
		}
	}
	return nil
}

// row is the backing row for value v at position k of a partition with n raw
// values.
func (sv *seqView) row(part sqltypes.Datum, k int, v float64, n int) sqltypes.Row {
	return sv.lay.row(part, k, sv.datum(v), k >= 1 && k <= n)
}

func (sv *seqView) datum(v float64) sqltypes.Datum {
	if sv.valType == sqltypes.Int {
		return sqltypes.NewInt(int64(v))
	}
	return sqltypes.NewFloat(v)
}

func (m *Manager) createPlainView(ctx context.Context, stmt *sqlparser.CreateMatView) error {
	if m.exec == nil {
		return fmt.Errorf("mview: no executor wired for plain materialized views")
	}
	cols, rows, err := m.exec(ctx, stmt.Select)
	if err != nil {
		return err
	}
	backingName := "__mv_" + stmt.Name
	defs := make([]catalog.Column, len(cols))
	for i, c := range cols {
		typ := sqltypes.Null
		for _, r := range rows {
			if !r[i].IsNull() {
				typ = r[i].Typ()
				break
			}
		}
		name := c
		if name == "" {
			name = fmt.Sprintf("column_%d", i+1)
		}
		defs[i] = catalog.Column{Name: name, Type: typ}
	}
	backing, err := m.cat.CreateTable(backingName, defs)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := backing.Heap.Insert(r.Clone()); err != nil {
			return err
		}
	}
	mv := &catalog.MatView{
		Name: stmt.Name, Kind: catalog.PlainView, Table: backing,
		Definition: stmt.String(),
	}
	if err := m.cat.RegisterMatView(mv); err != nil {
		m.cat.DropTable(backingName)
		return err
	}
	m.plain[lower(stmt.Name)] = stmt
	return nil
}

// Drop removes a materialized view and its backing table.
func (m *Manager) Drop(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	mv, ok := m.cat.MatView(name)
	if !ok {
		return rferrors.New(rferrors.CodeUnknownView, "materialized view %q does not exist", name)
	}
	if err := m.cat.DropMatView(name); err != nil {
		return err
	}
	delete(m.seq, lower(name))
	delete(m.plain, lower(name))
	return m.cat.DropTable(mv.Table.Name)
}

// Refresh fully recomputes a view (and clears staleness).
func (m *Manager) Refresh(name string) error {
	return m.RefreshContext(context.Background(), name)
}

// RefreshContext is Refresh with cancellation: a plain view's recompute runs
// its defining query through the engine, which observes ctx.
func (m *Manager) RefreshContext(ctx context.Context, name string) error {
	_, err := m.RefreshTx(ctx, nil, name)
	return err
}

// RefreshTx is RefreshContext inside a transaction: the rebuilt backing rows
// join tx's write-set, so concurrent readers never observe a half-refreshed
// view. The view is fresh from the epoch tx publishes, and only from the
// moment it publishes: the returned stamp records that epoch, and the
// committer calls it inside its publication window — stamped any earlier, a
// reader at the current epoch would find the view "newer than the snapshot"
// while its old rows are still the visible ones. stamp is nil for a plain
// view, whose rows carry no epochs. tx may be nil (library callers), in
// which case every write commits immediately and the view is fresh from the
// epoch of the last. A refresh that fails, or whose stamp is never called,
// leaves the view's freshness as it was.
func (m *Manager) RefreshTx(ctx context.Context, tx *txn.Txn, name string) (stamp func(epoch uint64), err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.curTx = tx
	defer func() { m.curTx = nil }()
	if sv, ok := m.seq[lower(name)]; ok {
		m.stats.FullRefreshes.Add(1)
		if err := m.rebuild(sv); err != nil {
			return nil, err
		}
		if err := m.fillBacking(sv); err != nil {
			return nil, err
		}
		if tx == nil {
			m.setFresh(sv, m.epoch())
			return nil, nil
		}
		return func(epoch uint64) {
			m.mu.Lock()
			defer m.mu.Unlock()
			m.setFresh(sv, epoch)
		}, nil
	}
	if stmt, ok := m.plain[lower(name)]; ok {
		mv, _ := m.cat.MatView(name)
		cols, rows, err := m.exec(ctx, stmt.Select)
		if err != nil {
			return nil, err
		}
		if len(cols) != len(mv.Table.Columns) {
			return nil, fmt.Errorf("mview: refresh arity changed for %q", name)
		}
		if err := m.clearTable(mv.Table); err != nil {
			return nil, err
		}
		for _, r := range rows {
			if err := m.hInsert(mv.Table, r.Clone()); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	return nil, rferrors.New(rferrors.CodeUnknownView, "materialized view %q does not exist", name)
}

func windowOfSpec(w catalog.WindowSpec) core.Window {
	if w.Cumulative {
		return core.Cumul()
	}
	return core.Sliding(w.Preceding, w.Following)
}

// StaleAt says why the named view's rows do not answer a reader at snapshot
// epoch at — "stale (<why>)" from the commit that broke it on, or that they
// were rebuilt after the snapshot — and "" when they do. Plain views and
// unknown names answer.
func (m *Manager) StaleAt(name string, at uint64) string {
	why, _ := m.staleAt(name, at)
	return why
}

func (m *Manager) staleAt(name string, at uint64) (why string, needsRefresh bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	sv, ok := m.seq[lower(name)]
	switch {
	case !ok || sv.freshAt(at):
		return "", false
	case at < sv.staleFrom:
		return fmt.Sprintf("newer than the snapshot (rebuilt at epoch %d, read at epoch %d)", sv.freshFrom, at), false
	}
	return "stale (" + sv.staleWhy + ")", true
}

// CheckFresh returns a stale_view error unless the named view's rows answer
// a reader at snapshot epoch at. The engine calls it before a statement reads
// the view by name.
func (m *Manager) CheckFresh(name string, at uint64) error {
	why, needsRefresh := m.staleAt(name, at)
	switch {
	case why == "":
		return nil
	case needsRefresh:
		return rferrors.New(rferrors.CodeStaleView, "materialized view %q is %s; run REFRESH MATERIALIZED VIEW %s", name, why, name)
	}
	return rferrors.New(rferrors.CodeStaleView, "materialized view %q is %s", name, why)
}

// StalenessAges reports, per materialized view, how long it has been stale
// in seconds; fresh views report 0. The metrics registry scrapes this.
func (m *Manager) StalenessAges() map[string]float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]float64, len(m.seq)+len(m.plain))
	for _, sv := range m.seq {
		age := 0.0
		if sv.stale() && !sv.staleSince.IsZero() {
			age = time.Since(sv.staleSince).Seconds()
		}
		out[sv.mv.Name] = age
	}
	for name := range m.plain {
		if mv, ok := m.cat.MatView(name); ok {
			out[mv.Name] = 0
		}
	}
	return out
}

// Stale reports whether a view is stale at the latest published epoch.
func (m *Manager) Stale(name string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	sv, ok := m.seq[lower(name)]
	return ok && !sv.freshAt(m.cat.Clock().Now())
}
