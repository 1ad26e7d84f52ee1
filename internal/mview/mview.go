// Package mview manages materialized views: creation, full refresh, and —
// for materialized reporting-function views — incremental maintenance with
// the §2.3 rules of core.Apply, applied to the backing table in place.
//
// A *sequence view* is a materialized complete reporting function (§6.2):
// its backing table holds one row per sequence position of every partition,
// including the header (1−h … 0) and trailer (n+1 … n+l) positions (§3.2). A
// simple — unpartitioned — view is the one-partition case of the same
// representation; layout.go describes the only difference, the backing-table
// layout. The backing table is the view's only copy: maintenance reads and
// rewrites its rows through the primary key (store.go), and the manager
// holds no per-partition or per-position state. Sequence views are
// recognized syntactically from the canonical reporting-function query
// shape; everything else materializes as a plain snapshot view.
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

// seqView couples a catalog sequence view with what maintenance needs to
// know of it besides its rows: layout, value type and freshness.
type seqView struct {
	mv      *catalog.MatView
	lay     layout
	valType sqltypes.Type
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
	// stats carries the maintenance counters the metrics registry, the
	// stats protocol op, tests and the maintenance example read.
	stats Stats
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

// CreateTx materializes a view from its defining statement inside tx: it
// creates the backing table and fills it with pending rows of tx. The view
// itself is registered by publish, which the committer runs with the epoch
// tx publishes, inside its publication window (the stamp of the clock's
// Commit): until then no reader can find the view, so none reads it over
// uncommitted rows, and a sequence view is fresh from exactly that epoch.
// Materializing a plain view runs the defining query through the engine,
// which observes ctx. A caller that aborts tx instead of committing it drops
// the backing table.
func (m *Manager) CreateTx(ctx context.Context, tx *txn.Txn, stmt *sqlparser.CreateMatView) (publish func(epoch uint64), err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cat.MatView(stmt.Name); ok {
		return nil, fmt.Errorf("materialized view %q already exists", stmt.Name)
	}
	if _, err := m.cat.Table(stmt.Name); err == nil {
		return nil, fmt.Errorf("%q already names a table", stmt.Name)
	}
	// A LIMIT keeps a prefix of the rows, not a complete sequence.
	if sel, ok := stmt.Select.(*sqlparser.Select); ok && sel.Limit == nil {
		if wq, err := rewrite.MatchWindowQuery(sel); err == nil {
			if lay, ok := sequenceShape(wq); ok {
				return m.createSequenceView(tx, stmt, wq, lay)
			}
		}
	}
	return m.createPlainView(ctx, tx, stmt)
}

func (m *Manager) createSequenceView(tx *txn.Txn, stmt *sqlparser.CreateMatView, wq *rewrite.WindowQuery, lay layout) (func(uint64), error) {
	base, err := m.cat.Table(wq.Table)
	if err != nil {
		return nil, err
	}
	valCol := wq.ValCol
	if valCol == "" { // COUNT(*)
		valCol = wq.PosCol
	}
	mv := &catalog.MatView{
		Name: stmt.Name, Kind: catalog.SequenceView,
		BaseTable: base.Name, PosColumn: wq.PosCol, PartColumn: lay.partCol,
		ValColumn: valCol, Agg: wq.Agg, Window: wq.Shape,
		Definition: stmt.String(),
	}
	// The stored values are typed like the base column; counts are INTEGER.
	sv := &seqView{mv: mv, lay: lay, valType: sqltypes.Int}
	if vi := base.ColumnIndex(valCol); vi >= 0 && base.Columns[vi].Type == sqltypes.Float && mv.Agg != core.Count {
		sv.valType = sqltypes.Float
	}
	// Read the base before creating anything: a non-dense one is refused.
	rows, err := m.sequences(tx, sv)
	if err != nil {
		return nil, err
	}
	backingName := "__mv_" + stmt.Name
	mv.Table, err = m.cat.CreateTable(backingName, lay.columns(base, sv.valType))
	if err != nil {
		return nil, err
	}
	if _, err := m.cat.CreateIndex("pk_"+stmt.Name, backingName, lay.pk(), true); err != nil {
		m.cat.DropTable(backingName)
		return nil, err
	}
	if err := rewriteRows(tx, mv.Table, rows); err != nil {
		m.cat.DropTable(backingName)
		return nil, err
	}
	return m.register(mv, func(epoch uint64) {
		m.setFresh(sv, epoch)
		m.seq[lower(stmt.Name)] = sv
	}), nil
}

// register returns the publish step of a create: it registers mv in the
// catalog and then in the manager (add). CreateTx checked the name and
// created the backing table under it, so a registration can fail only if a
// table of the view's name appeared before the commit; the backing table
// then goes with the view.
func (m *Manager) register(mv *catalog.MatView, add func(epoch uint64)) func(uint64) {
	return func(epoch uint64) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if err := m.cat.RegisterMatView(mv); err != nil {
			m.cat.DropTable(mv.Table.Name)
			return
		}
		add(epoch)
	}
}

// rowSource produces a backing table's rows, handing each to insert.
type rowSource func(insert func(sqltypes.Row) error) error

// sequences reads the view's partitions from the base table, in the view's
// value type, and yields its backing rows: each partition's complete
// sequence over its raw values.
func (m *Manager) sequences(tx *txn.Txn, sv *seqView) (rowSource, error) {
	if sv.valType == sqltypes.Int {
		return sequencesOf[int64](m, tx, sv)
	}
	return sequencesOf[float64](m, tx, sv)
}

func sequencesOf[T core.Num](m *Manager, tx *txn.Txn, sv *seqView) (rowSource, error) {
	parts, err := readSequences[T](m, tx, sv)
	if err != nil {
		return nil, err
	}
	return func(insert func(sqltypes.Row) error) error {
		for _, p := range parts {
			seq, err := core.ComputePipelined(p.vals, sv.mv.Window, sv.mv.Agg.Stored())
			if err != nil {
				return err
			}
			for k := seq.Lo(); k <= seq.Hi(); k++ {
				v, ok := seq.AtOK(k)
				if !ok {
					continue // MIN/MAX empty windows are not materialized
				}
				if err := insert(sv.lay.row(p.part, k, sqltypes.NewNum(v), k >= 1 && k <= seq.N)); err != nil {
					return err
				}
			}
		}
		return nil
	}, nil
}

// copies yields a plain view's backing rows: copies of its query's result
// rows.
func copies(rows []sqltypes.Row) rowSource {
	return func(insert func(sqltypes.Row) error) error {
		for _, r := range rows {
			if err := insert(r.Clone()); err != nil {
				return err
			}
		}
		return nil
	}
}

// rewriteRows is the one fill CREATE and REFRESH share: it replaces every
// row of a backing table with what rows inserts, as pending writes of tx.
func rewriteRows(tx *txn.Txn, t *catalog.Table, rows rowSource) error {
	var ids []storage.RowID
	if err := t.Heap.ScanAt(t.Heap.WriteView(tx), func(id storage.RowID, _ sqltypes.Row) bool {
		ids = append(ids, id)
		return true
	}); err != nil {
		return err
	}
	for _, id := range ids {
		if err := t.Heap.DeleteTx(tx, id); err != nil {
			return err
		}
	}
	return rows(func(r sqltypes.Row) error {
		_, err := t.Heap.InsertTx(tx, r)
		return err
	})
}

func (m *Manager) createPlainView(ctx context.Context, tx *txn.Txn, stmt *sqlparser.CreateMatView) (func(uint64), error) {
	if m.exec == nil {
		return nil, fmt.Errorf("mview: no executor wired for plain materialized views")
	}
	cols, rows, err := m.exec(ctx, stmt.Select)
	if err != nil {
		return nil, err
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
		return nil, err
	}
	if err := rewriteRows(tx, backing, copies(rows)); err != nil {
		m.cat.DropTable(backingName)
		return nil, err
	}
	mv := &catalog.MatView{
		Name: stmt.Name, Kind: catalog.PlainView, Table: backing,
		Definition: stmt.String(),
	}
	return m.register(mv, func(uint64) { m.plain[lower(stmt.Name)] = stmt }), nil
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

// RefreshTx fully recomputes a view (and clears staleness) inside tx: the
// rebuilt backing rows join tx's write-set, so concurrent readers never
// observe a half-refreshed view; a plain view's recompute runs its defining
// query through the engine, which observes ctx. The view is fresh from the
// epoch tx publishes, and only from the moment it publishes: the returned
// stamp records that epoch, and the committer calls it inside its
// publication window — stamped any earlier, a reader at the current epoch
// would find the view "newer than the snapshot" while its old rows are
// still the visible ones. stamp is nil for a plain view, whose rows carry
// no epochs. A refresh that fails, or whose stamp is never called, leaves
// the view's freshness as it was.
func (m *Manager) RefreshTx(ctx context.Context, tx *txn.Txn, name string) (stamp func(epoch uint64), err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sv, ok := m.seq[lower(name)]; ok {
		m.stats.FullRefreshes.Add(1)
		rows, err := m.sequences(tx, sv)
		if err != nil {
			return nil, err
		}
		if err := rewriteRows(tx, sv.mv.Table, rows); err != nil {
			return nil, err
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
		return nil, rewriteRows(tx, mv.Table, copies(rows))
	}
	return nil, rferrors.New(rferrors.CodeUnknownView, "materialized view %q does not exist", name)
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
