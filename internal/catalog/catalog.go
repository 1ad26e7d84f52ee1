// Package catalog holds the engine's metadata: table schemas, column types,
// index definitions, and materialized-view definitions. It is the layer the
// binder resolves names against and the layer the view-matching rewriter
// consults when it searches for a materialized reporting-function view that
// can answer an incoming query (§3 of the paper).
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	rferrors "rfview/errors"
	"rfview/internal/core"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
	"rfview/internal/txn"
)

// Column describes one column of a table schema.
type Column struct {
	Name string
	Type sqltypes.Type
}

// IndexDef records a created index.
type IndexDef struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

// Table couples a schema with its heap storage.
type Table struct {
	Name    string
	Columns []Column
	Heap    *storage.Table
	Indexes []*IndexDef
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// ColumnNames returns the column names in order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// MatViewKind distinguishes the materialized-view flavours the engine knows
// how to exploit during derivation rewrites.
type MatViewKind uint8

// Materialized-view kinds.
const (
	// PlainView is an arbitrary materialized query result; it can be scanned
	// but not used for window derivation.
	PlainView MatViewKind = iota
	// SequenceView is a materialized *complete simple sequence*: columns
	// (pos, val) holding the reporting-function result including header and
	// trailer rows (§3.2). It is the substrate of MaxOA/MinOA rewrites.
	SequenceView
)

// MatView records a materialized view over a base table.
type MatView struct {
	Name string
	Kind MatViewKind
	// Backing table that stores the materialized rows.
	Table *Table

	// For SequenceView: provenance needed by the derivation rewriter and
	// the incremental maintenance machinery.
	BaseTable string // table the sequence was computed over
	PosColumn string // ordering column in the base table
	// PartColumn is the PARTITION BY column for partitioned sequence views
	// ("" for simple sequences). Partitioned views store one complete
	// sequence per partition — the paper's "complete reporting function"
	// (§6.2) — in a backing table (part, pos, val, body).
	PartColumn string
	ValColumn  string      // aggregated column in the base table
	Agg        core.Agg    // the view's aggregate; its rows hold Agg.Stored()'s sequence
	Window     core.Window // the materialized window
	// SQL text the view was created from (for SHOW / debugging).
	Definition string
}

// Catalog is a thread-safe name → metadata map.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	views  map[string]*MatView
	// clock is the shared commit clock every table created through this
	// catalog stamps row versions from, so one snapshot spans all tables.
	clock *txn.Clock
	// schemaVersion counts DDL operations (table/index/view creation and
	// removal). Cached plans record it and revalidate on reuse: any DDL —
	// notably CREATE MATERIALIZED VIEW, which can make a better derivation
	// available for an already-cached query — invalidates every plan.
	schemaVersion uint64
	// pager owns the heap files and the shared buffer pool every table's
	// payloads live in — base tables and mview backing tables alike, since
	// both funnel through CreateTable.
	pager *storage.Pager
}

// New returns an empty catalog whose tables store their rows through pager.
func New(pager *storage.Pager) *Catalog {
	return &Catalog{
		tables: make(map[string]*Table),
		views:  make(map[string]*MatView),
		clock:  txn.NewClock(),
		pager:  pager,
	}
}

// Clock returns the shared commit clock of this catalog's tables.
func (c *Catalog) Clock() *txn.Clock { return c.clock }

func key(name string) string { return strings.ToLower(name) }

// SchemaVersion returns the DDL counter. It increases on every successful
// CreateTable, DropTable, CreateIndex, DropIndex, RegisterMatView, and
// DropMatView.
func (c *Catalog) SchemaVersion() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.schemaVersion
}

// CreateTable registers a new table with the given schema.
func (c *Catalog) CreateTable(name string, cols []Column) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.tables[k]; ok {
		return nil, fmt.Errorf("table %q already exists", name)
	}
	if _, ok := c.views[k]; ok {
		return nil, fmt.Errorf("%q already names a materialized view", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("table %q needs at least one column", name)
	}
	seen := make(map[string]bool, len(cols))
	for _, col := range cols {
		ck := key(col.Name)
		if seen[ck] {
			return nil, fmt.Errorf("duplicate column %q in table %q", col.Name, name)
		}
		seen[ck] = true
	}
	heap, err := storage.NewPagedTable(c.clock, c.pager, k)
	if err != nil {
		return nil, fmt.Errorf("table %q: %w", name, err)
	}
	t := &Table{Name: name, Columns: append([]Column(nil), cols...), Heap: heap}
	c.tables[k] = t
	c.schemaVersion++
	return t, nil
}

// DropTable removes a table. A table a registered materialized view depends
// on — its backing table, or the base table a sequence view is maintained
// from — stays until the view is dropped: an orphaned view would keep
// answering queries over a table that is gone and could not be restored.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.tables[k]; !ok {
		return rferrors.New(rferrors.CodeUnknownTable, "table %q does not exist", name)
	}
	dependent := ""
	for _, v := range c.views {
		if (key(v.Table.Name) == k || (v.Kind == SequenceView && key(v.BaseTable) == k)) &&
			(dependent == "" || v.Name < dependent) {
			dependent = v.Name
		}
	}
	if dependent != "" {
		return rferrors.New(rferrors.CodeUnsupported,
			"table %q is needed by materialized view %q; drop the view first", name, dependent)
	}
	delete(c.tables, k)
	c.schemaVersion++
	return nil
}

// Table resolves a table by name. Materialized views resolve too: their
// backing tables are scannable like ordinary tables.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if t, ok := c.tables[key(name)]; ok {
		return t, nil
	}
	if v, ok := c.views[key(name)]; ok {
		return v.Table, nil
	}
	return nil, rferrors.New(rferrors.CodeUnknownTable, "table %q does not exist", name)
}

// Tables returns all table names in sorted order.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// CreateIndex creates an index over the named columns of a table.
func (c *Catalog) CreateIndex(name, table string, columns []string, unique bool) (*IndexDef, error) {
	t, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ords := make([]int, len(columns))
	for i, col := range columns {
		ord := t.ColumnIndex(col)
		if ord < 0 {
			return nil, fmt.Errorf("index %q: column %q does not exist in %q", name, col, table)
		}
		ords[i] = ord
	}
	if _, err := t.Heap.AddIndex(name, ords, unique); err != nil {
		return nil, err
	}
	def := &IndexDef{Name: name, Table: t.Name, Columns: append([]string(nil), columns...), Unique: unique}
	t.Indexes = append(t.Indexes, def)
	c.schemaVersion++
	return def, nil
}

// DropIndex removes an index from a table.
func (c *Catalog) DropIndex(table, name string) error {
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := t.Heap.DropIndex(name); err != nil {
		return err
	}
	for i, def := range t.Indexes {
		if def.Name == name {
			t.Indexes = append(t.Indexes[:i], t.Indexes[i+1:]...)
			break
		}
	}
	c.schemaVersion++
	return nil
}

// RegisterMatView records a materialized view whose rows live in view.Table.
func (c *Catalog) RegisterMatView(view *MatView) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(view.Name)
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("materialized view %q already exists", view.Name)
	}
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("%q already names a table", view.Name)
	}
	c.views[k] = view
	c.schemaVersion++
	return nil
}

// DropMatView removes a materialized view.
func (c *Catalog) DropMatView(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.views[key(name)]; !ok {
		return rferrors.New(rferrors.CodeUnknownView, "materialized view %q does not exist", name)
	}
	delete(c.views, key(name))
	c.schemaVersion++
	return nil
}

// StoredView returns the materialized view whose rows the named relation
// holds — name is the view's own or its backing table's — if there is one.
// Those rows are the view manager's to write, not a user statement's.
func (c *Catalog) StoredView(name string) (*MatView, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if v, ok := c.views[key(name)]; ok {
		return v, true
	}
	for _, v := range c.views {
		if key(v.Table.Name) == key(name) {
			return v, true
		}
	}
	return nil, false
}

// MatView resolves a materialized view by name.
func (c *Catalog) MatView(name string) (*MatView, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[key(name)]
	return v, ok
}

// MatViews returns all materialized views sorted by name.
func (c *Catalog) MatViews() []*MatView {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*MatView, 0, len(c.views))
	for _, v := range c.views {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SequenceViewsOver returns the sequence views materialized over the given
// base table / position column / partition column / value column that
// store agg's sequence (core.Agg.Stored), the candidate set the derivation
// rewriter matches incoming window queries against. partCol is "" for
// unpartitioned queries.
func (c *Catalog) SequenceViewsOver(baseTable, posCol, partCol, valCol string, agg core.Agg) []*MatView {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*MatView
	for _, v := range c.views {
		if v.Kind != SequenceView {
			continue
		}
		if strings.EqualFold(v.BaseTable, baseTable) &&
			strings.EqualFold(v.PosColumn, posCol) &&
			strings.EqualFold(v.PartColumn, partCol) &&
			strings.EqualFold(v.ValColumn, valCol) &&
			v.Agg.Stored() == agg {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
