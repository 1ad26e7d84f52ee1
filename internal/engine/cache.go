package engine

import (
	"context"
	"slices"
	"strings"
	"sync/atomic"

	"rfview/internal/qcache"
	"rfview/internal/rewrite"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
)

// DefaultPlanCacheCapacity bounds the plan/derivation cache of a new engine.
const DefaultPlanCacheCapacity = 256

// maxCachedResultRows bounds result-row reuse: entries whose result exceeds
// this many rows cache the plan only and re-execute on every hit, keeping
// the cache's memory footprint proportional to its entry count.
const maxCachedResultRows = 16384

// The plan/derivation cache memoizes the front half of read-statement
// processing — parse, view matching, derivation rewrite — in one entry per
// statement, keyed by its SQL text as written. The paper's premise (§1, §8)
// is that warehouse query load is read-dominated and repetitive, so the
// same reporting-function queries recur; on a hit the engine replans
// straight from the cached (post-derivation) statement and executes. EXPLAIN
// looks its statement up by the text as written too (sqlparser.Explain's
// Source). Small results are additionally cached whole — the §3 caching
// setting taken to its limit: when nothing a query reads has changed, its
// previous answer *is* the materialized answer — so a repeat of an
// unchanged query skips execution too. Callers must treat result rows as
// immutable; the engine never mutates them.
//
// Validity is version-based, never time-based:
//
//   - every table referenced by the original or rewritten statement is
//     recorded with its storage version counter, which each INSERT, UPDATE,
//     DELETE, and view refresh bumps;
//   - the catalog schema version is recorded, which every DDL bumps — so
//     CREATE MATERIALIZED VIEW invalidates cached plans that could now
//     derive from the new view;
//   - materialized views referenced by the plan are rechecked for freshness
//     on every hit: a query that names a stale view errors the same way a
//     cold-path query would, and a plan whose derivation decision no longer
//     holds — derived from a view that went stale, or native because the
//     view was stale and has been refreshed — is dropped and decided again.
//
// Invalid entries are dropped lazily when touched; LRU handles the rest.
type cachedPlan struct {
	// exec is the statement to plan: the derivation's DeriveSelect node when
	// one fired, the original statement otherwise. Planning does not mutate
	// the AST, so concurrent readers replan from the same tree.
	exec sqlparser.SelectStatement
	// derivation replays the provenance of the first run.
	derivation *rewrite.Derivation
	// views are the materialized views the plan reads (freshness recheck).
	views []string
	// skipped is the view the derivation rewrite declined to read (stale: the
	// cache holds auto-commit plans only), and skipWhy why.
	skipped, skipWhy string
	// deps are the tables the plan reads, with their versions at cache time.
	deps []planDep
	// schema is the catalog schema version at cache time.
	schema uint64
	// opts is the engine configuration the plan was built under; rewrite
	// decisions are option-dependent, so any change invalidates.
	opts Options
	// columns/rows hold the full result when hasResult is set (the result
	// fit under maxCachedResultRows); otherwise the entry is plan-only and
	// hits re-execute. Shared across hits: readers must not mutate.
	hasResult bool
	columns   []string
	rows      []sqltypes.Row
	// encoded memoizes the caller's encoding of columns and rows (see
	// Result.Encoded) and rewritten the derivation's text (Result.Rewritten);
	// each is set on first use and dies with the entry.
	encoded   atomic.Pointer[[]byte]
	rewritten atomic.Pointer[string]
}

type planDep struct {
	name    string
	version uint64
}

// execCached answers sql from the plan cache. ok=false means "no valid
// entry" and the caller takes the cold path. Validation and execution run
// inside readStable, so the versions checked and the rows read belong to one
// published state even though no lock is held.
func (e *Engine) execCached(ctx context.Context, sql string, cfg execConfig) (*Result, error, bool) {
	ent, hit := e.plans.Get(sql)
	if !hit {
		return nil, nil, false
	}
	var invalid bool
	res, err := e.readStable(cfg, func(c execConfig) (*Result, error) {
		invalid = false
		if !e.planValid(ent) {
			invalid = true
			return nil, nil
		}
		return e.execFromPlan(ctx, ent, c)
	})
	if invalid {
		e.plans.Remove(sql)
		return nil, nil, false
	}
	return res, err, true
}

// planValid revalidates a cached entry against current versions.
func (e *Engine) planValid(p *cachedPlan) bool {
	if e.Opts != p.opts || e.Cat.SchemaVersion() != p.schema {
		return false
	}
	for _, d := range p.deps {
		t, err := e.Cat.Table(d.name)
		if err != nil || t.Heap.Version() != d.version {
			return false
		}
	}
	if p.derivation != nil && slices.ContainsFunc(p.views, e.Views.Stale) {
		return false
	}
	return p.skipped == "" || e.Views.Stale(p.skipped)
}

// execFromPlan runs a validated cache entry under the shared lock.
func (e *Engine) execFromPlan(ctx context.Context, p *cachedPlan, cfg execConfig) (*Result, error) {
	for _, v := range p.views {
		if err := e.Views.CheckFresh(v, cfg.snap().Epoch); err != nil {
			return nil, err
		}
	}
	res := &Result{Derivation: p.derivation, execStmt: p.exec, skipped: p.skipped, skipWhy: p.skipWhy, CacheHit: true}
	if p.hasResult && !cfg.analyze {
		// Version validation just proved nothing the query reads has
		// changed, so the previous answer is still the answer. Analyze
		// requests skip the shortcut: rows must actually flow through the
		// operators to be counted.
		res.Columns = p.columns
		res.Rows = p.rows
		res.Affected = len(p.rows)
		res.cached = p
		return res, nil
	}
	op, err := e.planPhysical(ctx, p.exec, cfg)
	if err != nil {
		return nil, err
	}
	return e.runOperator(ctx, op, res, cfg)
}

// Encoded returns enc(r.Columns, r.Rows, r.Affected). When the rows came
// from the result cache, the first call stores the bytes beside the cached
// rows and later hits of the same entry return them without calling enc, so
// enc must depend on its arguments alone. The engine never interprets the
// bytes; a nil return is not stored. A nil Result yields nil.
func (r *Result) Encoded(enc func(cols []string, rows []sqltypes.Row, affected int) []byte) []byte {
	switch {
	case r == nil:
		return nil
	case r.cached == nil:
		return enc(r.Columns, r.Rows, r.Affected)
	}
	if b := r.cached.encoded.Load(); b != nil {
		return *b
	}
	b := enc(r.Columns, r.Rows, r.Affected)
	if b != nil {
		r.cached.encoded.Store(&b)
	}
	return b
}

// Rewritten renders the derivation's plan node as text (DERIVE … FROM view
// … BY algorithm), "" exactly when Derivation is nil. Nothing renders it
// until a caller asks, and the hits answered from one cache entry's rows
// share one rendering.
func (r *Result) Rewritten() string {
	switch {
	case r == nil || r.Derivation == nil:
		return ""
	case r.cached == nil:
		return r.Derivation.Plan.String()
	}
	if s := r.cached.rewritten.Load(); s != nil {
		return *s
	}
	s := r.Derivation.Plan.String()
	r.cached.rewritten.Store(&s)
	return s
}

// preparePlan captures a cache entry for a just-executed read statement.
// It must run inside the same readStable attempt as the execution, so the
// recorded dependency versions are consistent with the rows the execution
// read; the caller publishes the entry only after the attempt validated
// against the seqlock — a torn entry (old rows, new versions) would
// otherwise validate forever.
func (e *Engine) preparePlan(stmt sqlparser.Statement, res *Result) *cachedPlan {
	sel, ok := stmt.(sqlparser.SelectStatement)
	if !ok || res.execStmt == nil {
		return nil // EXPLAIN and friends stay uncached
	}
	deps := newDepSet(e)
	deps.addStmt(sel)          // base tables of the original query
	deps.addStmt(res.execStmt) // views a derivation reads
	ent := &cachedPlan{
		exec:       res.execStmt,
		derivation: res.Derivation,
		views:      deps.views,
		skipped:    res.skipped,
		skipWhy:    res.skipWhy,
		deps:       deps.tables,
		schema:     e.Cat.SchemaVersion(),
		opts:       e.Opts,
	}
	if len(res.Rows) <= maxCachedResultRows {
		ent.hasResult = true
		ent.columns = res.Columns
		ent.rows = res.Rows
	}
	return ent
}

// PlanCacheStats returns a snapshot of the plan cache counters.
func (e *Engine) PlanCacheStats() qcache.Stats { return e.plans.Stats() }

// SetPlanCacheCapacity replaces the plan cache with an empty one bounded to
// n entries; n = 0 disables plan caching.
func (e *Engine) SetPlanCacheCapacity(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.plans = qcache.New[*cachedPlan](n)
}

// InvalidatePlans empties the plan cache.
func (e *Engine) InvalidatePlans() { e.plans.Purge() }

// depSet accumulates the tables and materialized views a statement reads.
type depSet struct {
	e      *Engine
	seen   map[string]bool
	tables []planDep
	views  []string
}

func newDepSet(e *Engine) *depSet {
	return &depSet{e: e, seen: make(map[string]bool)}
}

// viewsRead lists the materialized views named in stmt's FROM clauses.
func (e *Engine) viewsRead(stmt sqlparser.SelectStatement) []string {
	d := newDepSet(e)
	d.addStmt(stmt)
	return d.views
}

func (d *depSet) addName(name string) {
	k := strings.ToLower(name)
	if d.seen[k] {
		return
	}
	d.seen[k] = true
	if _, isView := d.e.Cat.MatView(name); isView {
		d.views = append(d.views, name)
	}
	// Views resolve to their backing tables, so a REFRESH (which rewrites
	// the backing rows) bumps the recorded version.
	t, err := d.e.Cat.Table(name)
	if err != nil {
		return // unresolvable names fail at plan time, not here
	}
	d.tables = append(d.tables, planDep{name: name, version: t.Heap.Version()})
}

// addStmt walks every FROM clause reachable from the statement, and the
// views a derivation reads.
func (d *depSet) addStmt(stmt sqlparser.SelectStatement) {
	switch s := stmt.(type) {
	case *sqlparser.Select:
		d.addFrom(s.From)
	case *sqlparser.Union:
		d.addStmt(s.Left)
		d.addStmt(s.Right)
	case *sqlparser.DeriveSelect:
		d.addName(s.Source.View)
	}
}

func (d *depSet) addFrom(t sqlparser.TableExpr) {
	switch x := t.(type) {
	case nil:
	case *sqlparser.TableName:
		d.addName(x.Name)
	case *sqlparser.Join:
		d.addFrom(x.Left)
		d.addFrom(x.Right)
	case *sqlparser.DerivedTable:
		d.addStmt(x.Select)
	}
}
