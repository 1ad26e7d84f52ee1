package engine

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	rferrors "rfview/errors"
	"rfview/internal/core"
	"rfview/internal/paper"
	"rfview/internal/rewrite"
	"rfview/internal/sqltypes"
)

// This file is the randomized maintenance oracle: the proof that the §2.3
// delta rules, applied inside each write, keep a materialized window view
// equal to the paper's definition of it. Each trial builds ONE engine over a
// base table and a materialized window view, and a shadow copy of the base
// values per partition key. A random DML stream (skewed value updates,
// appends, tail deletes, partition births and deaths, and §2.3 positional
// shifts — a ±1 renumbering of a partition's suffix with the insert or
// delete at k, one transaction each) is applied to both;
// after every step the view's backing rows must be bit-identical to
// core.ComputeNaive over the shadow sequence — header and trailer included —
// and a window query answered under one of six evaluation strategies must
// be bit-identical to the naive evaluation of its own window. One of the six
// is the served path — the statement as a client sends it, answered by the
// Derive operator exactly when core.Algorithm accepts the target over the
// fresh view — under a wider draw of targets than the rendered strategies
// admit, over a SUM view also asked for AVG and over an AVG view, which
// stores its window sums, also for SUM, and in one served trial in three
// under an ORDER BY of the position or the value with a LIMIT, whose rows
// are compared in order; the forced MaxOA and MinOA
// strategies run paper.Pattern's SQL over the model's n. The data is
// INTEGER, and the model's answers are int64 — an AVG the int64 window sum
// divided once by its count — so any difference in value or type is a
// maintenance bug. One trial in five (by its number) offsets every value it
// draws by ±2⁵³, the sign alternating draw by draw, so running sums cross
// 2⁵³ both ways, where a float64 detour loses the low bits. Chaos trials end
// with a density-breaking statement, which must leave the view stale until REFRESH, and then check that
// maintenance resumes from the refreshed state. Two trials in three index the
// base's positions uniquely; the rest leave it without an index, which is
// where a chaos step may renumber only part of a suffix. Half the
// partitioned trials key their partitions by FLOATs (−2.25, 1e-300, …)
// instead of VARCHARs, among them a zero the statements spell −0.0 and 0.0
// by turns — one partition, as SQL's = says — and a NaN, which equals
// itself and sorts above every number. Two trials in seven (by number) of
// the oracle without transactions run under a 4 KiB memory budget, with
// sorter runs of four rows, so the view fill's sort, the window sorts and
// the buffer pool go external; REFRESH and the chaos repair still compare bit
// for bit.

// oracleConfig is one evaluation strategy the comparison queries run under:
// the options of the trial's engine, and how the window query is put to it
// over a base of n rows (the model's n of a simple sequence, 0 partitioned).
type oracleConfig struct {
	name    string
	derives bool // uses the materialized view to answer the window query
	apply   func(*Options)
	query   func(t *testing.T, e *Engine, sql string, n int) *Result
}

var oracleConfigs = []oracleConfig{
	{"served", true, func(*Options) {}, execServed},
	{"native-seq", false, func(o *Options) { o.UseMatViews = false; o.WindowParallelism = 1 }, sqlOnly(mustExec)},
	{"native-par", false, func(o *Options) { o.UseMatViews = false; o.WindowParallelism = 4 }, sqlOnly(mustExec)},
	{"selfjoin", false, func(o *Options) { o.UseMatViews = false }, sqlOnly(execSelfJoin)},
	{"maxoa", true, func(*Options) {}, execForced(paper.StrategyMaxOA)},
	{"minoa", true, func(*Options) {}, execForced(paper.StrategyMinOA)},
}

// sqlOnly adapts an evaluation that needs no base cardinality.
func sqlOnly(f func(*testing.T, *Engine, string) *Result) func(*testing.T, *Engine, string, int) *Result {
	return func(t *testing.T, e *Engine, sql string, _ int) *Result { return f(t, e, sql) }
}

// execServed puts sql to the engine as a client does. The answer must come
// from the trial's view mv exactly when servedDerivable says so, and then
// through the Derive operator over one scan of the view and nothing
// relational: no join, no aggregate.
func execServed(t *testing.T, e *Engine, sql string, _ int) *Result {
	t.Helper()
	derivable, why := servedDerivable(t, e, sql)
	res, err := e.ExecContext(context.Background(), sql, WithAnalyze())
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	if (res.Derivation != nil) != derivable {
		t.Fatalf("%q derived=%v, but %s:\n%s", sql, res.Derivation != nil, why, res.Analyzed)
	}
	if derivable && (!strings.Contains(res.Analyzed, "Derive view=mv") || strings.Count(res.Analyzed, "SeqScan") != 1 ||
		strings.Contains(res.Analyzed, "Join") || strings.Contains(res.Analyzed, "Aggregate")) {
		t.Fatalf("%q derived, but not by one Derive over a scan of the view:\n%s", sql, res.Analyzed)
	}
	return res
}

// servedDerivable is the served path's rule for sql, asked of core.Algorithm
// directly so a matcher that declines what the algebra can do cannot hide:
// the engine answers from the trial's view mv exactly when it uses views, mv
// is fresh at the latest epoch, and core.Algorithm accepts the query's
// target over mv's window and the aggregate mv stores — SUM for a SUM or AVG
// view, whose derived sums an AVG query divides (§2.1). why describes the
// inputs.
func servedDerivable(t *testing.T, e *Engine, sql string) (ok bool, why string) {
	t.Helper()
	wq, err := rewrite.MatchWindowQuery(parseSelect(t, sql))
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	mv, found := e.Cat.MatView("mv")
	if !found {
		t.Fatal("the trial's view mv is not registered")
	}
	_, declined := core.Algorithm(mv.Window, mv.Agg.Stored(), wq.Shape)
	fresh := !e.Views.Stale("mv")
	return e.Opts.UseMatViews && declined == nil && fresh,
		fmt.Sprintf("%s over mv %s %s: views=%v fresh=%v, core.Algorithm says %v", wq.Agg, mv.Agg, mv.Window, e.Opts.UseMatViews, fresh, declined)
}

var oracleAggs = map[string]core.Agg{"SUM": core.Sum, "COUNT": core.Count, "AVG": core.Avg, "MIN": core.Min, "MAX": core.Max}

// oracleModel is the shadow of the base table: the values of every live
// partition in position order. The generator reads it to emit only DML the
// §2.3 rules accept (or deliberately violates them, in chaos steps), and the
// checks evaluate the paper's model over it.
type oracleModel struct {
	partitioned bool
	floatKeys   bool             // the partition column is FLOAT: keys are numbers, "0" and "NaN" among them
	keys        []string         // live partition keys, insertion order ("" for simple)
	vals        map[string][]int // values per key, position order
	born        int              // partitions birthed, for fresh key names
	zeros       int              // the zero key's literals so far: even ones spell −0.0
	wide        bool             // values are offset by ±2⁵³
	drawn       int              // values drawn so far, whose parity signs the offset
}

// value draws a value of the stream: in a wide trial offset by ±2⁵³, with
// the sign alternating from draw to draw.
func (m *oracleModel) value(rng *rand.Rand) int {
	v := rng.Intn(100) - 50
	if m.wide {
		m.drawn++
		v += (1 - 2*(m.drawn%2)) << 53
	}
	return v
}

// floatSeedKeys are the FLOAT partition keys a trial seeds its base with:
// each sorts as a string as it does as a number under SQL's order, NaN
// last.
var floatSeedKeys = []string{"-2.25", "0", "1e-300", "NaN", "3.5"}

func (m *oracleModel) clone() *oracleModel {
	c := &oracleModel{partitioned: m.partitioned, floatKeys: m.floatKeys, keys: slices.Clone(m.keys), vals: map[string][]int{}, born: m.born}
	for k, v := range m.vals {
		c.vals[k] = slices.Clone(v)
	}
	return c
}

func (m *oracleModel) pickKey(rng *rand.Rand) string {
	// Skew: favor early partitions, so some run hot while others idle.
	i := rng.Intn(len(m.keys))
	if j := rng.Intn(len(m.keys)); j < i {
		i = j
	}
	return m.keys[i]
}

// step emits one maintainable DML statement and applies it to the shadow.
func (m *oracleModel) step(rng *rand.Rand) string {
	key := m.pickKey(rng)
	val := m.value(rng)
	roll := rng.Float64()
	switch {
	case roll < 0.15 && m.partitioned: // partition birth
		m.born++
		k := fmt.Sprintf("n%d", m.born)
		switch {
		case m.floatKeys:
			k = fmt.Sprintf("9.%03d5", m.born) // sorts as a string as it does as a number
		case m.born == 1:
			k = "NULL" // a string key that renders like the NULL key
		}
		m.keys = append(m.keys, k)
		m.vals[k] = []int{val}
		return m.insertSQL(k, 1, val)
	case roll < 0.35: // append
		m.vals[key] = append(m.vals[key], val)
		return m.insertSQL(key, len(m.vals[key]), val)
	case roll < 0.50 && m.deletable(key): // tail delete (possibly a death)
		pos := len(m.vals[key])
		m.vals[key] = m.vals[key][:pos-1]
		if pos == 1 {
			m.keys = slices.DeleteFunc(m.keys, func(k string) bool { return k == key })
			delete(m.vals, key)
		}
		return m.deleteSQL(key, pos)
	default: // value update
		pos := 1 + rng.Intn(len(m.vals[key]))
		m.vals[key][pos-1] = val
		return m.updateSQL(key, pos, val)
	}
}

// shift emits a positional shift (§2.3) as the statements of one
// transaction — the +1 renumbering of k…n_p and the insert at k, or the
// delete at k and the −1 renumbering of k+1…n_p — and applies it to the
// shadow. kind names it.
func (m *oracleModel) shift(rng *rand.Rand) (kind string, stmts []string) {
	key := m.pickKey(rng)
	n := len(m.vals[key])
	if n >= 2 && m.deletable(key) && rng.Intn(2) == 0 {
		k := 1 + rng.Intn(n-1)
		m.vals[key] = slices.Delete(m.vals[key], k-1, k)
		return "shift delete", []string{m.deleteSQL(key, k), m.renumberSQL(key, k+1, 0, -1)}
	}
	k, val := 1+rng.Intn(n), m.value(rng)
	m.vals[key] = slices.Insert(m.vals[key], k-1, val)
	return "shift insert", []string{m.renumberSQL(key, k, 0, +1), m.insertSQL(key, k, val)}
}

// chaos emits a density-breaking transaction — a middle delete, an insert
// past the end, one roll in three while the partition keyed by the string
// 'NULL' lives the move of its last row to the NULL key, or, on a base
// without an index, a shift insert whose renumbering stops short of the
// partition's end — plus the repair that restores density afterwards, and
// applies their net effect to the shadow. kind names the break. The break
// must stale the view; the repair lets REFRESH rebuild from a dense base.
func (m *oracleModel) chaos(rng *rand.Rand, indexed bool) (kind string, broken, repair []string) {
	key := m.pickKey(rng)
	val := m.value(rng)
	if n := len(m.vals[key]); !indexed && n >= 2 {
		// Renumber k…m only, leaving m+1 twice; the repair deletes both rows
		// there, renumbers the rest and puts them back, as the full shift.
		k := 1 + rng.Intn(n-1)
		last := k + rng.Intn(n-k)
		old := slices.Clone(m.vals[key])
		m.vals[key] = slices.Insert(m.vals[key], k-1, val)
		return "partial renumber", []string{m.renumberSQL(key, k, last, +1), m.insertSQL(key, k, val)},
			[]string{m.deleteSQL(key, last+1), m.renumberSQL(key, last+2, 0, +1),
				m.insertSQL(key, last+1, old[last-1]), m.insertSQL(key, last+2, old[last])}
	}
	roll := rng.Intn(3)
	if roll == 0 && slices.Contains(m.keys, "NULL") {
		n := len(m.vals["NULL"])
		return "key to NULL", []string{fmt.Sprintf(`UPDATE pt SET grp = NULL WHERE grp = 'NULL' AND pos = %d`, n)},
			[]string{fmt.Sprintf(`UPDATE pt SET grp = 'NULL' WHERE grp IS NULL AND pos = %d`, n)}
	}
	if n := len(m.vals[key]); roll == 1 && n >= 4 {
		pos := n / 2 // middle delete, then put a row back at the gap
		m.vals[key][pos-1] = val
		return "middle delete", []string{m.deleteSQL(key, pos)}, []string{m.insertSQL(key, pos, val)}
	}
	pos := len(m.vals[key]) + 5 // gap insert, then remove the orphan
	return "gap insert", []string{m.insertSQL(key, pos, val)}, []string{m.deleteSQL(key, pos)}
}

func (m *oracleModel) deletable(key string) bool {
	if m.partitioned {
		return len(m.keys) > 1 || len(m.vals[key]) > 1
	}
	return len(m.vals[key]) > 3 // keep simple sequences comfortably non-empty
}

// keySQL is key as a literal of the partition column.
func (m *oracleModel) keySQL(key string) string {
	switch {
	case !m.floatKeys:
		return "'" + key + "'"
	case key == "0":
		m.zeros++
		if m.zeros%2 == 0 {
			return "-0.0"
		}
		return "0.0"
	case key == "NaN":
		return "(1e308 * 10.0 - 1e308 * 10.0)" // ∞ − ∞: SQL has no NaN literal
	}
	return key
}

func (m *oracleModel) table() string {
	if m.partitioned {
		return "pt"
	}
	return "seq"
}

func (m *oracleModel) insertSQL(key string, pos, val int) string {
	if m.partitioned {
		return fmt.Sprintf(`INSERT INTO pt VALUES (%s, %d, %d)`, m.keySQL(key), pos, val)
	}
	return fmt.Sprintf(`INSERT INTO seq VALUES (%d, %d)`, pos, val)
}

func (m *oracleModel) updateSQL(key string, pos, val int) string {
	if m.partitioned {
		return fmt.Sprintf(`UPDATE pt SET val = %d WHERE grp = %s AND pos = %d`, val, m.keySQL(key), pos)
	}
	return fmt.Sprintf(`UPDATE seq SET val = %d WHERE pos = %d`, val, pos)
}

// renumberSQL moves positions from…to (to 0: the partition's end) by step.
func (m *oracleModel) renumberSQL(key string, from, to, step int) string {
	where := fmt.Sprintf("pos >= %d", from)
	if to > 0 {
		where += fmt.Sprintf(" AND pos <= %d", to)
	}
	if m.partitioned {
		where = fmt.Sprintf("grp = %s AND %s", m.keySQL(key), where)
	}
	op := "+"
	if step < 0 {
		op, step = "-", -step
	}
	return fmt.Sprintf(`UPDATE %s SET pos = pos %s %d WHERE %s`, m.table(), op, step, where)
}

func (m *oracleModel) deleteSQL(key string, pos int) string {
	if m.partitioned {
		return fmt.Sprintf(`DELETE FROM pt WHERE grp = %s AND pos = %d`, m.keySQL(key), pos)
	}
	return fmt.Sprintf(`DELETE FROM seq WHERE pos = %d`, pos)
}

// loadSQL renders the shadow as the table's initial INSERT.
func (m *oracleModel) loadSQL() string {
	var rows []string
	for _, k := range m.keys {
		for i, v := range m.vals[k] {
			if m.partitioned {
				rows = append(rows, fmt.Sprintf("(%s, %d, %d)", m.keySQL(k), i+1, v))
			} else {
				rows = append(rows, fmt.Sprintf("(%d, %d)", i+1, v))
			}
		}
	}
	return fmt.Sprintf("INSERT INTO %s VALUES %s", m.table(), strings.Join(rows, ", "))
}

// oracleRow is one compared row: partition key ("" for simple views),
// position, the value — compared by type and bits — and, in a partitioned
// view's backing table, whether the position belongs to the body.
type oracleRow struct {
	part string
	pos  int
	val  sqltypes.Datum
	body bool
}

func (r oracleRow) String() string {
	return fmt.Sprintf("%s@%d=%v body=%v", r.part, r.pos, r.val, r.body)
}

func sortOracleRows(rows []oracleRow) []oracleRow {
	slices.SortFunc(rows, func(a, b oracleRow) int {
		if c := strings.Compare(a.part, b.part); c != 0 {
			return c
		}
		return a.pos - b.pos
	})
	return rows
}

// naive evaluates the paper's model — the explicit form at every position of
// the complete sequence, in int64 — over one partition of the shadow: the
// sequence agg stores, SUM for AVG.
func (m *oracleModel) naive(t *testing.T, key string, w core.Window, agg core.Agg) *core.Sequence[int64] {
	t.Helper()
	raw := make([]int64, len(m.vals[key]))
	for i, v := range m.vals[key] {
		raw[i] = int64(v)
	}
	seq, err := core.ComputeNaive(raw, w, agg.Stored())
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// answer is agg's answer at k over seq, naive's sequence: INTEGER, or for
// AVG the window's sum divided once by its count.
func answer(seq *core.Sequence[int64], agg core.Agg, k int) (sqltypes.Datum, bool) {
	v, ok := seq.AtOK(k)
	if agg == core.Avg {
		return sqltypes.NewFloat(float64(v) / float64(max(seq.Win.Count(k, seq.N), 1))), ok
	}
	return sqltypes.NewInt(v), ok
}

// wantBacking is the complete sequence of every partition: header, body and
// trailer, minus the empty MIN/MAX windows a view does not store.
func (m *oracleModel) wantBacking(t *testing.T, w core.Window, agg core.Agg) []oracleRow {
	t.Helper()
	var out []oracleRow
	for _, key := range m.keys {
		seq := m.naive(t, key, w, agg)
		for k := seq.Lo(); k <= seq.Hi(); k++ {
			if v, ok := answer(seq, agg, k); ok {
				out = append(out, oracleRow{key, k, v, m.partitioned && k >= 1 && k <= seq.N})
			}
		}
	}
	return sortOracleRows(out)
}

// wantQuery is what the reporting function returns to the user: the body.
func (m *oracleModel) wantQuery(t *testing.T, w core.Window, agg core.Agg) []oracleRow {
	t.Helper()
	var out []oracleRow
	for _, key := range m.keys {
		if w == core.Sliding(0, 0) {
			// A frame of one row — the window core declines to materialize —
			// aggregates the row itself.
			for i, v := range m.vals[key] {
				x := sqltypes.NewInt(int64(v))
				switch agg {
				case core.Count:
					x = sqltypes.NewInt(1)
				case core.Avg:
					x = sqltypes.NewFloat(float64(v))
				}
				out = append(out, oracleRow{part: key, pos: i + 1, val: x})
			}
			continue
		}
		seq := m.naive(t, key, w, agg)
		for k := 1; k <= seq.N; k++ {
			v, _ := answer(seq, agg, k)
			out = append(out, oracleRow{part: key, pos: k, val: v})
		}
	}
	return sortOracleRows(out)
}

// gotRows reads a result in the (part,) pos, val (, body) layout both the
// backing tables and the window queries use, in (part, pos) order.
func (m *oracleModel) gotRows(res *Result) []oracleRow { return sortOracleRows(m.resultRows(res)) }

// resultRows reads a result as gotRows does, in the order it came.
func (m *oracleModel) resultRows(res *Result) []oracleRow {
	out := make([]oracleRow, len(res.Rows))
	for i, r := range res.Rows {
		if m.partitioned {
			// A key renders as its class under SQL's =: −0.0 as 0.
			out[i].part, r = r[0].Key().String(), r[1:]
		}
		out[i].pos, out[i].val = int(r[0].Int()), r[1]
		if len(r) > 2 {
			out[i].body = r[2].Bool()
		}
	}
	return out
}

// unkeyed is rows without their partition keys, as a multiset: sorted by
// position, then value.
func unkeyed(rows []oracleRow) []oracleRow {
	out := make([]oracleRow, len(rows))
	for i, r := range rows {
		out[i] = oracleRow{pos: r.pos, val: r.val}
	}
	slices.SortFunc(out, func(a, b oracleRow) int { return cmp.Or(a.pos-b.pos, compareVals(a, b)) })
	return out
}

// compareVals orders two rows by their values, as SQL does.
func compareVals(a, b oracleRow) int {
	c, _ := sqltypes.Compare(a.val, b.val)
	return c
}

// ordered is what a query answering want (in (part, pos) order) returns
// under ORDER BY key [DESC] LIMIT k with the tie-breaks the oracle adds: the
// partition key and the position.
func ordered(want []oracleRow, key string, desc bool, k int) []oracleRow {
	slices.SortStableFunc(want, func(a, b oracleRow) int {
		c := a.pos - b.pos
		if key == "w" {
			c = compareVals(a, b)
		}
		if desc {
			return -c
		}
		return c
	})
	return want[:min(k, len(want))]
}

// TestMaintenanceOracle is the randomized maintenance oracle described above.
func TestMaintenanceOracle(t *testing.T) { runMaintenanceOracle(t, false) }

// TestMaintenanceOracleTxn re-runs the oracle with the DML stream applied
// through multi-statement transactions: statements are chunked into
// BEGIN..COMMIT blocks — a shift's two among the others, so one commit folds
// it with other changes of its partition — every so often a chunk is first
// run and ROLLED BACK (which must leave the view exactly where the model was)
// before being applied for real, and a concurrent reader hammers the window
// query while the writer's transactions are open. Inside every transaction
// the window query derives at the snapshot exactly as the served path would
// before the first write, never after one, and answers the model of its own
// writes. Under -race this is also the proof that lock-free snapshot reads
// and transactional maintenance don't race. Halfway through each stream a
// second session opens a transaction and reads the window query and the view;
// it holds that snapshot across the rest of the stream — across the
// reclamation its commits run — and must read both answers again at the end.
func TestMaintenanceOracleTxn(t *testing.T) { runMaintenanceOracle(t, true) }

func runMaintenanceOracle(t *testing.T, useTxns bool) {
	rng := rand.New(rand.NewSource(20020528)) // §2.3's incremental rules, ICDE 2002
	trials := 320
	if testing.Short() {
		trials = 40
	}
	derivationsFired := map[string]int{}
	deltasApplied := 0
	heldAcrossReclaim := 0    // trials whose held snapshot outlived a reclamation
	drawn := map[string]int{} // the corners of the draw the trials reached
	for trial := 0; trial < trials; trial++ {
		// Every other trial is the served path; the rest take turns.
		cfg := oracleConfigs[0]
		if trial%2 == 1 {
			cfg = oracleConfigs[1+trial/2%(len(oracleConfigs)-1)]
		}
		partitioned := rng.Intn(3) == 0
		// Half the partitioned trials key partitions by fractional FLOATs
		// (by the trial's number, leaving the draw's stream as is).
		floatKeys := partitioned && trial/2%2 == 1
		// Every partition carries the COUNT side AVG needs, and a cumulative
		// window is a window like any other: all three draws are independent.
		aggs := []string{"SUM", "SUM", "COUNT", "MIN", "MAX", "AVG"}
		agg := aggs[rng.Intn(len(aggs))]
		cumulative := rng.Intn(4) == 0
		lx, hx := rng.Intn(3), rng.Intn(3)
		if lx+hx == 0 {
			lx = 1
		}
		ly, hy := lx+rng.Intn(4), hx+rng.Intn(4)
		if agg == "MIN" || agg == "MAX" {
			// MIN/MAX derivation needs a covering extension of bounded width.
			dl, dh := rng.Intn(lx+hx+1), rng.Intn(lx+hx+1)
			if dl+dh > lx+hx+1 {
				dh = 0
			}
			ly, hy = lx+dl, hx+dh
		}
		queryCumulative := cumulative // identical window: the exact-match derivation
		queryAgg := agg
		if cfg.name == "served" {
			// Over a SUM view, AVG is a SUM derivation divided by the
			// window's implied counts (§2.1): ask for it in every other
			// served trial (by its number, leaving the draw's stream as is).
			if agg == "SUM" && trial%4 == 0 {
				queryAgg = "AVG"
			}
			// An AVG view stores its window sums: it answers SUM too.
			if agg == "AVG" && trial%4 == 2 {
				queryAgg = "SUM"
			}
			// The operator takes what the rendered patterns cannot be forced
			// to: any target — wider, narrower (a negative Δ, MinOA's alone,
			// down to the one-row frame (0,0)), or too wide for MIN/MAX, which
			// then runs natively — and a sliding target over a cumulative
			// view (§3.1).
			switch rng.Intn(8) {
			case 0, 1, 2:
				ly, hy = rng.Intn(7), rng.Intn(7)
			case 3, 4:
				ly, hy = rng.Intn(lx+1), rng.Intn(hx+3)
			case 5:
				ly, hy = 0, 0
			}
			queryCumulative = cumulative && rng.Intn(2) == 0
		}
		// One served trial in three orders its answer by the position or the
		// value, either way, and keeps a prefix (by its number again): the
		// derived rows go through the statement's Sort and Limit. Ties fall
		// back to the model's (part, pos) order.
		orderKey, orderDesc, limit := "", trial/12%2 == 1, 1+trial/6%7
		orderBy := ""
		if cfg.name == "served" && trial%6 == 0 {
			orderKey = []string{"pos", "w"}[trial/6%2]
			dir, ties := "", ", pos"
			if orderDesc {
				dir = " DESC"
			}
			if partitioned {
				ties = ", grp, pos"
			}
			orderBy = fmt.Sprintf(" ORDER BY %s%s%s LIMIT %d", orderKey, dir, ties, limit)
		}
		// One served partitioned trial in three (by its number) leaves the
		// partition column out of the select list: the answer is then the
		// multiset of (pos, w) rows.
		omitGrp := cfg.name == "served" && partitioned && trial%6 == 4
		chaosTrial := rng.Intn(5) == 0
		indexed := trial%3 != 0
		wide := trial%5 == 3 // values offset by ±2⁵³
		for name, hit := range map[string]bool{
			"partitioned AVG":          partitioned && agg == "AVG",
			"partitioned cumulative":   partitioned && cumulative,
			"cumulative AVG":           cumulative && agg == "AVG",
			"±2⁵³ SUM":                 wide && agg == "SUM",
			"±2⁵³ MAX":                 wide && agg == "MAX",
			"±2⁵³ AVG":                 wide && agg == "AVG",
			"±2⁵³ served AVG from SUM": wide && cfg.name == "served" && agg == "SUM" && queryAgg == "AVG",
		} {
			if hit {
				drawn[name]++
			}
		}

		viewWin, queryWin := core.Sliding(lx, hx), core.Sliding(ly, hy)
		frame := fmt.Sprintf("ROWS BETWEEN %d PRECEDING AND %d FOLLOWING", lx, hx)
		qframe := fmt.Sprintf("ROWS BETWEEN %d PRECEDING AND %d FOLLOWING", ly, hy)
		if cumulative {
			viewWin, frame = core.Cumul(), "ROWS UNBOUNDED PRECEDING"
		}
		if queryCumulative {
			queryWin, qframe = core.Cumul(), "ROWS UNBOUNDED PRECEDING"
		}
		var viewDDL, q, backingQ string
		if partitioned {
			viewDDL = fmt.Sprintf(`CREATE MATERIALIZED VIEW mv AS
			  SELECT grp, pos, %s(val) OVER (PARTITION BY grp ORDER BY pos %s) AS val FROM pt`, agg, frame)
			sel := "grp, pos"
			if omitGrp {
				sel = "pos"
			}
			q = fmt.Sprintf(`SELECT %s, %s(val) OVER (PARTITION BY grp ORDER BY pos %s) AS w FROM pt`, sel, queryAgg, qframe) + orderBy
			backingQ = `SELECT part, pos, val, body FROM mv`
		} else {
			viewDDL = fmt.Sprintf(`CREATE MATERIALIZED VIEW mv AS
			  SELECT pos, %s(val) OVER (ORDER BY pos %s) AS val FROM seq`, agg, frame)
			q = fmt.Sprintf(`SELECT pos, %s(val) OVER (ORDER BY pos %s) AS w FROM seq`, queryAgg, qframe) + orderBy
			backingQ = `SELECT pos, val FROM mv`
		}
		ctx := fmt.Sprintf("trial %d: cfg=%s wide=%v part=%v omitgrp=%v floatkeys=%v agg=%s query=%s cum=%v x̃=(%d,%d) ỹ=(%d,%d) chaos=%v indexed=%v%s",
			trial, cfg.name, wide, partitioned, omitGrp, floatKeys, agg, queryAgg, cumulative, lx, hx, ly, hy, chaosTrial, indexed, orderBy)

		model := &oracleModel{partitioned: partitioned, floatKeys: floatKeys, vals: map[string][]int{}, wide: wide}
		seedVals := func(key string, n int) {
			model.keys = append(model.keys, key)
			for i := 0; i < n; i++ {
				model.vals[key] = append(model.vals[key], model.value(rng))
			}
		}
		if partitioned {
			for g, groups := 0, 1+rng.Intn(3); g < groups; g++ {
				key := fmt.Sprintf("g%d", g)
				if floatKeys {
					key = floatSeedKeys[(g+trial/4)%len(floatSeedKeys)]
					drawn["FLOAT key "+key]++
				}
				seedVals(key, 2+rng.Intn(10))
			}
		} else {
			seedVals("", 6+rng.Intn(25))
		}

		opts := DefaultOptions()
		cfg.apply(&opts)
		spills := !useTxns && trial%7 < 2
		if spills {
			opts.MemoryBudgetBytes = 4 << 10
		}
		e := New(opts)
		if spills {
			e.spillCfg.MinRunRows = 4 // a trial's few rows outnumber a run
		}
		if partitioned {
			grp := "VARCHAR(8)"
			if floatKeys {
				grp = "FLOAT"
			}
			mustExec(t, e, `CREATE TABLE pt (grp `+grp+`, pos INTEGER, val INTEGER)`)
			if indexed {
				mustExec(t, e, `CREATE UNIQUE INDEX pt_pk ON pt (grp, pos)`)
			}
		} else {
			mustExec(t, e, `CREATE TABLE seq (pos INTEGER, val INTEGER)`)
			if indexed {
				mustExec(t, e, `CREATE UNIQUE INDEX seq_pk ON seq (pos)`)
			}
		}
		mustExec(t, e, model.loadSQL())
		runs := e.SpillStats().Runs.Load()
		mustExec(t, e, viewDDL)
		if spills && e.SpillStats().Runs.Load() > runs {
			drawn["spilled fill"]++
		}

		// answers compares a window query's result with the model evaluated
		// over m.
		answers := func(m *oracleModel, res *Result, when string) {
			t.Helper()
			var got []oracleRow
			want := m.wantQuery(t, queryWin, oracleAggs[queryAgg])
			switch {
			case orderKey != "":
				got, want = m.resultRows(res), ordered(want, orderKey, orderDesc, limit)
			case omitGrp:
				got, want = unkeyed((&oracleModel{}).resultRows(res)), unkeyed(want)
			default:
				got = m.gotRows(res)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %s: window query diverged from ComputeNaive over the shadow\n got: %v\nwant: %v", ctx, when, got, want)
			}
		}

		// check compares the view's stored rows and the window query with the
		// model evaluated over m.
		check := func(m *oracleModel, when string) {
			t.Helper()
			if e.Views.Stale("mv") {
				_, why := e.Views.StaleInfo("mv")
				t.Fatalf("%s: %s: view went stale on maintainable DML: %s", ctx, when, why)
			}
			got, want := m.gotRows(mustExec(t, e, backingQ)), m.wantBacking(t, viewWin, oracleAggs[agg])
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %s: view rows diverged from ComputeNaive over the shadow\n got: %v\nwant: %v", ctx, when, got, want)
			}
			res := cfg.query(t, e, q, len(m.vals[""]))
			if d := res.Derivation; cfg.derives && d != nil {
				derivationsFired[cfg.name]++
				if cfg.name == "served" {
					algo := d.Plan.Source.Algo
					for name, hit := range map[string]bool{
						"served partitioned MIN/MAX":                 partitioned && algo == core.AlgoMaxOA,
						"served negative-Δ MinOA":                    algo == core.AlgoMinOA && (d.DeltaL < 0 || d.DeltaH < 0),
						"served MinOA residue corner":                algo == core.AlgoMinOA && (d.DeltaL+d.DeltaH)%d.Wx == 0,
						"served sliding from cumulative":             cumulative && !queryCumulative,
						"served partitioned sliding from cumulative": partitioned && algo == core.AlgoCumulative,
						"served one-row from sliding":                !cumulative && ly+hy == 0,
						"served one-row from cumulative":             cumulative && !queryCumulative && ly+hy == 0,
						"served AVG from SUM":                        queryAgg == "AVG" && agg == "SUM",
						"served partitioned AVG from SUM":            queryAgg == "AVG" && agg == "SUM" && partitioned,
						"served AVG from cumulative SUM":             queryAgg == "AVG" && agg == "SUM" && cumulative,
						"served AVG from AVG view":                   queryAgg == "AVG" && agg == "AVG" && algo != core.AlgoExact,
						"served SUM from AVG view":                   queryAgg == "SUM" && agg == "AVG",
						"served ORDER BY pos LIMIT":                  orderKey == "pos",
						"served ORDER BY w LIMIT":                    orderKey == "w",
						"served FLOAT keys":                          floatKeys,
						"served partition column not selected":       omitGrp,
					} {
						if hit {
							drawn[name]++
						}
					}
				}
			}
			answers(m, res, when)
		}

		// inTxn runs stmts inside the session's open transaction and puts the
		// window query to the session before the first and after each one.
		// Before, the query derives exactly as execServed would, at the
		// snapshot, and answers the model before the chunk (prev). After a
		// write it must not derive — the view holds the transaction's own
		// writes only once it commits — and answers the model with the
		// chunk's writes so far (afters, or one of them, nil while a gap is
		// open, when only success is asserted).
		sess := e.NewSession()
		inTxn := func(prev *oracleModel, stmts []string, afters []*oracleModel) {
			t.Helper()
			derivable, why := servedDerivable(t, e, q)
			res := mustSess(t, sess, q)
			if (res.Derivation != nil) != derivable {
				t.Fatalf("%s: inside BEGIN the window query derived=%v, but %s", ctx, res.Derivation != nil, why)
			}
			if prev != nil {
				answers(prev, res, "inside BEGIN")
			}
			for i, sql := range stmts {
				mustSess(t, sess, sql)
				res := mustSess(t, sess, q)
				if res.Derivation != nil {
					t.Fatalf("%s: after %s inside the transaction the window query derived from the view", ctx, sql)
				}
				if afters != nil && afters[i] != nil {
					answers(afters[i], res, "inside the transaction after "+sql)
				}
			}
		}

		// apply runs one step's statements: directly, unless they are atomic,
		// or as one transaction — sometimes preceded by a dry run that is
		// rolled back.
		apply := func(prev *oracleModel, stmts []string, afters []*oracleModel, atomic bool) {
			t.Helper()
			if !useTxns && !atomic {
				for _, sql := range stmts {
					mustExec(t, e, sql)
				}
				return
			}
			if prev != nil && rng.Intn(3) == 0 {
				mustSess(t, sess, "BEGIN")
				inTxn(prev, stmts, afters)
				mustSess(t, sess, "ROLLBACK")
				check(prev, "after ROLLBACK")
			}
			mustSess(t, sess, "BEGIN")
			inTxn(prev, stmts, afters)
			mustSess(t, sess, "COMMIT")
		}
		stopReader := func() {}
		if useTxns {
			stopReader = startOracleReader(t, e, q)
		}

		check(model, "after CREATE")
		// hold opens the held snapshot: a transaction on its own session that
		// reads the window query and the view now, and again when the
		// returned release is called, both at the model of now.
		hold := func() (release func()) {
			held, was := e.NewSession(), model.clone()
			reclaimed := e.TxnStats().VersionsReclaimed
			mustSess(t, held, "BEGIN")
			read := func(when string) {
				t.Helper()
				answers(was, mustSess(t, held, q), when)
				if got, want := was.gotRows(mustSess(t, held, backingQ)), was.wantBacking(t, viewWin, oracleAggs[agg]); !slices.Equal(got, want) {
					t.Fatalf("%s: %s: view rows diverged from ComputeNaive over the shadow\n got: %v\nwant: %v", ctx, when, got, want)
				}
			}
			read("held snapshot at BEGIN")
			return func() {
				t.Helper()
				read("held snapshot at the end of the stream")
				if e.TxnStats().VersionsReclaimed > reclaimed {
					heldAcrossReclaim++
				}
				mustSess(t, held, "COMMIT")
				held.Close()
			}
		}
		// runSteps applies steps model steps; mid, when set, runs once at the
		// first chunk boundary past the halfway mark.
		runSteps := func(steps int, when string, mid func()) {
			t.Helper()
			for i := 0; i < steps; {
				if mid != nil && 2*i >= steps {
					mid()
					mid = nil
				}
				chunk := 1
				if useTxns {
					chunk = 1 + rng.Intn(3)
				}
				prev := model.clone()
				var stmts []string
				var afters []*oracleModel
				atomic := false // holds a shift, whose two statements open a gap and close it
				for ; chunk > 0 && i < steps; chunk, i = chunk-1, i+1 {
					if rng.Intn(6) == 0 {
						kind, shift := model.shift(rng)
						stmts, afters, atomic = append(stmts, shift...), append(afters, nil, model.clone()), true
						drawn[kind]++
						if partitioned {
							drawn["partitioned "+kind]++
						}
						if floatKeys {
							drawn["FLOAT keys "+kind]++
						}
						continue
					}
					stmts = append(stmts, model.step(rng))
					afters = append(afters, model.clone())
				}
				apply(prev, stmts, afters, atomic)
				check(model, fmt.Sprintf("%s step %d (%s)", when, i, stmts[len(stmts)-1]))
			}
		}
		var release func()
		var holdMid func()
		if useTxns {
			holdMid = func() { release = hold() }
		}
		runSteps(10+rng.Intn(20), "stream", holdMid)
		if release != nil {
			release()
		}
		deltasApplied += int(e.Views.Stats().DeltaApplied.Load())

		if chaosTrial {
			// Density breaks: the view must go stale inside the write, stay
			// stale through the repair, refuse to be read, and heal only by
			// REFRESH — after which the delta rules must pick up again. The
			// base table never named the view: once its positions are dense
			// again the window query answers from the current rows, stale
			// view or not (while the gap is open a ROWS frame and the paper's
			// position frame are different windows, so only success is
			// asserted there).
			kind, broken, repair := model.chaos(rng, indexed)
			drawn["chaos "+kind]++
			if partitioned {
				drawn["chaos partitioned "+kind]++
			}
			if agg == "COUNT" {
				drawn["chaos COUNT "+kind]++
			}
			for i, stmts := range [][]string{broken, repair} {
				apply(nil, stmts, nil, len(stmts) > 1)
				if !e.Views.Stale("mv") {
					t.Fatalf("%s: view is not stale after %q", ctx, stmts)
				}
				if _, err := e.Exec(backingQ); rferrors.CodeOf(err) != rferrors.CodeStaleView {
					t.Fatalf("%s: reading the stale view after %q: got %v, want a stale_view error", ctx, stmts, err)
				}
				res := cfg.query(t, e, q, len(model.vals[""]))
				if res.Derivation != nil {
					t.Fatalf("%s: after %q the window query derived from the stale view", ctx, stmts)
				}
				if i == 1 {
					answers(model, res, "base-table window query while stale")
				}
			}
			mustExec(t, e, `REFRESH MATERIALIZED VIEW mv`)
			check(model, "after REFRESH")
			runSteps(3, "post-refresh", nil)
		}
		stopReader()
		sess.Close()
		e.Close()
	}
	if deltasApplied == 0 {
		t.Fatal("no incremental deltas applied across all trials — oracle is not exercising maintenance")
	}
	if useTxns && heldAcrossReclaim == 0 && !testing.Short() {
		t.Fatal("no held snapshot outlived a reclamation — the oracle is not exercising the horizon")
	}
	for _, corner := range []string{"partitioned AVG", "partitioned cumulative", "cumulative AVG",
		"±2⁵³ SUM", "±2⁵³ MAX", "±2⁵³ AVG", "±2⁵³ served AVG from SUM",
		"shift insert", "shift delete", "partitioned shift insert", "partitioned shift delete",
		"chaos partitioned key to NULL", "chaos partitioned middle delete", "chaos partitioned gap insert",
		"chaos partial renumber", "chaos partitioned partial renumber", "chaos COUNT partial renumber",
		"served partitioned MIN/MAX", "served negative-Δ MinOA", "served MinOA residue corner",
		"served sliding from cumulative", "served partitioned sliding from cumulative",
		"served one-row from sliding", "served one-row from cumulative",
		"served AVG from SUM", "served partitioned AVG from SUM", "served AVG from cumulative SUM",
		"served AVG from AVG view", "served SUM from AVG view",
		"served ORDER BY pos LIMIT", "served ORDER BY w LIMIT", "served partition column not selected",
		"FLOAT keys shift insert", "FLOAT keys shift delete", "served FLOAT keys", "FLOAT key 0", "FLOAT key NaN",
		"spilled fill"} {
		if drawn[corner] == 0 && !testing.Short() && (corner != "spilled fill" || !useTxns) {
			t.Fatalf("the draw never reached %q (reached: %v)", corner, drawn)
		}
	}
	for _, cfg := range oracleConfigs {
		if cfg.derives && derivationsFired[cfg.name] == 0 {
			t.Fatalf("%s never derived from the view across %d trials — oracle is not exercising derivation", cfg.name, trials)
		}
	}
}

// startOracleReader hammers q from a concurrent snapshot reader until the
// returned stop function is called; stop fails the test on any reader error
// — the query names the base table, so not even a chaos step's stale view
// may surface in it.
func startOracleReader(t *testing.T, e *Engine, q string) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := e.Exec(q); err != nil {
				readErr = fmt.Errorf("concurrent reader: %w", err)
				return
			}
		}
	}()
	return func() {
		t.Helper()
		close(done)
		wg.Wait()
		if readErr != nil {
			t.Fatal(readErr)
		}
	}
}

// TestMaintenanceSignedZeroPartitions holds the window, the view's primary
// key and its maintenance to one partition for −0.0 and +0.0, as SQL's =
// has it: rows keyed −0.0 at positions 1…2 and +0.0 at 3…4 are one dense
// partition, which a view stores, maintains and derives from; rows dense
// 1…n under each zero are one partition holding every position twice, which
// CREATE MATERIALIZED VIEW refuses for its density.
func TestMaintenanceSignedZeroPartitions(t *testing.T) {
	const win = `SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING)`
	load := func(views bool, rows string) *Engine {
		opts := DefaultOptions()
		opts.UseMatViews = views
		e := New(opts)
		t.Cleanup(func() { e.Close() })
		mustExec(t, e, `CREATE TABLE pt (grp FLOAT, pos INTEGER, val INTEGER)`)
		mustExec(t, e, `INSERT INTO pt VALUES `+rows)
		return e
	}
	const split = `(-0.0, 1, 1), (-0.0, 2, 2), (0.0, 3, 3), (0.0, 4, 4)`
	served, native := load(true, split), load(false, split)
	mustExec(t, served, `CREATE MATERIALIZED VIEW mv AS SELECT grp, pos, `+win+` AS val FROM pt`)
	q := `SELECT grp, pos, ` + win + ` AS w FROM pt ORDER BY pos`
	answer := func(when string, want ...int64) {
		t.Helper()
		derived, nat := mustExec(t, served, q), mustExec(t, native, q)
		if derived.Derivation == nil {
			t.Fatalf("%s: the query did not derive from the view", when)
		}
		for _, res := range []*Result{derived, nat} {
			got := make([]int64, len(res.Rows))
			for i, r := range res.Rows {
				got[i] = r[2].Int()
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: derived=%v answers %v, want %v", when, res.Derivation != nil, got, want)
			}
		}
	}
	answer("after CREATE", 3, 6, 9, 7)
	for _, e := range []*Engine{served, native} {
		mustExec(t, e, `UPDATE pt SET val = 10 WHERE grp = -0.0 AND pos = 3`)
		mustExec(t, e, `INSERT INTO pt VALUES (-0.0, 5, 5)`)
	}
	if served.Views.Stale("mv") {
		_, why := served.Views.StaleInfo("mv")
		t.Fatalf("maintenance across the two zeros staled the view: %s", why)
	}
	answer("after UPDATE and INSERT", 3, 13, 16, 19, 9)

	twice := load(true, `(-0.0, 1, 1), (-0.0, 2, 2), (0.0, 1, 3), (0.0, 2, 4)`)
	_, err := twice.Exec(`CREATE MATERIALIZED VIEW mv AS SELECT grp, pos, ` + win + ` AS val FROM pt`)
	if err == nil || !strings.Contains(err.Error(), "dense") || strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("CREATE over two dense runs under −0.0 and +0.0: got %v, want the density error", err)
	}
}
