package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	rferrors "rfview/errors"
	"rfview/internal/core"
	"rfview/internal/rewrite"
)

// This file is the randomized maintenance oracle: the proof that the §2.3
// delta rules, applied inside each write, keep a materialized window view
// equal to the paper's definition of it. Each trial builds ONE engine over a
// base table and a materialized window view, and a shadow copy of the base
// values per partition key. A random DML stream (skewed value updates,
// appends, tail deletes, partition births and deaths) is applied to both;
// after every step the view's backing rows must be bit-identical to
// core.ComputeNaive over the shadow sequence — header and trailer included —
// and a window query answered under one of six evaluation strategies must
// be bit-identical to the naive evaluation of its own window. One of the six
// is the served path — the statement as a client sends it, answered by the
// Derive operator exactly when core.Algorithm accepts the target over the
// fresh view — under a wider draw of targets than the rendered strategies
// admit, and over a SUM view also asked for AVG; the forced MaxOA and MinOA
// strategies run rewrite.Pattern's SQL over the model's n. Integer data
// keeps every SUM/COUNT/AVG/MIN/MAX exact in float64, so any bit difference
// is a maintenance bug. Chaos trials end with a density-breaking statement,
// which must leave the view stale until REFRESH, and then check that
// maintenance resumes from the refreshed state.

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
	{"maxoa", true, func(*Options) {}, execForced(rewrite.StrategyMaxOA)},
	{"minoa", true, func(*Options) {}, execForced(rewrite.StrategyMinOA)},
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
// target over mv's window and aggregate — the query's own, or SUM for an AVG
// query, which divides the derived sums (§2.1). why describes the inputs.
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
	_, declined := core.Algorithm(core.Window(mv.Window), oracleAggs[mv.Agg], core.Window(wq.Shape))
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
	keys        []string         // live partition keys, insertion order ("" for simple)
	vals        map[string][]int // values per key, position order
	born        int              // partitions birthed, for fresh key names
}

func (m *oracleModel) clone() *oracleModel {
	c := &oracleModel{partitioned: m.partitioned, keys: slices.Clone(m.keys), vals: map[string][]int{}, born: m.born}
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
	val := rng.Intn(100) - 50
	roll := rng.Float64()
	switch {
	case roll < 0.15 && m.partitioned: // partition birth
		m.born++
		k := fmt.Sprintf("n%d", m.born)
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

// chaos emits a density-breaking statement — a middle delete, or an insert
// past the end — plus the repair that restores density afterwards, and
// applies their net effect to the shadow. The break must stale the view; the
// repair lets REFRESH rebuild from a dense base.
func (m *oracleModel) chaos(rng *rand.Rand) (broken, repair string) {
	key := m.pickKey(rng)
	val := rng.Intn(100) - 50
	if n := len(m.vals[key]); rng.Intn(2) == 0 && n >= 4 {
		pos := n / 2 // middle delete, then put a row back at the gap
		m.vals[key][pos-1] = val
		return m.deleteSQL(key, pos), m.insertSQL(key, pos, val)
	}
	pos := len(m.vals[key]) + 5 // gap insert, then remove the orphan
	return m.insertSQL(key, pos, val), m.deleteSQL(key, pos)
}

func (m *oracleModel) deletable(key string) bool {
	if m.partitioned {
		return len(m.keys) > 1 || len(m.vals[key]) > 1
	}
	return len(m.vals[key]) > 3 // keep simple sequences comfortably non-empty
}

func (m *oracleModel) table() string {
	if m.partitioned {
		return "pt"
	}
	return "seq"
}

func (m *oracleModel) insertSQL(key string, pos, val int) string {
	if m.partitioned {
		return fmt.Sprintf(`INSERT INTO pt VALUES ('%s', %d, %d)`, key, pos, val)
	}
	return fmt.Sprintf(`INSERT INTO seq VALUES (%d, %d)`, pos, val)
}

func (m *oracleModel) updateSQL(key string, pos, val int) string {
	if m.partitioned {
		return fmt.Sprintf(`UPDATE pt SET val = %d WHERE grp = '%s' AND pos = %d`, val, key, pos)
	}
	return fmt.Sprintf(`UPDATE seq SET val = %d WHERE pos = %d`, val, pos)
}

func (m *oracleModel) deleteSQL(key string, pos int) string {
	if m.partitioned {
		return fmt.Sprintf(`DELETE FROM pt WHERE grp = '%s' AND pos = %d`, key, pos)
	}
	return fmt.Sprintf(`DELETE FROM seq WHERE pos = %d`, pos)
}

// loadSQL renders the shadow as the table's initial INSERT.
func (m *oracleModel) loadSQL() string {
	var rows []string
	for _, k := range m.keys {
		for i, v := range m.vals[k] {
			if m.partitioned {
				rows = append(rows, fmt.Sprintf("('%s', %d, %d)", k, i+1, v))
			} else {
				rows = append(rows, fmt.Sprintf("(%d, %d)", i+1, v))
			}
		}
	}
	return fmt.Sprintf("INSERT INTO %s VALUES %s", m.table(), strings.Join(rows, ", "))
}

// oracleRow is one compared row: partition key ("" for simple views),
// position, the bits of the value, and — in a partitioned view's backing
// table — whether the position belongs to the body.
type oracleRow struct {
	part string
	pos  int
	bits uint64
	body bool
}

func (r oracleRow) String() string {
	return fmt.Sprintf("%s@%d=%v body=%v", r.part, r.pos, math.Float64frombits(r.bits), r.body)
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
// the complete sequence — over one partition of the shadow.
func (m *oracleModel) naive(t *testing.T, key string, w core.Window, agg core.Agg) *core.Sequence {
	t.Helper()
	raw := make([]float64, len(m.vals[key]))
	for i, v := range m.vals[key] {
		raw[i] = float64(v)
	}
	seq, err := core.ComputeNaive(raw, w, agg)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// wantBacking is the complete sequence of every partition: header, body and
// trailer, minus the empty MIN/MAX windows a view does not store.
func (m *oracleModel) wantBacking(t *testing.T, w core.Window, agg core.Agg) []oracleRow {
	t.Helper()
	var out []oracleRow
	for _, key := range m.keys {
		seq := m.naive(t, key, w, agg)
		for k := seq.Lo(); k <= seq.Hi(); k++ {
			if v, ok := seq.AtOK(k); ok {
				out = append(out, oracleRow{key, k, math.Float64bits(v), m.partitioned && k >= 1 && k <= seq.N})
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
				x := float64(v)
				if agg == core.Count {
					x = 1
				}
				out = append(out, oracleRow{part: key, pos: i + 1, bits: math.Float64bits(x)})
			}
			continue
		}
		for i, v := range m.naive(t, key, w, agg).Body() {
			out = append(out, oracleRow{part: key, pos: i + 1, bits: math.Float64bits(v)})
		}
	}
	return sortOracleRows(out)
}

// gotRows reads a result in the (part,) pos, val (, body) layout both the
// backing tables and the window queries use.
func (m *oracleModel) gotRows(res *Result) []oracleRow {
	out := make([]oracleRow, len(res.Rows))
	for i, r := range res.Rows {
		if m.partitioned {
			out[i].part, r = r[0].String(), r[1:]
		}
		out[i].pos, out[i].bits = int(r[0].Int()), math.Float64bits(r[1].Float())
		if len(r) > 2 {
			out[i].body = r[2].Bool()
		}
	}
	return sortOracleRows(out)
}

// TestMaintenanceOracle is the randomized maintenance oracle described above.
func TestMaintenanceOracle(t *testing.T) { runMaintenanceOracle(t, false) }

// TestMaintenanceOracleTxn re-runs the oracle with the DML stream applied
// through multi-statement transactions: statements are chunked into
// BEGIN..COMMIT blocks, every so often a chunk is first run and ROLLED BACK
// (which must leave the view exactly where the model was) before being
// applied for real, and a concurrent reader hammers the window query while
// the writer's transactions are open. Inside every transaction the window
// query derives at the snapshot exactly as the served path would before the
// first write, never after one, and answers the model of its own writes.
// Under -race this is also the proof that lock-free snapshot reads and
// transactional maintenance don't race. Halfway through each stream a second
// session opens a transaction and reads the window query and the view; it
// holds that snapshot across the rest of the stream — across the
// reclamation its commits run — and must read both answers again at the
// end.
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
		chaosTrial := rng.Intn(5) == 0
		for name, hit := range map[string]bool{
			"partitioned AVG":        partitioned && agg == "AVG",
			"partitioned cumulative": partitioned && cumulative,
			"cumulative AVG":         cumulative && agg == "AVG",
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
			q = fmt.Sprintf(`SELECT grp, pos, %s(val) OVER (PARTITION BY grp ORDER BY pos %s) AS w FROM pt`, queryAgg, qframe)
			backingQ = `SELECT part, pos, val, body FROM mv`
		} else {
			viewDDL = fmt.Sprintf(`CREATE MATERIALIZED VIEW mv AS
			  SELECT pos, %s(val) OVER (ORDER BY pos %s) AS val FROM seq`, agg, frame)
			q = fmt.Sprintf(`SELECT pos, %s(val) OVER (ORDER BY pos %s) AS w FROM seq`, queryAgg, qframe)
			backingQ = `SELECT pos, val FROM mv`
		}
		ctx := fmt.Sprintf("trial %d: cfg=%s part=%v agg=%s query=%s cum=%v x̃=(%d,%d) ỹ=(%d,%d) chaos=%v",
			trial, cfg.name, partitioned, agg, queryAgg, cumulative, lx, hx, ly, hy, chaosTrial)

		model := &oracleModel{partitioned: partitioned, vals: map[string][]int{}}
		seedVals := func(key string, n int) {
			model.keys = append(model.keys, key)
			for i := 0; i < n; i++ {
				model.vals[key] = append(model.vals[key], rng.Intn(100)-50)
			}
		}
		if partitioned {
			for g, groups := 0, 1+rng.Intn(3); g < groups; g++ {
				seedVals(fmt.Sprintf("g%d", g), 2+rng.Intn(10))
			}
		} else {
			seedVals("", 6+rng.Intn(25))
		}

		opts := DefaultOptions()
		cfg.apply(&opts)
		e := New(opts)
		if partitioned {
			mustExec(t, e, `CREATE TABLE pt (grp VARCHAR(8), pos INTEGER, val INTEGER)`)
			mustExec(t, e, `CREATE UNIQUE INDEX pt_pk ON pt (grp, pos)`)
		} else {
			mustExec(t, e, `CREATE TABLE seq (pos INTEGER, val INTEGER)`)
			mustExec(t, e, `CREATE UNIQUE INDEX seq_pk ON seq (pos)`)
		}
		mustExec(t, e, model.loadSQL())
		mustExec(t, e, viewDDL)

		// answers compares a window query's result with the model evaluated
		// over m.
		answers := func(m *oracleModel, res *Result, when string) {
			t.Helper()
			if got, want := m.gotRows(res), m.wantQuery(t, queryWin, oracleAggs[queryAgg]); !slices.Equal(got, want) {
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
						"served AVG from SUM":                        queryAgg != agg,
						"served partitioned AVG from SUM":            queryAgg != agg && partitioned,
						"served AVG from cumulative SUM":             queryAgg != agg && cumulative,
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
		// chunk's writes so far (afters; nil while a chaos step's gap is open,
		// when only success is asserted).
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
				if afters != nil {
					answers(afters[i], res, "inside the transaction after "+sql)
				}
			}
		}

		// apply runs one step's statements: directly, or as one transaction
		// — sometimes preceded by a dry run that is rolled back.
		apply := func(prev *oracleModel, stmts []string, afters []*oracleModel) {
			t.Helper()
			if !useTxns {
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
				for ; chunk > 0 && i < steps; chunk, i = chunk-1, i+1 {
					stmts = append(stmts, model.step(rng))
					afters = append(afters, model.clone())
				}
				apply(prev, stmts, afters)
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
			broken, repair := model.chaos(rng)
			for _, sql := range []string{broken, repair} {
				apply(nil, []string{sql}, nil)
				if !e.Views.Stale("mv") {
					t.Fatalf("%s: view is not stale after %s", ctx, sql)
				}
				if _, err := e.Exec(backingQ); rferrors.CodeOf(err) != rferrors.CodeStaleView {
					t.Fatalf("%s: reading the stale view after %s: got %v, want a stale_view error", ctx, sql, err)
				}
				res := cfg.query(t, e, q, len(model.vals[""]))
				if res.Derivation != nil {
					t.Fatalf("%s: after %s the window query derived from the stale view", ctx, sql)
				}
				if sql != repair {
					continue
				}
				answers(model, res, "base-table window query while stale")
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
		"served partitioned MIN/MAX", "served negative-Δ MinOA", "served MinOA residue corner",
		"served sliding from cumulative", "served partitioned sliding from cumulative",
		"served one-row from sliding", "served one-row from cumulative",
		"served AVG from SUM", "served partitioned AVG from SUM", "served AVG from cumulative SUM"} {
		if drawn[corner] == 0 && !testing.Short() {
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
