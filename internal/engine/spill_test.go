package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rfview/internal/core"
	"rfview/internal/paper"
	"rfview/internal/sqltypes"
)

// newSpillEngine builds an engine with a budget small enough that any
// multi-hundred-row sort spills, and closes it (removing its private spill
// directory) when the test ends.
func newSpillEngine(t *testing.T, opts Options, budget int64) *Engine {
	t.Helper()
	opts.MemoryBudgetBytes = budget
	e := New(opts)
	t.Cleanup(func() { e.Close() })
	return e
}

// TestDifferentialSpillForced is the out-of-core differential oracle: the
// same randomized partitioned harness as TestDifferentialRandomPartitionedParallel,
// but every engine under test runs with a tiny memory budget so its Sorts
// go external — ORDER BY and the shared class sort that orders a window's
// input; a Window orders each partition in memory and never spills —
// across all five strategies (native sequential, native parallel,
// self-join, MaxOA, MinOA — the derived ones sequential and parallel). The
// reference engine runs with the budget explicitly disabled, so in-memory
// and spilled evaluation are compared against each other.
func TestDifferentialSpillForced(t *testing.T) {
	const budget = 2 << 10
	rng := rand.New(rand.NewSource(20020301))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	var spilledRuns int64
	budgeted := func(opts Options) *Engine { return newSpillEngine(t, opts, budget) }
	countRuns := func(e *Engine) { spilledRuns += e.SpillStats().Runs.Load() }
	for trial := 0; trial < trials; trial++ {
		groups := 1 + rng.Intn(3)
		lx, hx := rng.Intn(3), rng.Intn(3)
		if lx+hx == 0 {
			lx = 1
		}
		ly, hy := rng.Intn(5), rng.Intn(5)
		if ly+hy == 0 {
			hy = 2
		}
		agg := []string{"SUM", "SUM", "COUNT", "MIN", "MAX"}[rng.Intn(5)]
		if agg == "MIN" || agg == "MAX" {
			// MIN/MAX derivation needs a covering extension.
			dl, dh := rng.Intn(lx+hx+1), rng.Intn(lx+hx+1)
			if dl+dh > lx+hx+1 {
				dh = 0
			}
			ly, hy = lx+dl, hx+dh
			if ly+hy == 0 {
				hy = 1
			}
		}
		seed := rng.Int63()
		sizes := make([]int, groups)
		for g := range sizes {
			// Big enough that partitions exceed the sorter's min-run floor and
			// actually flush runs under the tiny budget.
			sizes[g] = 60 + rng.Intn(120)
		}
		q := fmt.Sprintf(`SELECT grp, pos, %s(val) OVER (PARTITION BY grp ORDER BY pos
		  ROWS BETWEEN %d PRECEDING AND %d FOLLOWING) AS w FROM pt`, agg, ly, hy)
		viewDDL := fmt.Sprintf(`CREATE MATERIALIZED VIEW pv AS
		  SELECT grp, pos, %s(val) OVER (PARTITION BY grp ORDER BY pos
		    ROWS BETWEEN %d PRECEDING AND %d FOLLOWING) AS val FROM pt`, agg, lx, hx)
		ctx := fmt.Sprintf("trial %d: groups=%v agg=%s x̃=(%d,%d) ỹ=(%d,%d)",
			trial, sizes, agg, lx, hx, ly, hy)

		load := func(e *Engine) {
			t.Helper()
			local := rand.New(rand.NewSource(seed))
			mustExec(t, e, `CREATE TABLE pt (grp VARCHAR(8), pos INTEGER, val INTEGER)`)
			var b strings.Builder
			b.WriteString("INSERT INTO pt VALUES ")
			first := true
			for g, n := range sizes {
				for i := 1; i <= n; i++ {
					if !first {
						b.WriteString(", ")
					}
					first = false
					fmt.Fprintf(&b, "('g%d', %d, %d)", g, i, local.Intn(100)-50)
				}
			}
			mustExec(t, e, b.String())
		}

		// Reference: native sequential with the budget disabled (-1 overrides
		// the RFVIEW_TEST_MEM_BUDGET knob too), so the comparison really is
		// in-memory vs out-of-core.
		refOpts := DefaultOptions()
		refOpts.UseMatViews = false
		refOpts.WindowParallelism = 1
		refEng := newSpillEngine(t, refOpts, -1)
		load(refEng)
		ref := partPairs(t, mustExec(t, refEng, q))

		compare := func(rows map[string]float64, label string) {
			t.Helper()
			if len(rows) != len(ref) {
				t.Fatalf("%s / %s: cardinality %d vs %d", ctx, label, len(rows), len(ref))
			}
			for k, v := range ref {
				got, ok := rows[k]
				if !ok {
					t.Fatalf("%s / %s: key %s missing", ctx, label, k)
				}
				if math.Abs(got-v) > 1e-9 {
					t.Fatalf("%s / %s: %s = %v, want %v", ctx, label, k, got, v)
				}
			}
		}

		// Native, sequential and partition-parallel, both under the budget.
		for _, par := range []int{1, 4} {
			opts := refOpts
			opts.WindowParallelism = par
			e := budgeted(opts)
			load(e)
			compare(partPairs(t, mustExec(t, e, q)), fmt.Sprintf("native/parallel=%d", par))
			countRuns(e)
		}

		// Fig. 2 self-join simulation under the budget.
		sim := budgeted(refOpts)
		load(sim)
		compare(partPairs(t, execSelfJoin(t, sim, q)), "self-join")
		countRuns(sim)

		// MaxOA / MinOA derivation under the budget, sequential and parallel;
		// the view materialization itself also runs spilled.
		for _, par := range []int{1, 4} {
			opts := DefaultOptions()
			opts.WindowParallelism = par
			e := budgeted(opts)
			load(e)
			mustExec(t, e, viewDDL)
			for _, strat := range []paper.Strategy{paper.StrategyMaxOA, paper.StrategyMinOA} {
				form := []paper.Form{paper.FormDisjunctive, paper.FormUnion}[trial%2]
				dres := execDerived(t, e, q, strat, form, 0)
				if dres.Derivation == nil {
					continue // strategy inapplicable: native fallback already checked
				}
				compare(partPairs(t, dres), fmt.Sprintf("derive/%v/parallel=%d", strat, par))
			}
			countRuns(e)
		}
	}
	if spilledRuns == 0 {
		t.Fatal("no engine spilled a single run — the budget is not forcing the external path")
	}
}

// TestSpillExplainAnalyzeAndMetrics is the acceptance check for the
// observability surface: on a dataset several times the budget, a Window
// orders its one large partition in memory — no spilled= on its line, no run
// written — while a Sort reports spilled=true in EXPLAIN ANALYZE, and the
// engine's metrics exposition carries nonzero rfview_spill_runs_total and
// rfview_spill_bytes_total. No budget stays charged and no run file outlives
// Close.
func TestSpillExplainAnalyzeAndMetrics(t *testing.T) {
	const budget = 4 << 10 // rows below total ~10× this
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.SpillDir = dir
	e := newSpillEngine(t, opts, budget)
	loadSeq(t, e, 2000, func(i int) int64 { return int64((i * 7919) % 1000) })

	// Window over one 2000-row partition: ordered in memory, overdrafting.
	res, err := e.ExecContext(context.Background(), `EXPLAIN ANALYZE SELECT pos,
	  SUM(val) OVER (ORDER BY pos ROWS BETWEEN 5 PRECEDING AND 5 FOLLOWING) AS w FROM seq`)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(res.Plan, "\n") {
		if strings.Contains(line, "Window") && strings.Contains(line, "spilled=") {
			t.Fatalf("window spilled:\n%s", res.Plan)
		}
	}
	if runs := e.SpillStats().Runs.Load(); runs != 0 {
		t.Fatalf("the window query wrote %d spill runs", runs)
	}
	if used := e.SpillBudget().Used() - e.StorageStats().BytesResident; used != 0 {
		t.Fatalf("%d budget bytes still charged after the window query", used)
	}

	// Top-level ORDER BY: the Sort operator itself goes external.
	res, err = e.ExecContext(context.Background(),
		`EXPLAIN ANALYZE SELECT pos, val FROM seq ORDER BY val, pos`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "Sort") || !strings.Contains(res.Plan, "spilled=true") {
		t.Fatalf("sort plan missing spill annotation:\n%s", res.Plan)
	}

	if runs := e.SpillStats().Runs.Load(); runs == 0 {
		t.Fatal("SpillStats reports zero runs after spilled queries")
	}
	if used := e.SpillBudget().Used() - e.StorageStats().BytesResident; used != 0 {
		t.Fatalf("%d budget bytes still charged after queries finished", used)
	}

	text := e.Metrics().Expose()
	for _, metric := range []string{"rfview_spill_runs_total", "rfview_spill_bytes_total", "rfview_spill_operators_total"} {
		v := metricValue(t, text, metric)
		if v <= 0 {
			t.Fatalf("%s = %v, want > 0\n%s", metric, v, text)
		}
	}
	if v := metricValue(t, text, "rfview_spill_budget_limit_bytes"); v != budget {
		t.Fatalf("rfview_spill_budget_limit_bytes = %v, want %d", v, budget)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "run-") {
			t.Fatalf("run file %s survived Close", ent.Name())
		}
	}
}

// metricValue extracts one gauge/counter sample from the text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not exposed", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: bad value %q", name, m[1])
	}
	return v
}

// TestEngineSpillDirHygiene pins the temp-file lifecycle on a configured
// SpillDir: stale run files from a dead process are swept at startup,
// unrelated files survive both the sweep and Close, and a closed engine
// leaves no run files behind.
func TestEngineSpillDirHygiene(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"run-1-1.spill", "run-9999-3.spill"} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("stale"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	keep := filepath.Join(dir, "not-a-run.dat")
	if err := os.WriteFile(keep, []byte("keep"), 0o600); err != nil {
		t.Fatal(err)
	}

	opts := DefaultOptions()
	opts.SpillDir = dir
	e := newSpillEngine(t, opts, 2<<10)
	swept, err := e.SweepSpill()
	if err != nil {
		t.Fatal(err)
	}
	if swept != 2 {
		t.Fatalf("swept %d stale files, want 2", swept)
	}

	loadSeq(t, e, 1500, func(i int) int64 { return int64(i % 97) })
	mustExec(t, e, `SELECT pos, val FROM seq ORDER BY val, pos`)
	if e.SpillStats().Runs.Load() == 0 {
		t.Fatal("query did not spill into the configured dir")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "run-") && strings.HasSuffix(ent.Name(), ".spill") {
			t.Fatalf("run file %s survived Close", ent.Name())
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("unrelated file removed: %v", err)
	}
}

// TestViewFillSpills: a sequence view's CREATE and REFRESH fill through the
// executor's sort, which goes external under the memory budget whether the
// base has a unique index on its (partition,) position or none. A simple and
// a partitioned SUM (2,2) view and a cumulative MAX view, over bases more
// than ten times the budget, store what core.ComputeNaive computes, bit for
// bit, and no run file outlives the statement's commit or the engine.
func TestViewFillSpills(t *testing.T) {
	const budget, groups, per = 16 << 10, 4, 2500 // 10k rows: sb's two INTEGER columns alone are 160 KiB
	for _, indexed := range []bool{false, true} {
		t.Run(fmt.Sprintf("indexed=%v", indexed), func(t *testing.T) {
			dir := t.TempDir()
			opts := DefaultOptions()
			opts.SpillDir = dir
			e := newSpillEngine(t, opts, budget)
			runFiles := func(when string) {
				t.Helper()
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, ent := range ents {
					if strings.HasPrefix(ent.Name(), "run-") {
						t.Fatalf("%s: run file %s remains", when, ent.Name())
					}
				}
			}
			rng := rand.New(rand.NewSource(7))
			simple, parts, maxes := make([]int64, groups*per), make([][]int64, groups), make([][]float64, groups)
			mustExec(t, e, `CREATE TABLE sb (pos INTEGER, val INTEGER)`)
			mustExec(t, e, `CREATE TABLE pb (grp INTEGER, pos INTEGER, val INTEGER, f FLOAT)`)
			if indexed {
				mustExec(t, e, `CREATE UNIQUE INDEX sb_pos ON sb (pos)`)
				mustExec(t, e, `CREATE UNIQUE INDEX pb_key ON pb (grp, pos)`)
			}
			// Rows arrive out of position order, so the fill's sort has work.
			order := rng.Perm(groups * per)
			bulkInsert(t, e, "sb", len(order), func(i int) string {
				p := order[i]
				simple[p] = int64(1<<53) - int64(rng.Intn(1000)) // near 2⁵³: exact only in int64
				return fmt.Sprintf("(%d, %d)", p+1, simple[p])
			})
			for g := range parts {
				parts[g], maxes[g] = make([]int64, per), make([]float64, per)
			}
			bulkInsert(t, e, "pb", len(order), func(i int) string {
				g, p := order[i]%groups, order[i]/groups
				parts[g][p], maxes[g][p] = int64(rng.Intn(2001)-1000), float64(rng.Intn(2001)-1000)/8
				return fmt.Sprintf("(%d, %d, %d, %v)", g, p+1, parts[g][p], maxes[g][p])
			})
			views := []struct{ name, ddl string }{
				{"vs", `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM sb`},
				{"vp", `SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM pb`},
				{"vm", `SELECT grp, pos, MAX(f) OVER (PARTITION BY grp ORDER BY pos ROWS UNBOUNDED PRECEDING) AS val FROM pb`},
			}
			check := func(name string) {
				t.Helper()
				mv, ok := e.Cat.MatView(name)
				if !ok {
					t.Fatalf("view %s missing", name)
				}
				want := map[[2]int64]uint64{}
				switch name {
				case "vs":
					s, _ := core.ComputeNaive(simple, core.Sliding(2, 2), core.Sum)
					storedBits(want, 0, s)
				case "vp":
					for g, raw := range parts {
						s, _ := core.ComputeNaive(raw, core.Sliding(2, 2), core.Sum)
						storedBits(want, int64(g), s)
					}
				default:
					for g, raw := range maxes {
						s, _ := core.ComputeNaive(raw, core.Cumul(), core.Max)
						storedBits(want, int64(g), s)
					}
				}
				got := 0
				it := mv.Table.Heap.IterAt(mv.Table.Heap.Latest())
				_, row, err := it.Next()
				for ; row != nil; _, row, err = it.Next() {
					g, pos, val := int64(0), row[0], row[1]
					if len(row) == 4 {
						g, pos, val = row[0].Int(), row[1], row[2]
					}
					bits := uint64(val.Int())
					if val.Typ() == sqltypes.Float {
						bits = math.Float64bits(val.Float())
					}
					if w, ok := want[[2]int64{g, pos.Int()}]; !ok || w != bits {
						t.Fatalf("%s stores %v at (%d, %v); core.ComputeNaive has %v (stored: %v)", name, val, g, pos, w, ok)
					}
					got++
				}
				if it.Close(); err != nil {
					t.Fatal(err)
				}
				if got != len(want) {
					t.Fatalf("%s stores %d rows, core.ComputeNaive %d", name, got, len(want))
				}
			}
			for _, stmt := range []string{"CREATE", "REFRESH"} {
				for _, v := range views {
					sql := `REFRESH MATERIALIZED VIEW ` + v.name
					if stmt == "CREATE" {
						sql = `CREATE MATERIALIZED VIEW ` + v.name + ` AS ` + v.ddl
					}
					before := e.SpillStats().Runs.Load()
					mustExec(t, e, sql)
					if e.SpillStats().Runs.Load() == before {
						t.Fatalf("%s: the fill's sort did not spill", sql)
					}
					runFiles("after " + sql)
					check(v.name)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			runFiles("after Close")
		})
	}
}

// storedBits records the stored positions of s, partition g's sequence, in
// want: each value's bits.
func storedBits[T core.Num](want map[[2]int64]uint64, g int64, s *core.Sequence[T]) {
	for k := s.Lo(); k <= s.Hi(); k++ {
		if v, ok := s.AtOK(k); ok {
			bits := uint64(int64(v))
			if f, isFloat := any(v).(float64); isFloat {
				bits = math.Float64bits(f)
			}
			want[[2]int64{g, int64(k)}] = bits
		}
	}
}
