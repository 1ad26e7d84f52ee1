package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rfview/internal/paper"
)

// TestDifferentialRandomWindows is a randomized three-way differential
// harness: for random data, random materialized windows, and random query
// windows, the native Window operator, the Fig. 2 self-join simulation, and
// every applicable derivation strategy must produce identical results.
func TestDifferentialRandomWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(20020226)) // the conference date
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		n := 10 + rng.Intn(70)
		lx, hx := rng.Intn(4), rng.Intn(4)
		if lx+hx == 0 {
			lx = 1
		}
		ly, hy := rng.Intn(6), rng.Intn(6)
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
		q := fmt.Sprintf(`SELECT pos, %s(val) OVER (ORDER BY pos
		  ROWS BETWEEN %d PRECEDING AND %d FOLLOWING) AS w FROM seq`, agg, ly, hy)
		viewDDL := fmt.Sprintf(`CREATE MATERIALIZED VIEW mv AS
		  SELECT pos, %s(val) OVER (ORDER BY pos ROWS BETWEEN %d PRECEDING AND %d FOLLOWING) AS val FROM seq`,
			agg, lx, hx)
		ctx := fmt.Sprintf("trial %d: n=%d agg=%s x̃=(%d,%d) ỹ=(%d,%d)", trial, n, agg, lx, hx, ly, hy)

		load := func(e *Engine) {
			t.Helper()
			local := rand.New(rand.NewSource(seed))
			loadSeq(t, e, n, func(int) int64 { return int64(local.Intn(100) - 50) })
		}

		// Reference: native evaluation.
		nativeOpts := DefaultOptions()
		nativeOpts.UseMatViews = false
		native := New(nativeOpts)
		load(native)
		ref := rowsToPairs(t, mustExec(t, native, q).Rows)

		compare := func(rows map[int64]float64, label string) {
			t.Helper()
			if len(rows) != len(ref) {
				t.Fatalf("%s / %s: cardinality %d vs %d", ctx, label, len(rows), len(ref))
			}
			for k, v := range ref {
				if math.Abs(rows[k]-v) > 1e-9 {
					t.Fatalf("%s / %s: pos %d = %v, want %v", ctx, label, k, rows[k], v)
				}
			}
		}

		// Self-join simulation.
		compare(rowsToPairs(t, execSelfJoin(t, native, q).Rows), "self-join")

		// Derivation strategies, where a strategy applies.
		e := New(DefaultOptions())
		load(e)
		mustExec(t, e, viewDDL)
		for _, strat := range []paper.Strategy{paper.StrategyMaxOA, paper.StrategyMinOA, paper.StrategyAuto} {
			for _, form := range []paper.Form{paper.FormDisjunctive, paper.FormUnion} {
				dres := execDerived(t, e, q, strat, form, n)
				label := fmt.Sprintf("derive/%v/%v", strat, form)
				if dres.Derivation == nil {
					continue // strategy inapplicable for these windows: native fallback already checked
				}
				compare(rowsToPairs(t, dres.Rows), label)
			}
		}
	}
}

// TestDifferentialRandomPartitionedParallel is the randomized differential
// oracle for partition-parallel execution: ~200 random partitioned tables and
// window specs (seeded, reproducible), each evaluated by the four strategies
// of the paper — §2.2 pipelined (native Window), §2.2 Fig. 2 self-join
// simulation, §4 MaxOA derivation, §5 MinOA derivation — with the native and
// derived paths additionally run both sequentially (WindowParallelism=1) and
// through the worker pool (WindowParallelism=4). All answers must agree
// exactly. The parallel engines also materialize their views through the
// pool, covering the mview full-refresh path.
func TestDifferentialRandomPartitionedParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(20020301)) // day the ICDE 2002 program ended
	trials := 200
	if testing.Short() {
		trials = 30
	}
	derivationsFired := map[string]int{}
	for trial := 0; trial < trials; trial++ {
		groups := 1 + rng.Intn(4)
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
			sizes[g] = 3 + rng.Intn(16) // uneven partitions stress per-partition header/trailer
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

		// Reference: native evaluation, forced sequential.
		refOpts := DefaultOptions()
		refOpts.UseMatViews = false
		refOpts.WindowParallelism = 1
		refEng := New(refOpts)
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

		// Pipelined, partition-parallel.
		parOpts := refOpts
		parOpts.WindowParallelism = 4
		parEng := New(parOpts)
		load(parEng)
		compare(partPairs(t, mustExec(t, parEng, q)), "native/parallel")

		// Fig. 2 self-join simulation (no Window operator in the plan).
		compare(partPairs(t, execSelfJoin(t, refEng, q)), "self-join")

		// MaxOA / MinOA derivation, sequential and parallel; the parallel
		// engine also materializes pv through the worker pool.
		for _, par := range []int{1, 4} {
			opts := DefaultOptions()
			opts.WindowParallelism = par
			e := New(opts)
			load(e)
			mustExec(t, e, viewDDL)
			for _, strat := range []paper.Strategy{paper.StrategyMaxOA, paper.StrategyMinOA} {
				form := []paper.Form{paper.FormDisjunctive, paper.FormUnion}[trial%2]
				dres := execDerived(t, e, q, strat, form, 0)
				if dres.Derivation == nil {
					continue // strategy inapplicable for these windows: native fallback already checked
				}
				label := fmt.Sprintf("derive/%v/parallel=%d", strat, par)
				derivationsFired[fmt.Sprintf("%v", strat)]++
				compare(partPairs(t, dres), label)
			}
		}
	}
	for _, strat := range []paper.Strategy{paper.StrategyMaxOA, paper.StrategyMinOA} {
		if derivationsFired[fmt.Sprintf("%v", strat)] == 0 {
			t.Fatalf("%v never fired across %d trials — oracle is not exercising derivation", strat, trials)
		}
	}
}

// TestDifferentialCumulative mirrors the harness for cumulative views and
// queries.
func TestDifferentialCumulative(t *testing.T) {
	rng := rand.New(rand.NewSource(994707)) // the DOI suffix
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(60)
		ly, hy := rng.Intn(5), rng.Intn(5)
		if ly+hy == 0 {
			ly = 1
		}
		seed := rng.Int63()
		load := func(e *Engine) {
			local := rand.New(rand.NewSource(seed))
			loadSeq(t, e, n, func(int) int64 { return int64(local.Intn(60) - 30) })
		}
		q := fmt.Sprintf(`SELECT pos, SUM(val) OVER (ORDER BY pos
		  ROWS BETWEEN %d PRECEDING AND %d FOLLOWING) AS w FROM seq`, ly, hy)

		nativeOpts := DefaultOptions()
		nativeOpts.UseMatViews = false
		native := New(nativeOpts)
		load(native)
		ref := rowsToPairs(t, mustExec(t, native, q).Rows)

		derived := New(DefaultOptions())
		load(derived)
		mustExec(t, derived, `CREATE MATERIALIZED VIEW cumv AS
		  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS val FROM seq`)
		res := mustExec(t, derived, q)
		if res.Derivation == nil {
			t.Fatalf("trial %d: cumulative derivation did not fire", trial)
		}
		if !strings.Contains(res.Rewritten(), "cumv") {
			t.Fatalf("trial %d: rewrite does not reference the view: %s", trial, res.Rewritten())
		}
		got := rowsToPairs(t, res.Rows)
		for k, v := range ref {
			if math.Abs(got[k]-v) > 1e-9 {
				t.Fatalf("trial %d pos %d: %v want %v", trial, k, got[k], v)
			}
		}
	}
}
