package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rfview/internal/paper"
)

// loadPartitionedSeq creates pseq(grp, pos, val) with per-partition dense
// positions 1…n_g — the §6.2 layout (e.g. day-of-month within each month).
func loadPartitionedSeq(t *testing.T, e *Engine, groups []string, perGroup int, seed int64) {
	t.Helper()
	mustExec(t, e, `CREATE TABLE pseq (grp VARCHAR(10), pos INTEGER, val INTEGER)`)
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("INSERT INTO pseq VALUES ")
	first := true
	for _, g := range groups {
		for i := 1; i <= perGroup; i++ {
			if !first {
				b.WriteString(", ")
			}
			first = false
			fmt.Fprintf(&b, "('%s', %d, %d)", g, i, rng.Intn(100)-50)
		}
	}
	mustExec(t, e, b.String())
}

const partViewDDL = `CREATE MATERIALIZED VIEW pmv AS
  SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos
    ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM pseq`

// partPairs keys derived results by (grp, pos).
func partPairs(t *testing.T, res *Result) map[string]float64 {
	t.Helper()
	out := make(map[string]float64, len(res.Rows))
	for _, r := range res.Rows {
		out[r[0].Str()+"#"+r[1].String()] = r[2].Float()
	}
	return out
}

func checkPartitionedAgainstNative(t *testing.T, e *Engine, q, ctx string) {
	t.Helper()
	checkDerivedAgainstNative(t, e, mustExec(t, e, q), q, ctx)
}

// checkDerivedAgainstNative compares derived — q as answered from a view —
// with q evaluated natively on the same engine.
func checkDerivedAgainstNative(t *testing.T, e *Engine, derived *Result, q, ctx string) {
	t.Helper()
	if derived.Derivation == nil {
		t.Fatalf("%s: partitioned derivation did not fire", ctx)
	}
	opts := e.Opts
	noViews := opts
	noViews.UseMatViews = false
	e.Opts = noViews
	native := mustExec(t, e, q)
	e.Opts = opts
	gn, gd := partPairs(t, native), partPairs(t, derived)
	if len(gn) != len(gd) {
		t.Fatalf("%s: cardinality %d vs %d", ctx, len(gn), len(gd))
	}
	for k, v := range gn {
		if math.Abs(gd[k]-v) > 1e-9 {
			t.Fatalf("%s at %s: native %v derived %v", ctx, k, v, gd[k])
		}
	}
}

// TestPartitionedExactMatch — a partitioned view answers the identical
// query directly.
func TestPartitionedExactMatch(t *testing.T) {
	e := newEngine(t)
	loadPartitionedSeq(t, e, []string{"jan", "feb", "mar"}, 15, 1)
	mustExec(t, e, partViewDDL)
	checkPartitionedAgainstNative(t, e, `SELECT grp, pos, SUM(val) OVER (PARTITION BY grp
	  ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM pseq`, "exact")
}

// TestPartitionedDerivation — MaxOA/MinOA across a different window, per
// partition, in both forms.
func TestPartitionedDerivation(t *testing.T) {
	for _, form := range []paper.Form{paper.FormDisjunctive, paper.FormUnion} {
		e := newEngine(t)
		// Uneven partition sizes stress the per-partition header/trailer.
		mustExec(t, e, `CREATE TABLE pseq (grp VARCHAR(10), pos INTEGER, val INTEGER)`)
		rng := rand.New(rand.NewSource(9))
		var b strings.Builder
		b.WriteString("INSERT INTO pseq VALUES ")
		first := true
		for gi, g := range []string{"a", "b", "c"} {
			for i := 1; i <= 8+gi*5; i++ {
				if !first {
					b.WriteString(", ")
				}
				first = false
				fmt.Fprintf(&b, "('%s', %d, %d)", g, i, rng.Intn(60)-30)
			}
		}
		mustExec(t, e, b.String())
		mustExec(t, e, partViewDDL)
		for _, c := range []struct{ name, q string }{
			{"widened", `SELECT grp, pos, SUM(val) OVER (PARTITION BY grp
			  ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) AS w FROM pseq`},
			{"narrowed", `SELECT grp, pos, SUM(val) OVER (PARTITION BY grp
			  ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM pseq`},
		} {
			derived := execDerived(t, e, c.q, paper.StrategyAuto, form, 0)
			checkDerivedAgainstNative(t, e, derived, c.q, form.String()+" "+c.name)
		}
	}
}

// TestPartitionedMinMaxDerivation — §4.2 MIN/MAX per partition.
func TestPartitionedMinMaxDerivation(t *testing.T) {
	e := newEngine(t)
	loadPartitionedSeq(t, e, []string{"x", "y"}, 12, 3)
	mustExec(t, e, `CREATE MATERIALIZED VIEW pmm AS
	  SELECT grp, pos, MIN(val) OVER (PARTITION BY grp ORDER BY pos
	    ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM pseq`)
	checkPartitionedAgainstNative(t, e, `SELECT grp, pos, MIN(val) OVER (PARTITION BY grp
	  ORDER BY pos ROWS BETWEEN 4 PRECEDING AND 3 FOLLOWING) AS w FROM pseq`, "min")
}

// TestPartitionedMaintenance — per-partition incremental maintenance through
// SQL DML.
func TestPartitionedMaintenance(t *testing.T) {
	e := newEngine(t)
	loadPartitionedSeq(t, e, []string{"jan", "feb"}, 10, 5)
	mustExec(t, e, partViewDDL)
	q := `SELECT grp, pos, SUM(val) OVER (PARTITION BY grp
	  ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM pseq`

	// Value update inside one partition.
	mustExec(t, e, `UPDATE pseq SET val = 77 WHERE grp = 'jan' AND pos = 5`)
	if e.Views.Stale("pmv") {
		t.Fatal("value update must stay incremental")
	}
	checkPartitionedAgainstNative(t, e, q, "after update")

	// Append to one partition.
	mustExec(t, e, `INSERT INTO pseq VALUES ('feb', 11, 99)`)
	if e.Views.Stale("pmv") {
		t.Fatal("append must stay incremental")
	}
	checkPartitionedAgainstNative(t, e, q, "after append")

	// A brand-new partition starting at position 1.
	mustExec(t, e, `INSERT INTO pseq VALUES ('mar', 1, 5), ('mar', 2, 6)`)
	if e.Views.Stale("pmv") {
		t.Fatal("new partition must stay incremental")
	}
	checkPartitionedAgainstNative(t, e, q, "after new partition")

	// Suffix delete within a partition.
	mustExec(t, e, `DELETE FROM pseq WHERE grp = 'feb' AND pos = 11`)
	if e.Views.Stale("pmv") {
		t.Fatal("suffix delete must stay incremental")
	}
	checkPartitionedAgainstNative(t, e, q, "after suffix delete")

	if e.Views.Stats().MaintenanceEvents.Load() == 0 {
		t.Fatal("expected incremental maintenance events")
	}

	// Middle delete breaks per-partition density → stale.
	mustExec(t, e, `DELETE FROM pseq WHERE grp = 'jan' AND pos = 4`)
	if !e.Views.Stale("pmv") {
		t.Fatal("middle delete must mark the view stale")
	}
	// Restore density and refresh.
	mustExec(t, e, `UPDATE pseq SET pos = 4 WHERE grp = 'jan' AND pos = 10`)
	mustExec(t, e, `REFRESH MATERIALIZED VIEW pmv`)
	if e.Views.Stale("pmv") {
		t.Fatal("refresh must clear staleness")
	}
	checkPartitionedAgainstNative(t, e, q, "after refresh")
}

// TestPartitionedViewRequiresPerPartitionDensity — creation fails on gaps.
func TestPartitionedViewDensityValidation(t *testing.T) {
	e := newEngine(t)
	mustExecAll(t, e, `
	  CREATE TABLE pseq (grp VARCHAR(10), pos INTEGER, val INTEGER);
	  INSERT INTO pseq VALUES ('a', 1, 1), ('a', 3, 3);
	`)
	_, err := e.Exec(partViewDDL)
	if err == nil || !strings.Contains(err.Error(), "dense") {
		t.Fatalf("per-partition gap must be rejected: %v", err)
	}
}

// TestPartitionedCumulativeDerivation — a cumulative partitioned view answers
// the identical query and, by §3.1 per partition, any sliding window: the
// Derive operator reads each partition's n off its own rows.
func TestPartitionedCumulativeDerivation(t *testing.T) {
	e := newEngine(t)
	loadPartitionedSeq(t, e, []string{"a", "b", "c"}, 8, 11)
	mustExec(t, e, `INSERT INTO pseq VALUES ('c', 9, 4), ('c', 10, -7)`) // uneven partitions
	mustExec(t, e, `CREATE MATERIALIZED VIEW pcum AS
	  SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos
	    ROWS UNBOUNDED PRECEDING) AS val FROM pseq`)
	for _, frame := range []string{"ROWS UNBOUNDED PRECEDING", "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING",
		"ROWS BETWEEN 3 PRECEDING AND 5 FOLLOWING", "ROWS BETWEEN CURRENT ROW AND CURRENT ROW"} {
		q := `SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ` + frame + `) AS w FROM pseq`
		res := mustExec(t, e, q)
		checkDerivedAgainstNative(t, e, res, q, frame)
		if want := "pcum cumulative BY "; !strings.Contains(res.Rewritten(), want) {
			t.Fatalf("%s: rewritten %q, want a derivation from pcum", frame, res.Rewritten())
		}
	}
}
