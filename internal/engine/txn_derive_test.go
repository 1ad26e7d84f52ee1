package engine

import (
	"slices"
	"strings"
	"testing"

	rferrors "rfview/errors"
	"rfview/internal/sqltypes"
)

// A sequence view is fresh over a range of commit epochs — from the CREATE,
// REFRESH or restore that made its rows visible to the commit that broke the
// §2.3 rules — and a statement answers from it exactly when its snapshot lies
// inside the range and its own transaction has not written the base table.

const (
	snapView  = `CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM seq`
	snapQuery = `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq`
	snapRows  = `SELECT pos, val FROM mv`
)

func sameRows(a, b []sqltypes.Row) bool {
	return slices.EqualFunc(a, b, func(x, y sqltypes.Row) bool { return slices.EqualFunc(x, y, sqltypes.Equal) })
}

// TestTxnDerivesAtItsSnapshot: a transaction begun before a density-breaking
// commit still derives — and reads the view by name — at its snapshot, while
// every later snapshot declines the view until a REFRESH succeeds; and a
// transaction older than that REFRESH declines the rebuilt rows.
func TestTxnDerivesAtItsSnapshot(t *testing.T) {
	e := newEngine(t)
	defer e.Close()
	loadSeq(t, e, 10, func(i int) int64 { return int64(i * i) })
	mustExec(t, e, `CREATE TABLE other (x INTEGER)`)
	mustExec(t, e, snapView)
	derived, rows := mustExec(t, e, snapQuery), mustExec(t, e, snapRows)
	if derived.Derivation == nil {
		t.Fatal("the auto-commit query does not derive from the fresh view")
	}

	old := e.NewSession()
	defer old.Close()
	mustSess(t, old, "BEGIN")
	mustExec(t, e, `DELETE FROM seq WHERE pos = 5`) // breaks density: stale from this commit on
	if !e.Views.Stale("mv") {
		t.Fatal("a middle delete left the view fresh")
	}

	res := mustSess(t, old, snapQuery)
	if res.Derivation == nil || !sameRows(res.Rows, derived.Rows) {
		t.Fatalf("the transaction begun before the break: derived=%v rows=%v, want the derivation's %v",
			res.Derivation != nil, res.Rows, derived.Rows)
	}
	if res := mustSess(t, old, snapRows); !sameRows(res.Rows, rows.Rows) {
		t.Fatalf("the transaction begun before the break reads %v from mv, want the pre-break rows %v", res.Rows, rows.Rows)
	}
	mustSess(t, old, "COMMIT")

	// declined checks every reader of a later snapshot: an auto-commit read,
	// EXPLAIN, and a transaction begun now.
	declined := func(when, why string) {
		t.Helper()
		if res := mustExec(t, e, snapQuery); res.Derivation != nil || len(res.Rows) != 9 {
			t.Fatalf("%s: auto-commit query derived=%v with %d rows, want 9 native rows", when, res.Derivation != nil, len(res.Rows))
		}
		if plan := mustExec(t, e, "EXPLAIN "+snapQuery).Plan; !strings.Contains(plan, "-- view mv skipped: "+why) {
			t.Fatalf("%s: EXPLAIN does not say the view was skipped (%s):\n%s", when, why, plan)
		}
		if _, err := e.Exec(snapRows); rferrors.CodeOf(err) != rferrors.CodeStaleView {
			t.Fatalf("%s: reading mv: %v, want stale_view", when, err)
		}
		s := e.NewSession()
		defer s.Close()
		mustSess(t, s, "BEGIN")
		if res := mustSess(t, s, snapQuery); res.Derivation != nil {
			t.Fatalf("%s: a transaction begun after the break derived", when)
		}
		if _, err := s.Exec(snapRows); rferrors.CodeOf(err) != rferrors.CodeStaleView {
			t.Fatalf("%s: a transaction reading mv: %v, want stale_view", when, err)
		}
		mustSess(t, s, "ROLLBACK")
	}
	declined("after the break", "stale (")

	// A REFRESH over the non-dense base fails and leaves the view stale at
	// every later epoch.
	if _, err := e.Exec(`REFRESH MATERIALIZED VIEW mv`); err == nil {
		t.Fatal("REFRESH over a non-dense base succeeded")
	}
	for i := 0; i < 3; i++ {
		mustExec(t, e, `INSERT INTO other VALUES (1)`) // a later epoch
		declined("after a failed REFRESH", "stale (")
	}

	// Repaired and refreshed, the view answers from the REFRESH's epoch on —
	// but not a transaction whose snapshot predates it.
	older := e.NewSession()
	defer older.Close()
	mustSess(t, older, "BEGIN")
	mustExec(t, e, `INSERT INTO seq VALUES (5, 25)`)
	mustExec(t, e, `REFRESH MATERIALIZED VIEW mv`)
	if res := mustExec(t, e, snapQuery); res.Derivation == nil || !sameRows(res.Rows, derived.Rows) {
		t.Fatalf("after REFRESH: derived=%v rows=%v, want %v", res.Derivation != nil, res.Rows, derived.Rows)
	}
	if res := mustSess(t, older, snapQuery); res.Derivation != nil || len(res.Rows) != 9 {
		t.Fatalf("a transaction older than the REFRESH derived=%v with %d rows, want 9 native rows", res.Derivation != nil, len(res.Rows))
	}
	if _, err := older.Exec(snapRows); rferrors.CodeOf(err) != rferrors.CodeStaleView || !strings.Contains(err.Error(), "newer than the snapshot") {
		t.Fatalf("a transaction older than the REFRESH reading mv: %v, want stale_view (newer than the snapshot)", err)
	}
	mustSess(t, older, "COMMIT")
}

// TestTxnOwnWritesDeclineTheView: once a transaction writes a view's base
// table, its statements answer natively with their own writes — the view
// folds them in only at COMMIT — and EXPLAIN shows the plan the statement
// runs, not an auto-commit plan the cache holds.
func TestTxnOwnWritesDeclineTheView(t *testing.T) {
	e := newEngine(t)
	defer e.Close()
	loadSeq(t, e, 10, func(i int) int64 { return int64(i) })
	mustExec(t, e, snapView)
	if res := mustExec(t, e, snapQuery); res.Derivation == nil {
		t.Fatal("the auto-commit query does not derive")
	}
	if plan := mustExec(t, e, "EXPLAIN "+snapQuery).Plan; !strings.Contains(plan, "Derive view=mv") || !strings.Contains(plan, "-- plan cache: hit") {
		t.Fatalf("the auto-commit plan is not a cached Derive:\n%s", plan)
	}

	s := e.NewSession()
	defer s.Close()
	mustSess(t, s, "BEGIN")
	if plan := mustSess(t, s, "EXPLAIN "+snapQuery).Plan; !strings.Contains(plan, "Derive view=mv") || strings.Contains(plan, "plan cache") {
		t.Fatalf("before its first write the transaction does not plan its own Derive:\n%s", plan)
	}
	mustSess(t, s, `UPDATE seq SET val = 100 WHERE pos = 3`)
	plan := mustSess(t, s, "EXPLAIN "+snapQuery).Plan
	if strings.Contains(plan, "Derive") || !strings.Contains(plan, "-- view mv skipped: behind this transaction's writes to seq") {
		t.Fatalf("after its write the transaction's EXPLAIN is not the native plan:\n%s", plan)
	}
	res := mustSess(t, s, snapQuery)
	if res.Derivation != nil {
		t.Fatal("after its write the transaction derived from the view")
	}
	if got := rowsToPairs(t, res.Rows)[3]; got != 1+2+100+4 {
		t.Fatalf("pos 3 = %v inside the transaction, want %d with its own write", got, 1+2+100+4)
	}
	if _, err := s.Exec(snapRows); rferrors.CodeOf(err) != rferrors.CodeStaleView {
		t.Fatalf("reading mv after writing seq in the transaction: %v, want stale_view", err)
	}
	mustSess(t, s, "COMMIT")
	if res := mustExec(t, e, snapQuery); res.Derivation == nil || rowsToPairs(t, res.Rows)[3] != 1+2+100+4 {
		t.Fatalf("after COMMIT: derived=%v rows=%v", res.Derivation != nil, res.Rows)
	}
}
