package engine

import (
	"testing"

	rferrors "rfview/errors"
)

// A materialized view's tables are not the user's to change: dropping the
// base or backing table under a view orphans it, and writing to the view's
// rows diverges it from its definition without going stale.

const guardQuery = `SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq`

func guardFixture(t *testing.T) *Engine {
	t.Helper()
	e := New(DefaultOptions())
	t.Cleanup(func() { e.Close() })
	mustExec(t, e, `CREATE TABLE seq (pos INTEGER, val INTEGER)`)
	mustExec(t, e, `INSERT INTO seq VALUES (1, 10), (2, 20), (3, 3)`)
	mustExec(t, e, `CREATE MATERIALIZED VIEW mv AS `+guardQuery)
	return e
}

// guardIntact checks the view still answers its query, from the view, with
// the values of its definition.
func guardIntact(t *testing.T, e *Engine, ctx string) {
	t.Helper()
	res := mustExec(t, e, guardQuery)
	if res.Derivation == nil {
		t.Fatalf("%s: query no longer answered from the view", ctx)
	}
	want := map[int64]int64{1: 30, 2: 33, 3: 23}
	if len(res.Rows) != len(want) {
		t.Fatalf("%s: %d rows, want %d", ctx, len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		if r[1].Int() != want[r[0].Int()] {
			t.Fatalf("%s: pos %d = %v, want %d", ctx, r[0].Int(), r[1], want[r[0].Int()])
		}
	}
}

func TestDropTableUnderViewRefused(t *testing.T) {
	e := guardFixture(t)
	for _, sql := range []string{`DROP TABLE seq`, `DROP TABLE __mv_mv`} {
		_, err := e.Exec(sql)
		if rferrors.CodeOf(err) != rferrors.CodeUnsupported {
			t.Fatalf("%s: got %v, want an unsupported error naming the dependent view", sql, err)
		}
		guardIntact(t, e, sql)
	}
	mustExec(t, e, `REFRESH MATERIALIZED VIEW mv`)
	// Dropping the view first releases both tables.
	mustExec(t, e, `DROP MATERIALIZED VIEW mv`)
	if _, err := e.Exec(`DROP TABLE __mv_mv`); rferrors.CodeOf(err) != rferrors.CodeUnknownTable {
		t.Fatalf("backing table outlived its view: %v", err)
	}
	mustExec(t, e, `DROP TABLE seq`)
	if _, err := e.Exec(guardQuery); rferrors.CodeOf(err) != rferrors.CodeUnknownTable {
		t.Fatalf("query over the dropped table: got %v, want unknown_table", err)
	}
}

func TestUserWritesToViewRefused(t *testing.T) {
	e := guardFixture(t)
	for _, sql := range []string{
		`UPDATE mv SET val = 0 WHERE pos = 2`,
		`INSERT INTO mv VALUES (99, 1)`,
		`DELETE FROM mv WHERE pos = 1`,
		`UPDATE __mv_mv SET val = 0 WHERE pos = 2`,
		`INSERT INTO __mv_mv VALUES (99, 1)`,
		`DELETE FROM __mv_mv WHERE pos = 1`,
		`CREATE INDEX mv_val ON mv (val)`,
		`CREATE INDEX mv_val ON __mv_mv (val)`,
		`DROP INDEX pk_mv ON __mv_mv`,
	} {
		_, err := e.Exec(sql)
		if rferrors.CodeOf(err) != rferrors.CodeUnsupported {
			t.Fatalf("%s: got %v, want an unsupported error", sql, err)
		}
		if e.Views.Stale("mv") {
			t.Fatalf("%s: refused statement staled the view", sql)
		}
		guardIntact(t, e, sql)
	}
	// A refused write inside a transaction leaves the transaction usable.
	sess := e.NewSession()
	defer sess.Close()
	mustSess(t, sess, `BEGIN`)
	if _, err := sess.Exec(`DELETE FROM mv WHERE pos = 1`); rferrors.CodeOf(err) != rferrors.CodeUnsupported {
		t.Fatalf("in-transaction write to the view: got %v", err)
	}
	mustSess(t, sess, `ROLLBACK`)
	// The manager's own writes still go through: base DML maintains the view.
	mustExec(t, e, `UPDATE seq SET val = 30 WHERE pos = 3`)
	res := mustExec(t, e, guardQuery)
	for _, r := range res.Rows {
		if want := map[int64]int64{1: 30, 2: 60, 3: 50}[r[0].Int()]; res.Derivation == nil || r[1].Int() != want {
			t.Fatalf("maintenance after refused writes: pos %d = %v, want %d (derived: %v)", r[0].Int(), r[1], want, res.Derivation != nil)
		}
	}
}
