package mview_test

import (
	"strings"
	"testing"

	"rfview/internal/engine"
)

// Dropping a materialized view must drop the pk_<view> index registration
// along with the backing table: a leaked registration would make a
// create → drop → recreate cycle of the same view name fail with a
// duplicate-index error (or worse, leave a stale index feeding the planner).
func TestDropMatViewRemovesBackingIndex(t *testing.T) {
	for _, tc := range []struct {
		name string
		ddl  string
	}{
		{"simple", `CREATE MATERIALIZED VIEW mv AS SELECT pos,
			SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq`},
		{"partitioned", `CREATE MATERIALIZED VIEW mv AS SELECT grp, pos,
			SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM pseq`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := engine.New(engine.DefaultOptions())
			mustExec(t, e, `CREATE TABLE seq (pos INTEGER, val INTEGER)`)
			mustExec(t, e, `INSERT INTO seq VALUES (1, 10), (2, 20), (3, 30)`)
			mustExec(t, e, `CREATE TABLE pseq (grp VARCHAR(8), pos INTEGER, val INTEGER)`)
			mustExec(t, e, `INSERT INTO pseq VALUES ('a', 1, 10), ('a', 2, 20), ('b', 1, 5)`)

			mustExec(t, e, tc.ddl)
			if _, ok := e.Cat.MatView("mv"); !ok {
				t.Fatal("view mv not registered")
			}
			backing, err := e.Cat.Table("__mv_mv")
			if err != nil {
				t.Fatalf("backing table: %v", err)
			}
			if len(backing.Heap.Indexes()) == 0 {
				t.Fatal("backing table has no pk index")
			}
			mustExec(t, e, `DROP MATERIALIZED VIEW mv`)
			if _, err := e.Cat.Table("__mv_mv"); err == nil {
				t.Fatal("backing table survived DROP MATERIALIZED VIEW")
			}
			// Recreating under the same name must not collide with any leaked
			// pk_mv registration.
			mustExec(t, e, tc.ddl)
			res := mustExec(t, e, `SELECT pos, val FROM mv`)
			if len(res.Rows) == 0 {
				t.Fatal("recreated view is empty")
			}
		})
	}
}

// A dropped view's pk_<view> index must be gone from the catalog: creating an
// unrelated index under the leaked name should succeed.
func TestDropMatViewFreesIndexName(t *testing.T) {
	e := engine.New(engine.DefaultOptions())
	mustExec(t, e, `CREATE TABLE seq (pos INTEGER, val INTEGER)`)
	mustExec(t, e, `INSERT INTO seq VALUES (1, 10), (2, 20)`)
	mustExec(t, e, `CREATE MATERIALIZED VIEW mv AS SELECT pos,
		SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq`)
	mustExec(t, e, `DROP MATERIALIZED VIEW mv`)
	if _, err := e.Cat.CreateIndex("pk_mv", "seq", []string{"pos"}, true); err != nil {
		t.Fatalf("index name pk_mv still taken after DROP MATERIALIZED VIEW: %v", err)
	}
}

func mustExec(t *testing.T, e *engine.Engine, sql string) *engine.Result {
	t.Helper()
	res, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", strings.Join(strings.Fields(sql), " "), err)
	}
	return res
}
