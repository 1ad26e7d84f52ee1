package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	rferrors "rfview/errors"
)

// bulkInsert loads table with n rows in chunks, values from f.
func bulkInsert(t *testing.T, e *Engine, table string, n int, f func(i int) string) {
	t.Helper()
	const chunk = 5000
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
		for i := lo; i < hi; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			b.WriteString(f(i))
		}
		mustExec(t, e, b.String())
	}
}

func TestPreCancelledContext(t *testing.T) {
	e := newEngine(t)
	loadSeq(t, e, 10, func(i int) int64 { return int64(i) })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExecContext(ctx, `SELECT pos FROM seq`); !errors.Is(err, rferrors.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	// A deadline in the past behaves identically.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := e.ExecContext(dctx, `SELECT pos FROM seq`); !errors.Is(err, rferrors.ErrCancelled) {
		t.Fatalf("expired deadline err = %v, want ErrCancelled", err)
	}
}

// TestCancelMidQuery cancels a long cross join mid-drain: the statement must
// fail with ErrCancelled within 100ms of the cancel, and the engine must stay
// fully usable.
func TestCancelMidQuery(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, `CREATE TABLE a (x INTEGER)`)
	mustExec(t, e, `CREATE TABLE b (y INTEGER)`)
	bulkInsert(t, e, "a", 1500, func(i int) string { return fmt.Sprintf("(%d)", i) })
	bulkInsert(t, e, "b", 1500, func(i int) string { return fmt.Sprintf("(%d)", i) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := e.ExecContext(ctx, `SELECT x, y FROM a, b`) // 2.25M-row cross join
		errc <- err
	}()
	time.Sleep(15 * time.Millisecond)
	cancel()
	cancelled := time.Now()
	select {
	case err := <-errc:
		if took := time.Since(cancelled); took > cancelLatencyBudget {
			t.Errorf("statement returned %v after cancel, want <%v", took, cancelLatencyBudget)
		}
		if !errors.Is(err, rferrors.ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("statement did not return after cancel")
	}
	// Engine state is intact: reads and writes still work.
	res := mustExec(t, e, `SELECT COUNT(x) AS c FROM a`)
	if res.Rows[0][0].Int() != 1500 {
		t.Fatalf("count after cancel = %v", res.Rows[0][0])
	}
	mustExec(t, e, `INSERT INTO a VALUES (9999)`)
}

// TestCancelMidParallelWindow cancels while the parallel window pool is
// grinding through partitions. Run under -race this doubles as the pool's
// cancellation race test.
func TestCancelMidParallelWindow(t *testing.T) {
	opts := DefaultOptions()
	opts.WindowParallelism = 4
	e := New(opts)
	mustExec(t, e, `CREATE TABLE tx (grp INTEGER, pos INTEGER, val INTEGER)`)
	const groups, per = 400, 250 // 100k rows, 400 partitions
	bulkInsert(t, e, "tx", groups*per, func(i int) string {
		return fmt.Sprintf("(%d, %d, %d)", i%groups, i/groups, i%7)
	})
	q := `SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 100 PRECEDING AND 100 FOLLOWING) AS w FROM tx`

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := e.ExecContext(ctx, q)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	cancelled := time.Now()
	select {
	case err := <-errc:
		if took := time.Since(cancelled); took > cancelLatencyBudget {
			t.Errorf("window query returned %v after cancel, want <%v", took, cancelLatencyBudget)
		}
		if !errors.Is(err, rferrors.ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("window query did not return after cancel")
	}
	// The same query completes untouched afterwards — no worker leaked, no
	// partial state left behind.
	res, err := e.ExecContext(context.Background(), q)
	if err != nil {
		t.Fatalf("re-run after cancel: %v", err)
	}
	if len(res.Rows) != groups*per {
		t.Fatalf("re-run rows = %d, want %d", len(res.Rows), groups*per)
	}
}

// TestCancelMidRefresh cancels the REFRESH of a large plain view and of a
// large partitioned sequence view mid-fill, and then a CREATE of its twin. A
// cancelled REFRESH returns ErrCancelled within the latency bound and leaves
// the view its old rows and its freshness; an uncancelled REFRESH then
// succeeds. A cancelled CREATE leaves no view and no backing table.
func TestCancelMidRefresh(t *testing.T) {
	for _, c := range []struct {
		name, load, ddl, count string
		rows                   int64
	}{
		{name: "plain", rows: 400 * 400,
			load:  `CREATE TABLE a (x INTEGER); CREATE TABLE b (y INTEGER)`,
			ddl:   `SELECT x, y FROM a, b`, // 160k rows
			count: `SELECT COUNT(x) AS c FROM %s`},
		{name: "sequence", rows: 300_000 + 4*4, // and each partition's header and trailer
			load:  `CREATE TABLE pb (grp INTEGER, pos INTEGER, val INTEGER)`,
			ddl:   `SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM pb`,
			count: `SELECT COUNT(*) AS c FROM __mv_%s`},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newEngine(t)
			mustExecAll(t, e, c.load)
			if c.name == "plain" {
				bulkInsert(t, e, "a", 400, func(i int) string { return fmt.Sprintf("(%d)", i) })
				bulkInsert(t, e, "b", 400, func(i int) string { return fmt.Sprintf("(%d)", i) })
			} else {
				bulkInsert(t, e, "pb", 300_000, func(i int) string { return fmt.Sprintf("(%d, %d, %d)", i%4, i/4+1, i%7) })
			}
			mustExec(t, e, `CREATE MATERIALIZED VIEW big AS `+c.ddl)
			count := func(view string) int64 {
				t.Helper()
				return mustExec(t, e, fmt.Sprintf(c.count, view)).Rows[0][0].Int()
			}
			cancelled := func(sql string) {
				t.Helper()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				errc := make(chan error, 1)
				go func() {
					_, err := e.ExecContext(ctx, sql)
					errc <- err
				}()
				time.Sleep(10 * time.Millisecond)
				cancel()
				at := time.Now()
				select {
				case err := <-errc:
					if took := time.Since(at); took > cancelLatencyBudget {
						t.Errorf("%s returned %v after cancel, want <%v", sql, took, cancelLatencyBudget)
					}
					if !errors.Is(err, rferrors.ErrCancelled) {
						t.Fatalf("%s: err = %v, want ErrCancelled", sql, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%s did not return after cancel", sql)
				}
			}
			cancelled(`REFRESH MATERIALIZED VIEW big`)
			if got := count("big"); got != c.rows {
				t.Fatalf("view rows after a cancelled REFRESH = %d, want %d", got, c.rows)
			}
			if e.Views.Stale("big") {
				t.Fatal("a cancelled REFRESH staled the view")
			}
			if _, err := e.ExecContext(context.Background(), `REFRESH MATERIALIZED VIEW big`); err != nil {
				t.Fatalf("uncancelled REFRESH after cancel: %v", err)
			}
			if got := count("big"); got != c.rows {
				t.Fatalf("view rows after refresh = %d, want %d", got, c.rows)
			}
			cancelled(`CREATE MATERIALIZED VIEW twin AS ` + c.ddl)
			if _, ok := e.Cat.MatView("twin"); ok {
				t.Fatal("a cancelled CREATE left its view")
			}
			if _, err := e.Cat.Table("__mv_twin"); err == nil {
				t.Fatal("a cancelled CREATE left its backing table")
			}
		})
	}
}
