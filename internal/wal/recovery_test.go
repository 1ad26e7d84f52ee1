package wal

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	rferrors "rfview/errors"
	"rfview/internal/engine"
	"rfview/internal/paper"
	"rfview/internal/rewrite"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
)

// The crash-injection harness: a durable engine and an always-alive
// reference engine execute the same statement stream; the durable one is
// "killed" mid-workload (its manager abandoned without Close, optionally
// with the WAL tail physically torn) and recovered from disk; then every
// query of a differential suite, under each of the paper's four evaluation
// strategies — native window, Fig. 2 self-join, MaxOA derivation, MinOA
// derivation — must answer identically on both engines.

// strategies are the four evaluation configurations of the paper.
var strategies = []string{"native", "self-join", "MaxOA", "MinOA"}

// execStrategy answers q on e under one of them. The engine has no switch
// for these: the rewrite package renders the self join or the forced
// derivation over the base table's current n, and the engine runs that
// statement as written. A query the rendering does not apply to (a plain
// read, an inapplicable strategy) runs natively.
func execStrategy(e *engine.Engine, strategy, q string) (*engine.Result, error) {
	stmt, err := sqlparser.Parse(q)
	if err != nil {
		return nil, err
	}
	if sel, ok := stmt.(*sqlparser.Select); ok {
		force := func(strategy paper.Strategy) {
			d := rewrite.Derive(e.Cat, sel)
			if d == nil {
				return
			}
			count, err := e.Exec("SELECT COUNT(*) FROM " + d.View.BaseTable)
			if err != nil {
				return
			}
			if p, err := paper.Pattern(d, strategy, paper.FormDisjunctive, int(count.Rows[0][0].Int())); err == nil {
				stmt = p
			}
		}
		switch strategy {
		case "self-join":
			if sj, err := paper.SelfJoin(sel); err == nil {
				stmt = sj
			}
		case "MaxOA":
			force(paper.StrategyMaxOA)
		case "MinOA":
			force(paper.StrategyMinOA)
		}
	}
	defer func(prev bool) { e.Opts.UseMatViews = prev }(e.Opts.UseMatViews)
	e.Opts.UseMatViews = false // the rendering above is the only rewrite
	return e.ExecStmt(stmt)
}

// diffQueries is the differential suite: window queries that match the
// materialized views (derivation fires), window queries that do not, direct
// view scans, and plain reads.
var diffQueries = []string{
	// Identical window to matseq: exact derivation.
	`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
	// Wider window: MaxOA / MinOA derivation from matseq.
	`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING AND 3 FOLLOWING) AS w FROM seq`,
	// Cumulative query.
	`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS w FROM seq`,
	// Partitioned query matching the partitioned view's window.
	`SELECT grp, pos, MAX(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM pt`,
	// Partitioned query with a wider window.
	`SELECT grp, pos, MAX(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS w FROM pt`,
	// Direct scans of every table and view.
	`SELECT pos, val FROM seq`,
	`SELECT grp, pos, val FROM pt`,
	`SELECT pos, val FROM matseq`,
	`SELECT part, pos, val, body FROM matpt`,
	`SELECT pos, val FROM plainv`,
	`SELECT pos, val FROM avgv`,
	// The AVG view stores its window sums: it answers SUM as well as AVG.
	// AVG (2,2) derives from matseq, the larger window; AVG and SUM (1,1)
	// from avgv.
	`SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS w FROM seq`,
	`SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
	`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
	// Aggregates over base tables.
	`SELECT COUNT(*) AS c, SUM(val) AS s FROM seq`,
	`SELECT COUNT(*) AS c FROM pt`,
}

// renderResult flattens one query outcome — including errors — into a
// comparable string. Row order is normalized by sorting: restored heaps
// renumber row ids, and the comparison is about contents, not physical
// placement.
func renderResult(res *engine.Result, err error) string {
	if err != nil {
		return "ERROR: " + err.Error()
	}
	lines := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		parts := make([]string, len(r))
		for i, d := range r {
			parts[i] = fmt.Sprintf("%v:%s", d.Typ(), d.String())
		}
		lines = append(lines, strings.Join(parts, "|"))
	}
	sort.Strings(lines)
	return strings.Join(res.Columns, ",") + "\n" + strings.Join(lines, "\n")
}

// compareEngines runs the differential suite under every strategy on both
// engines and fails on the first divergence.
func compareEngines(t *testing.T, recovered, reference *engine.Engine, ctx string) {
	t.Helper()
	compareEnginesOn(t, recovered, reference, diffQueries, ctx)
}

func compareEnginesOn(t *testing.T, recovered, reference *engine.Engine, queries []string, ctx string) {
	t.Helper()
	for _, name := range strategies {
		for _, q := range queries {
			got := renderResult(execStrategy(recovered, name, q))
			want := renderResult(execStrategy(reference, name, q))
			if got != want {
				t.Fatalf("%s: strategy %s: %s\nrecovered:\n%s\nreference:\n%s", ctx, name, q, got, want)
			}
		}
	}
}

// workload returns the statement stream of the crash test: DDL, appends,
// point updates, tail deletes, view creation (simple, partitioned, plain,
// AVG), REFRESH, a transaction of positional shifts (an entry starting
// "BEGIN;" runs its statements in one session), and a couple of statements
// that fail on purpose — the log-before-apply rule logs them too, and
// replay must tolerate their deterministic re-failure.
func workload() []string {
	stmts := []string{
		`CREATE TABLE seq (pos INTEGER, val INTEGER)`,
		`CREATE UNIQUE INDEX seq_pk ON seq (pos)`,
		`CREATE TABLE pt (grp VARCHAR(8), pos INTEGER, val INTEGER)`,
	}
	for i := 1; i <= 30; i++ {
		stmts = append(stmts, fmt.Sprintf(`INSERT INTO seq VALUES (%d, %d)`, i, (i*37)%100-50))
	}
	for g := 0; g < 3; g++ {
		for i := 1; i <= 8; i++ {
			stmts = append(stmts, fmt.Sprintf(`INSERT INTO pt VALUES ('g%d', %d, %d)`, g, i, (g*13+i*7)%40))
		}
	}
	stmts = append(stmts,
		`CREATE MATERIALIZED VIEW matseq AS SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq`,
		`CREATE MATERIALIZED VIEW matpt AS SELECT grp, pos, MAX(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM pt`,
		`CREATE MATERIALIZED VIEW plainv AS SELECT pos, val FROM seq WHERE pos <= 5`,
		`CREATE MATERIALIZED VIEW avgv AS SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM seq`,
		// Statements that fail by design: duplicate index name, duplicate
		// unique key, unknown table.
		`CREATE UNIQUE INDEX seq_pk ON seq (val)`,
		`INSERT INTO seq VALUES (1, 999)`,
		`INSERT INTO no_such_table VALUES (1)`,
	)
	// Density-preserving maintenance traffic: value updates and appends.
	for i := 0; i < 20; i++ {
		pos := 1 + (i*11)%30
		stmts = append(stmts, fmt.Sprintf(`UPDATE seq SET val = %d WHERE pos = %d`, i-10, pos))
	}
	for i := 31; i <= 36; i++ {
		stmts = append(stmts, fmt.Sprintf(`INSERT INTO seq VALUES (%d, %d)`, i, i%9))
	}
	stmts = append(stmts,
		// Delete of the trailing position is density-preserving too.
		`DELETE FROM seq WHERE pos = 36`,
		`REFRESH MATERIALIZED VIEW avgv`,
		// One transaction: a value update of every partition, then
		// positional shifts (§2.3) — an insert into seq's middle over its
		// unique pos index, a delete from partition g1.
		`BEGIN; UPDATE pt SET val = 77 WHERE pos = 3; UPDATE seq SET pos = pos + 1 WHERE pos >= 10; INSERT INTO seq VALUES (10, 5); `+
			`DELETE FROM pt WHERE grp = 'g1' AND pos = 4; UPDATE pt SET pos = pos - 1 WHERE grp = 'g1' AND pos > 4; COMMIT`,
	)
	return stmts
}

// applyBoth feeds one statement, or one "BEGIN; …; COMMIT" transaction, to
// both engines and insists they agree on success/failure; a transaction
// must succeed.
func applyBoth(t *testing.T, durable, reference *engine.Engine, sql string) {
	t.Helper()
	apply := func(e *engine.Engine) error {
		if !strings.HasPrefix(sql, "BEGIN;") {
			_, err := e.Exec(sql)
			return err
		}
		s := e.NewSession()
		defer s.Close()
		for _, stmt := range strings.Split(sql, ";") {
			if _, err := s.Exec(stmt); err != nil {
				return err
			}
		}
		return nil
	}
	errD, errR := apply(durable), apply(reference)
	if strings.HasPrefix(sql, "BEGIN;") && errR != nil {
		t.Fatalf("the workload's transaction %q failed: %v", sql, errR)
	}
	if (errD == nil) != (errR == nil) {
		t.Fatalf("engines diverged applying %q: durable err=%v, reference err=%v", sql, errD, errR)
	}
}

// TestCrashRecoveryDifferential kills the durable engine at every interesting
// point of the workload (via subtests at a few cut positions) and checks the
// recovered state against the reference. CheckpointEvery is small so cuts
// land before, between, and after automatic checkpoints — recovery exercises
// snapshot-only, snapshot+tail, and tail-only paths.
func TestCrashRecoveryDifferential(t *testing.T) {
	stmts := workload()
	cuts := []int{3, 17, 40, 55, len(stmts)}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			mgr, err := Open(Options{Dir: dir, Sync: SyncOff, CheckpointEvery: 13}, engine.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !mgr.Recovery().Fresh {
				t.Fatalf("fresh dir reported %+v", mgr.Recovery())
			}
			reference := engine.New(engine.DefaultOptions())
			for _, sql := range stmts[:cut] {
				applyBoth(t, mgr.Engine(), reference, sql)
			}
			if err := mgr.Err(); err != nil {
				t.Fatalf("automatic checkpoint failed: %v", err)
			}
			// Crash: abandon the manager. No Close, no final checkpoint —
			// disk holds whatever the WAL policy already wrote.
			mgr = nil

			re, err := Open(Options{Dir: dir, Sync: SyncOff, CheckpointEvery: 13}, engine.DefaultOptions())
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer re.Close()
			compareEngines(t, re.Engine(), reference, fmt.Sprintf("cut=%d", cut))

			// The recovered engine must keep working: apply the rest of the
			// workload to both and compare again.
			for _, sql := range stmts[cut:] {
				applyBoth(t, re.Engine(), reference, sql)
			}
			compareEngines(t, re.Engine(), reference, fmt.Sprintf("cut=%d post-recovery traffic", cut))
			// Every statement of the workload is maintainable: no view may
			// have gone stale on either engine, the shifts included.
			for _, e := range []*engine.Engine{re.Engine(), reference} {
				for _, v := range []string{"matseq", "matpt", "avgv"} {
					if stale, why := e.Views.StaleInfo(v); stale {
						t.Fatalf("cut=%d: view %s is stale: %s", cut, v, why)
					}
				}
			}
		})
	}
}

// TestCrashRecoveryStaleView crashes with a view deliberately left stale and
// checks the recovered engine reproduces the staleness — including the
// refusal to answer derivation queries — and that REFRESH heals it.
func TestCrashRecoveryStaleView(t *testing.T) {
	dir := t.TempDir()
	engOpts := engine.DefaultOptions()
	mgr, err := Open(Options{Dir: dir, Sync: SyncOff}, engOpts)
	if err != nil {
		t.Fatal(err)
	}
	reference := engine.New(engOpts)
	setup := []string{
		`CREATE TABLE seq (pos INTEGER, val INTEGER)`,
		`INSERT INTO seq VALUES (1, 10), (2, 20), (3, 30), (4, 40)`,
		`CREATE MATERIALIZED VIEW matseq AS SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq`,
		// Deleting a middle position breaks density: the view goes stale.
		`DELETE FROM seq WHERE pos = 2`,
	}
	for _, sql := range setup {
		applyBoth(t, mgr.Engine(), reference, sql)
	}
	if !mgr.Engine().Views.Stale("matseq") {
		t.Fatal("setup failed to make matseq stale")
	}
	// Force the stale flag through a checkpoint so it round-trips the
	// snapshot, not just the replay path.
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mgr = nil // crash

	re, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer re.Close()
	if !re.Engine().Views.Stale("matseq") {
		t.Fatal("recovered engine lost the stale flag")
	}
	// Both engines must decline the derivation and refuse a read of the view
	// itself, identically.
	for _, q := range []string{
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
		`SELECT pos, val FROM matseq`,
	} {
		got := renderResult(re.Engine().Exec(q))
		want := renderResult(reference.Exec(q))
		if got != want {
			t.Fatalf("stale-view behavior diverged on %s:\nrecovered: %s\nreference: %s", q, got, want)
		}
	}
	// Healing: restore density, refresh, compare.
	heal := []string{
		`UPDATE seq SET pos = 2 WHERE pos = 4`,
		`REFRESH MATERIALIZED VIEW matseq`,
	}
	for _, sql := range heal {
		applyBoth(t, re.Engine(), reference, sql)
	}
	compareEngines(t, re.Engine(), reference, "after heal")
}

// TestTornTailRecovery physically tears the WAL tail — as a kill -9 mid-
// write would — and checks recovery comes up at the last complete record
// instead of failing to start.
func TestTornTailRecovery(t *testing.T) {
	for _, tear := range []struct {
		name string
		mut  func(data []byte) []byte
	}{
		{"partial final record", func(data []byte) []byte { return data[:len(data)-5] }},
		{"corrupt final record", func(data []byte) []byte {
			out := append([]byte(nil), data...)
			out[len(out)-2] ^= 0xFF
			return out
		}},
		{"garbage appended", func(data []byte) []byte {
			return append(append([]byte(nil), data...), 0xDE, 0xAD, 0xBE, 0xEF)
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			mgr, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			e := mgr.Engine()
			if _, err := e.Exec(`CREATE TABLE t (a INTEGER)`); err != nil {
				t.Fatal(err)
			}
			const rows = 10
			for i := 1; i <= rows; i++ {
				if _, err := e.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i)); err != nil {
					t.Fatal(err)
				}
			}
			mgr.log.Sync()
			mgr = nil // crash without checkpoint

			segs, err := listSegments(dir)
			if err != nil || len(segs) == 0 {
				t.Fatalf("segments: %v err=%v", segs, err)
			}
			last := segs[len(segs)-1].path
			data, err := os.ReadFile(last)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(last, tear.mut(data), 0o644); err != nil {
				t.Fatal(err)
			}

			re, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
			if err != nil {
				t.Fatalf("torn tail prevented startup: %v", err)
			}
			defer re.Close()
			res, err := re.Engine().Exec(`SELECT COUNT(*) AS c FROM t`)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Rows[0][0].Int()
			wantMin := int64(rows - 1) // at most the final record is lost
			if tear.name == "garbage appended" {
				wantMin = rows // nothing legitimate was damaged
			}
			if got < wantMin || got > rows {
				t.Fatalf("recovered %d rows, want in [%d, %d]", got, wantMin, rows)
			}
			// The tear is gone after the recovery-ending checkpoint: a second
			// open replays nothing and sees the same state.
			re2, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			rec := re2.Recovery()
			if rec.RecordsReplayed != 0 || rec.ReplayErrors != 0 {
				t.Fatalf("second recovery not clean: %+v", rec)
			}
			res2, err := re2.Engine().Exec(`SELECT COUNT(*) AS c FROM t`)
			if err != nil {
				t.Fatal(err)
			}
			if res2.Rows[0][0].Int() != got {
				t.Fatalf("second recovery sees %d rows, first saw %d", res2.Rows[0][0].Int(), got)
			}
		})
	}
}

// TestRecoveryCacheFreshness is the recovery × caching regression: a query
// cached (plan and result) before the crash must never be answered from the
// pre-crash cache after recovery — the recovered engine rebuilds state with
// fresh version counters and an empty cache, and this test pins that down.
func TestRecoveryCacheFreshness(t *testing.T) {
	dir := t.TempDir()
	mgr, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := mgr.Engine()
	for _, sql := range []string{
		`CREATE TABLE t (a INTEGER, b INTEGER)`,
		`INSERT INTO t VALUES (1, 100)`,
	} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	const q = `SELECT a, b FROM t`
	if _, err := e.Exec(q); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(q); err != nil { // second run is served from cache
		t.Fatal(err)
	}
	if e.PlanCacheStats().Hits == 0 {
		t.Fatal("setup failed to exercise the result cache")
	}
	// Checkpoint, then mutate (the mutation lives only in the WAL tail).
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(`UPDATE t SET b = 200 WHERE a = 1`); err != nil {
		t.Fatal(err)
	}
	mgr = nil // crash

	re, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rec := re.Recovery()
	if !rec.SnapshotLoaded || rec.RecordsReplayed == 0 {
		t.Fatalf("expected snapshot+tail recovery, got %+v", rec)
	}
	res, err := re.Engine().Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Int() != 200 {
		t.Fatalf("recovered engine served a pre-crash answer: %v", res.Rows)
	}
}

// TestRecoveryReplaysThroughCheckpointCrashWindow simulates a crash between
// the snapshot rename and the WAL truncation (checkpoint step 2→3): the
// snapshot exists AND the covered segments still do. Recovery must not
// double-apply the covered records.
func TestRecoveryReplaysThroughCheckpointCrashWindow(t *testing.T) {
	dir := t.TempDir()
	mgr, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := mgr.Engine()
	for _, sql := range []string{
		`CREATE TABLE t (a INTEGER)`,
		`INSERT INTO t VALUES (1)`,
		`INSERT INTO t VALUES (2)`,
	} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	// Hand-run checkpoint step 2 only: snapshot written, WAL left alone.
	snap, err := captureState(e, mgr.log.LastLSN())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	mgr.log.Sync()
	mgr = nil // crash in the checkpoint window

	re, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rec := re.Recovery()
	if !rec.SnapshotLoaded || rec.RecordsReplayed != 0 {
		t.Fatalf("covered records were replayed: %+v", rec)
	}
	res, err := re.Engine().Exec(`SELECT COUNT(*) AS c FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("recovered %d rows, want 2 (no double-apply)", res.Rows[0][0].Int())
	}
}

// dirFiles reads every file under dir, by path relative to it.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// writeSnapFile writes body as a snapshot file under magic, framed as every
// snapshot format frames it.
func writeSnapFile(t *testing.T, path, magic string, body []byte) {
	t.Helper()
	hdr := binary.LittleEndian.AppendUint32([]byte(magic), uint32(len(body)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(body))
	if err := os.WriteFile(path, append(hdr, body...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverParentFormatDirectory: a data directory written before rows on
// disk had one encoding is refused, not recovered and not skipped as
// corrupt. A copy of testdata/pr19 (written by the commit that gave
// sequence views one representation per partition: RFSNAP01 snapshots and a
// v1 commit record), an RFSNAP02 snapshot, and a v1 commit record in the
// tail behind an RFSNAP03 snapshot each make Open return a FormatError
// naming the file or record and the format found. Every file of the
// directory is byte-identical afterwards, and no spill directory is left.
func TestRecoverParentFormatDirectory(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // where an engine's private spill directory goes
	cases := []struct {
		name, where, found string
		build              func(t *testing.T, dir string)
	}{
		{"pr19", "snap-0000000000000009.snap", "RFSNAP01", func(t *testing.T, dir string) {
			for name, data := range dirFiles(t, filepath.Join("testdata", "pr19")) {
				if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"RFSNAP02", "snap-0000000000000002.snap", "RFSNAP02", func(t *testing.T, dir string) {
			body := `{"lsn":2,"tables":[{"name":"t","columns":[{"name":"a","type":2}],"rows":[[{"t":2,"i":1}]]}],"indexes":[],"matviews":[]}`
			writeSnapFile(t, filepath.Join(dir, snapName(2)), "RFSNAP02", []byte(body))
		}},
		{"v1 commit record", "log record 3", "--txn-commit:v1", func(t *testing.T, dir string) {
			mgr, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]string, 3000)
			for i := range rows {
				rows[i] = fmt.Sprintf("(%d)", i)
			}
			for _, sql := range []string{`CREATE TABLE t (a INTEGER)`, `INSERT INTO t VALUES ` + strings.Join(rows, ", ")} {
				if _, err := mgr.Engine().Exec(sql); err != nil {
					t.Fatal(err)
				}
			}
			if err := mgr.Close(); err != nil {
				t.Fatal(err)
			}
			mgr.Engine().Close()
			l, err := openLog(dir, 3, SyncOff, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(`--txn-commit:v1 [{"table":"t","kind":0,"cols":["a"],"rows":[[{"t":2,"i":1}]]}]`); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			c.build(t, dir)
			before := dirFiles(t, dir)
			opts := engine.DefaultOptions()
			opts.PageCacheBytes = 16 << 10 // a restore evicts pages to heap files
			mgr, err := Open(Options{Dir: dir, Sync: SyncOff}, opts)
			var ferr *FormatError
			if !errors.As(err, &ferr) {
				if mgr != nil {
					mgr.Close()
				}
				t.Fatalf("Open: %v, want a FormatError", err)
			}
			if ferr.Where != c.where || ferr.Found != c.found {
				t.Fatalf("FormatError names %q in format %q, want %q in %q", ferr.Where, ferr.Found, c.where, c.found)
			}
			if after := dirFiles(t, dir); !maps.Equal(after, before) {
				t.Fatalf("the refused Open changed the directory: %d files before, %d after", len(before), len(after))
			}
		})
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "rfview-spill-*")); len(left) != 0 {
		t.Fatalf("a refused Open left %v behind", left)
	}
}

// TestUnreplayableCommitRecordFailsOpen: a commit record is logged only for
// a committed transaction, so one that fails to replay is corruption, not a
// re-failure: Open fails naming its LSN and leaves the directory as it was.
func TestUnreplayableCommitRecordFailsOpen(t *testing.T) {
	dir := t.TempDir()
	mgr, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Engine().Exec(`CREATE TABLE t (a INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	mgr.Engine().Close()
	l, err := openLog(dir, 2, SyncOff, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := base64.StdEncoding.EncodeToString(sqltypes.EncodeRows(nil, sqltypes.Row{sqltypes.NewInt(1)}))
	if _, err := l.Append(engine.CommitFormat + ` [{"table":"missing","kind":0,"cols":["a"],"rows":"` + rows + `"}]`); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	if mgr, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions()); err == nil || !strings.Contains(err.Error(), "log record 2") {
		if mgr != nil {
			mgr.Close()
		}
		t.Fatalf("Open: %v, want an error naming log record 2", err)
	}
	if after := dirFiles(t, dir); !maps.Equal(after, before) {
		t.Fatal("the failed Open changed the directory")
	}
}

// TestSnapshotFallbackRefusesLogGap: after two checkpoints the log starts
// past the older snapshot, so when the newest snapshot is corrupt, falling
// back to the older one would silently lose the records between them. Open
// refuses with a GapError instead.
func TestSnapshotFallbackRefusesLogGap(t *testing.T) {
	dir := t.TempDir()
	mgr, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	for _, sql := range []string{`CREATE TABLE t (a INTEGER)`, `INSERT INTO t VALUES (1)`, `INSERT INTO t VALUES (2)`} {
		if _, err := mgr.Engine().Exec(sql); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, mgr.log.LastLSN())
	}
	mgr.log.Close() // crash: no close-time checkpoint
	mgr.Engine().Close()
	newest := filepath.Join(dir, snapName(lsns[2]))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
	var gap *GapError
	if !errors.As(err, &gap) {
		if re != nil {
			res, _ := re.Engine().Exec(`SELECT a FROM t`)
			re.Close()
			t.Fatalf("Open: %v, want a GapError; it recovered %v", err, res.Rows)
		}
		t.Fatalf("Open: %v, want a GapError", err)
	}
	if gap.SnapshotLSN != lsns[1] || gap.FirstLSN != lsns[2]+1 {
		t.Fatalf("GapError %+v, want snapshot %d and first record %d", gap, lsns[1], lsns[2]+1)
	}
}

// TestRefusedDropLeavesRecoverableDirectory: DROP TABLE of a view's base or
// backing table is refused (it used to succeed, and the logged drop then made
// every later Open fail restoring the orphaned view). The refusal is logged
// like any failed statement; with or without a checkpoint after it, the
// directory reopens with the view intact.
func TestRefusedDropLeavesRecoverableDirectory(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			dir := t.TempDir()
			mgr, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			reference := engine.New(engine.DefaultOptions())
			defer reference.Close()
			for _, sql := range []string{
				`CREATE TABLE seq (pos INTEGER, val INTEGER)`,
				`INSERT INTO seq VALUES (1, 10), (2, 20), (3, 3)`,
				`CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM seq`,
			} {
				applyBoth(t, mgr.Engine(), reference, sql)
			}
			for _, sql := range []string{`DROP TABLE seq`, `DROP TABLE __mv_mv`} {
				if _, err := mgr.Engine().Exec(sql); rferrors.CodeOf(err) != rferrors.CodeUnsupported {
					t.Fatalf("%s: got %v, want an unsupported error", sql, err)
				}
			}
			applyBoth(t, mgr.Engine(), reference, `UPDATE seq SET val = 7 WHERE pos = 2`)
			if checkpoint {
				if err := mgr.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			mgr = nil // crash

			re, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
			if err != nil {
				t.Fatalf("the directory does not reopen: %v", err)
			}
			defer re.Close()
			queries := []string{
				`SELECT pos, val FROM mv`,
				`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
			}
			compareEnginesOn(t, re.Engine(), reference, queries, "reopened")
			applyBoth(t, re.Engine(), reference, `REFRESH MATERIALIZED VIEW mv`)
			applyBoth(t, re.Engine(), reference, `INSERT INTO seq VALUES (4, 4)`)
			compareEnginesOn(t, re.Engine(), reference, queries, "reopened, after traffic")
		})
	}
}

// TestRestoreReadsNoBaseRows: a fresh view's backing rows are the view, so
// restoring a data directory re-registers it without reading its base
// table — recovery time does not grow with what the view covers. Restoring
// the snapshot with its views costs exactly the buffer-pool page
// acquisitions of restoring it without them.
func TestRestoreReadsNoBaseRows(t *testing.T) {
	dir := t.TempDir()
	mgr, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := mgr.Engine()
	rows := make([]string, 2000)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, %d)", i+1, i%97)
	}
	for _, sql := range []string{
		`CREATE TABLE seq (pos INTEGER, val INTEGER)`,
		`INSERT INTO seq VALUES ` + strings.Join(rows, ", "),
		`CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq`,
	} {
		before := e.Cat.Clock().Now()
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(sql, "CREATE MATERIALIZED") && e.Cat.Clock().Now() != before+1 {
			t.Fatalf("CREATE MATERIALIZED VIEW advanced the clock from %d to %d, want one epoch", before, e.Cat.Clock().Now())
		}
	}
	want, err := e.Exec(`SELECT pos, val FROM mv ORDER BY pos`)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	sort.Strings(snaps)
	if len(snaps) == 0 {
		t.Fatal("no snapshot written")
	}
	snap, err := readSnapshot(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	pages := func(s *Snapshot) (int64, *engine.Engine) {
		t.Helper()
		e := engine.New(engine.DefaultOptions())
		t.Cleanup(func() { e.Close() })
		if err := restoreState(e, s); err != nil {
			t.Fatal(err)
		}
		st := e.StorageStats()
		return st.Hits + st.Misses, e
	}
	tablesOnly := *snap
	tablesOnly.MatViews = nil
	without, _ := pages(&tablesOnly)
	with, re := pages(snap)
	if len(snap.MatViews) != 1 || with != without {
		t.Fatalf("restoring %d view(s) acquired %d pages, the tables alone %d: a view restore read rows",
			len(snap.MatViews), with, without)
	}
	if epoch := re.Cat.Clock().Now(); epoch != 1 {
		t.Fatalf("restoring %d base rows and the view's advanced the clock to epoch %d, want one commit", len(rows), epoch)
	}
	got, err := re.Exec(`SELECT pos, val FROM mv ORDER BY pos`)
	if err != nil {
		t.Fatalf("restored view: %v", err)
	}
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Fatal("the restored view answers differently")
	}
}

// cancelledAfterFirstCheck is a context that the engine sees live at the
// statement's entry check and cancelled at every later check, so the
// statement is abandoned inside its work, deterministically.
type cancelledAfterFirstCheck struct {
	context.Context
	checks atomic.Int32
}

func (c *cancelledAfterFirstCheck) Err() error {
	if c.checks.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestCancelledViewStatementNotReplayed: a CREATE or REFRESH MATERIALIZED
// VIEW that answered `cancelled` left nothing durable. After a crash the
// cancelled CREATE's view and backing table do not exist, a view whose
// REFRESH was cancelled is as stale as it was live, and the names are free
// for the statements run again.
func TestCancelledViewStatementNotReplayed(t *testing.T) {
	dir := t.TempDir()
	mgr, err := Open(Options{Dir: dir, Sync: SyncAlways}, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := mgr.Engine()
	const (
		seqView   = `CREATE MATERIALIZED VIEW sv AS SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM pb`
		plainView = `CREATE MATERIALIZED VIEW pv AS SELECT grp, COUNT(*) AS n FROM pb GROUP BY grp`
		staleView = `CREATE MATERIALIZED VIEW st AS SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS val FROM seq`
	)
	for _, sql := range []string{
		`CREATE TABLE pb (grp INTEGER, pos INTEGER, val INTEGER)`,
		`INSERT INTO pb VALUES (1, 1, 10), (1, 2, 20), (2, 1, 3), (1, 3, 4), (2, 2, 5)`,
		`CREATE TABLE seq (pos INTEGER, val INTEGER)`,
		`INSERT INTO seq VALUES (1, 1), (2, 2), (3, 3)`,
		staleView,
		`DELETE FROM seq WHERE pos = 2`,
		`INSERT INTO seq VALUES (2, 7)`,
	} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	cancelled := []string{seqView, plainView, `REFRESH MATERIALIZED VIEW st`}
	for _, sql := range cancelled {
		if _, err := e.ExecContext(&cancelledAfterFirstCheck{Context: context.Background()}, sql); rferrors.CodeOf(err) != rferrors.CodeCancelled {
			t.Fatalf("%s: got %v, want a cancelled error", sql, err)
		}
	}
	check := func(e *engine.Engine, when string) {
		t.Helper()
		for _, name := range []string{"sv", "pv"} {
			if _, ok := e.Cat.MatView(name); ok {
				t.Errorf("%s: view %s exists", when, name)
			}
			if _, err := e.Cat.Table("__mv_" + name); err == nil {
				t.Errorf("%s: table __mv_%s exists", when, name)
			}
		}
		if _, err := e.Exec(`SELECT pos, val FROM st`); rferrors.CodeOf(err) != rferrors.CodeStaleView {
			t.Errorf("%s: reading st: got %v, want a stale_view error", when, err)
		}
	}
	check(e, "live")
	mgr = nil // crash

	re, err := Open(Options{Dir: dir, Sync: SyncAlways}, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.Recovery().ReplayErrors; n != 0 {
		t.Errorf("recovery counted %d replay errors", n)
	}
	check(re.Engine(), "recovered")
	for _, sql := range cancelled {
		if _, err := re.Engine().Exec(sql); err != nil {
			t.Fatalf("recovered: %s: %v", sql, err)
		}
	}
	if _, err := re.Engine().Exec(`SELECT pos, val FROM st`); err != nil {
		t.Fatalf("recovered: st after REFRESH: %v", err)
	}
}
