package wal

import (
	"bufio"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rfview/internal/client"
	"rfview/internal/engine"
)

// TestKillMidTransactionRecovery SIGKILLs the server while a client holds an
// OPEN transaction with acknowledged-but-uncommitted statements. A
// transaction reaches the WAL only as a commit record, written at COMMIT, so
// recovery must show every committed transaction in full and the open one
// not at all — no partially-committed effects, bit-compared against a
// reference engine that ran exactly the committed work.
func TestKillMidTransactionRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level kill test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "rfserverd")
	build := exec.Command("go", "build", "-o", bin, "rfview/cmd/rfserverd")
	build.Dir = "../.." // repo root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rfserverd: %v\n%s", err, out)
	}

	dataDir := t.TempDir()
	srv := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-fsync", "always",
		"-checkpoint-every", "25",
	)
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	exited := false
	defer func() {
		if !exited {
			srv.Process.Kill()
			srv.Wait()
		}
	}()
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "rfserverd listening on "); ok {
				addrc <- rest
				return
			}
		}
		addrc <- ""
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(15 * time.Second):
		t.Fatal("server never printed its ready line")
	}
	if addr == "" {
		t.Fatal("server exited before becoming ready")
	}
	c, err := client.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mustWire := func(sql string) {
		t.Helper()
		if _, err := c.Exec(sql); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	}
	insertVal := func(pos int) int { return (pos*37)%100 - 50 }

	// Committed work: schema, base rows, and explicit multi-statement
	// transactions — every statement below is acknowledged AND committed.
	var committed []string
	addCommitted := func(sql string) {
		mustWire(sql)
		committed = append(committed, sql)
	}
	addCommitted(`CREATE TABLE seq (pos INTEGER, val INTEGER)`)
	addCommitted(`CREATE UNIQUE INDEX seq_pk ON seq (pos)`)
	addCommitted(`CREATE MATERIALIZED VIEW matseq AS SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq`)
	for i := 1; i <= 60; i++ {
		addCommitted(fmt.Sprintf(`INSERT INTO seq VALUES (%d, %d)`, i, insertVal(i)))
	}
	for k := 1; k <= 20; k++ {
		// The reference engine applies the payload statements auto-commit;
		// the effects are identical to the committed transaction's.
		mustWire(`BEGIN`)
		ins := fmt.Sprintf(`INSERT INTO seq VALUES (%d, %d)`, 100+k, k)
		upd := fmt.Sprintf(`UPDATE seq SET val = val + 1 WHERE pos = %d`, k)
		mustWire(ins)
		mustWire(upd)
		mustWire(`COMMIT`)
		committed = append(committed, ins, upd)
	}

	// The doomed transaction: acknowledged statements, no COMMIT — then kill.
	mustWire(`BEGIN`)
	mustWire(`INSERT INTO seq VALUES (999, 999)`)
	mustWire(`UPDATE seq SET val = 0 WHERE pos <= 30`)
	mustWire(`DELETE FROM seq WHERE pos = 40`)
	srv.Process.Kill()
	srv.Wait()
	exited = true

	// Recover in-process and hunt for partially-committed effects.
	mgr, err := Open(Options{Dir: dataDir, Sync: SyncOff}, engine.DefaultOptions())
	if err != nil {
		t.Fatalf("recovery after mid-txn SIGKILL: %v", err)
	}
	defer mgr.Close()
	rec := mgr.Engine()
	t.Logf("recovery: %+v", mgr.Recovery())
	res, err := rec.Exec(`SELECT COUNT(*) AS c FROM seq WHERE pos = 999`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 {
		t.Fatal("uncommitted INSERT survived the crash")
	}
	res, err = rec.Exec(`SELECT COUNT(*) AS c FROM seq WHERE pos = 40`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 1 {
		t.Fatal("uncommitted DELETE survived the crash")
	}

	reference := engine.New(engine.DefaultOptions())
	for _, sql := range committed {
		if _, err := reference.Exec(sql); err != nil {
			t.Fatalf("reference: %q: %v", sql, err)
		}
	}
	queries := []string{
		`SELECT pos, val FROM seq`,
		`SELECT pos, val FROM matseq`,
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq WHERE pos <= 60`,
		`SELECT COUNT(*) AS c, SUM(val) AS s FROM seq`,
	}
	compareEnginesOn(t, rec, reference, queries, "after mid-txn SIGKILL")
}

// TestKillServerRecovery is the end-to-end crash harness: it builds the real
// rfserverd binary, loads it over TCP, SIGKILLs the process mid-write-stream,
// recovers the data directory in-process, and differentially compares every
// answer against an always-alive reference engine.
//
// Under -fsync always the durability contract is exact: every acknowledged
// statement survives the kill; unacknowledged ones may or may not. The test
// asserts acked ≤ recovered ≤ sent and then requires bit-identical answers
// for the recovered prefix.
func TestKillServerRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level kill test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "rfserverd")
	build := exec.Command("go", "build", "-o", bin, "rfview/cmd/rfserverd")
	build.Dir = "../.." // repo root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rfserverd: %v\n%s", err, out)
	}

	dataDir := t.TempDir()
	srv := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-fsync", "always",
		"-checkpoint-every", "40",
	)
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = nil
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	exited := false
	defer func() {
		if !exited {
			srv.Process.Kill()
			srv.Wait()
		}
	}()

	// The ready line carries the resolved port.
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "rfserverd listening on "); ok {
				addrc <- rest
				return
			}
		}
		addrc <- ""
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(15 * time.Second):
		t.Fatal("server never printed its ready line")
	}
	if addr == "" {
		t.Fatal("server exited before becoming ready")
	}

	c, err := client.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	schema := []string{
		`CREATE TABLE seq (pos INTEGER, val INTEGER)`,
		`CREATE UNIQUE INDEX seq_pk ON seq (pos)`,
		`CREATE MATERIALIZED VIEW matseq AS SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM seq`,
	}
	for _, sql := range schema {
		if _, err := c.Exec(sql); err != nil {
			t.Fatalf("schema: %v", err)
		}
	}

	// Stream appends and SIGKILL the server from a side goroutine once the
	// stream is past a couple of automatic checkpoints — the kill lands while
	// statements are in flight.
	insertVal := func(pos int) int { return (pos*37)%100 - 50 }
	const maxSend = 5000
	var acked atomic.Int64
	killed := make(chan struct{})
	sent := 0
	for i := 1; i <= maxSend; i++ {
		sent = i
		_, err := c.Exec(fmt.Sprintf(`INSERT INTO seq VALUES (%d, %d)`, i, insertVal(i)))
		if err != nil {
			break // the kill landed
		}
		if n := acked.Add(1); n == 150 {
			go func() {
				srv.Process.Kill()
				close(killed)
			}()
		}
	}
	select {
	case <-killed:
	case <-time.After(15 * time.Second):
		t.Fatal("insert stream ended before the kill fired")
	}
	srv.Wait()
	exited = true
	ackedN := int(acked.Load())
	if ackedN < 150 {
		t.Fatalf("only %d inserts acknowledged before the connection died", ackedN)
	}

	// Recover the data directory in-process.
	mgr, err := Open(Options{Dir: dataDir, Sync: SyncOff}, engine.DefaultOptions())
	if err != nil {
		t.Fatalf("recovery after SIGKILL: %v", err)
	}
	defer mgr.Close()
	res, err := mgr.Engine().Exec(`SELECT COUNT(*) AS c FROM seq`)
	if err != nil {
		t.Fatal(err)
	}
	recovered := int(res.Rows[0][0].Int())
	t.Logf("sent=%d acked=%d recovered=%d (recovery: %+v)", sent, ackedN, recovered, mgr.Recovery())
	if recovered < ackedN {
		t.Fatalf("durability violated: %d acknowledged inserts, only %d recovered", ackedN, recovered)
	}
	if recovered > sent {
		t.Fatalf("recovered %d rows but only %d inserts were ever sent", recovered, sent)
	}

	// Reference: a never-crashed engine running the schema plus exactly the
	// recovered prefix of the insert stream.
	reference := engine.New(engine.DefaultOptions())
	for _, sql := range schema {
		if _, err := reference.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= recovered; i++ {
		if _, err := reference.Exec(fmt.Sprintf(`INSERT INTO seq VALUES (%d, %d)`, i, insertVal(i))); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq`,
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 5 PRECEDING AND 4 FOLLOWING) AS w FROM seq`,
		`SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS w FROM seq`,
		`SELECT pos, val FROM seq`,
		`SELECT pos, val FROM matseq`,
		`SELECT COUNT(*) AS c, SUM(val) AS s FROM seq`,
	}
	compareEnginesOn(t, mgr.Engine(), reference, queries, "after SIGKILL")
}
