package wal

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rfview/internal/client"
	"rfview/internal/engine"
)

// tearMidLog writes CREATE TABLE t and 30 single-row INSERTs over 300-byte
// segments, crashes, and flips a byte in the middle of the second segment of
// five or more. It returns the rows the log holds up to the tear and the
// intact records of the segments after the torn one, which recovery must
// discard.
func tearMidLog(t *testing.T, dir string) (rows, past int) {
	t.Helper()
	mgr, err := Open(Options{Dir: dir, Sync: SyncOff, SegmentBytes: 300}, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Engine().Exec(`CREATE TABLE t (a INTEGER)`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		if _, err := mgr.Engine().Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i)); err != nil {
			t.Fatal(err)
		}
	}
	mgr.log.Close() // crash: no close-time checkpoint
	mgr.Engine().Close()

	segs, err := listSegments(dir)
	if err != nil || len(segs) < 5 {
		t.Fatalf("segments %v, err %v: want five or more", segs, err)
	}
	data, err := os.ReadFile(segs[1].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(segs[1].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, s := range segs[2:] {
		data, err := os.ReadFile(s.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := checkMagic(data)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, _ := readRecords(body)
		past += len(recs)
	}
	recs, err := ReadTail(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rows = len(recs) - 1; rows < 1 || rows >= 30 || past == 0 {
		t.Fatalf("the tear left %d rows and %d records past it", rows, past)
	}
	return rows, past
}

// countRows opens dir, checks what it discarded and returns t's row count.
func countRows(t *testing.T, dir string, discarded int) int {
	t.Helper()
	mgr, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if got := mgr.Recovery().RecordsDiscarded; got != discarded {
		t.Errorf("recovery discarded %d records, want %d (%+v)", got, discarded, mgr.Recovery())
	}
	res, err := mgr.Engine().Exec(`SELECT COUNT(*) AS c FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	return int(res.Rows[0][0].Int())
}

// TestTornSegmentStaysDiscarded: a tear inside a non-final segment ends the
// log there. Recovery replays up to the tear and deletes the segments after
// it, so after one more write and a second crash the next recovery replays
// that write alone — not the records the first recovery discarded.
func TestTornSegmentStaysDiscarded(t *testing.T) {
	dir := t.TempDir()
	rows, past := tearMidLog(t, dir)
	mgr, err := Open(Options{Dir: dir, Sync: SyncOff}, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := mgr.Recovery().RecordsDiscarded; got != past {
		t.Errorf("recovery discarded %d records, want %d", got, past)
	}
	if _, err := mgr.Engine().Exec(`INSERT INTO t VALUES (100)`); err != nil {
		t.Fatal(err)
	}
	mgr.log.Close() // crash again
	mgr.Engine().Close()
	if got := countRows(t, dir, 0); got != rows+1 {
		t.Fatalf("recovered %d rows, want the %d before the tear and the one written since", got, rows+1)
	}
}

// TestKillAfterTornSegment is TestTornSegmentStaysDiscarded through the
// server: rfserverd recovers the torn log, acknowledges five INSERTs under
// -fsync always and is SIGKILLed; recovery then finds exactly the rows before
// the tear and the five.
func TestKillAfterTornSegment(t *testing.T) {
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
	rows, _ := tearMidLog(t, dataDir)

	srv := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-fsync", "always", "-checkpoint-every", "0")
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
	const written = 5
	for i := 1; i <= written; i++ {
		if _, err := c.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Process.Kill()
	srv.Wait()
	exited = true
	if got := countRows(t, dataDir, 0); got != rows+written {
		t.Fatalf("recovered %d rows, want the %d before the tear and the %d acknowledged since", got, rows, written)
	}
}
