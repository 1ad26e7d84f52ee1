package wal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"rfview/internal/engine"
	"rfview/internal/sqltypes"
)

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{LSN: 1, SQL: "CREATE TABLE t (a INTEGER)"},
		{LSN: 2, SQL: "INSERT INTO t VALUES (1)"},
		{LSN: 3, SQL: ""},
		{LSN: 1 << 60, SQL: "UPDATE t SET a = 2 WHERE a = 1 -- ünïcode ≤≥"},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	got, n, ok := readRecords(buf)
	if !ok || n != len(buf) {
		t.Fatalf("clean log read reported tear at %d (len %d, ok=%v)", n, len(buf), ok)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v want %+v", i, got[i], recs[i])
		}
	}
}

// FuzzReadRecords: readRecords never panics; the good prefix it reports is
// within the data, the whole data exactly when ok; and re-encoding the
// records it returns reproduces that prefix byte for byte.
func FuzzReadRecords(f *testing.F) {
	var log []byte
	for _, r := range []Record{{LSN: 1, SQL: "CREATE TABLE t (a INTEGER)"}, {LSN: 2, SQL: ""}, {LSN: 1 << 60, SQL: "INSERT INTO t VALUES (1)"}} {
		log = appendRecord(log, r)
	}
	f.Add(log)
	f.Add(log[:len(log)-3])
	corrupt := append([]byte(nil), log...)
	corrupt[20] ^= 0xFF
	f.Add(corrupt)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodLen, ok := readRecords(data)
		if goodLen < 0 || goodLen > len(data) || ok != (goodLen == len(data)) {
			t.Fatalf("goodLen %d, ok %v over %d bytes", goodLen, ok, len(data))
		}
		var again []byte
		for _, r := range recs {
			again = appendRecord(again, r)
		}
		if !bytes.Equal(again, data[:goodLen]) {
			t.Fatalf("re-encoding %d records gives %d bytes, not the %d-byte good prefix", len(recs), len(again), goodLen)
		}
	})
}

func TestTornTailRules(t *testing.T) {
	var buf []byte
	buf = appendRecord(buf, Record{LSN: 1, SQL: "INSERT INTO t VALUES (1)"})
	one := len(buf)
	buf = appendRecord(buf, Record{LSN: 2, SQL: "INSERT INTO t VALUES (2)"})

	t.Run("torn header", func(t *testing.T) {
		recs, n, ok := readRecords(buf[:one+4])
		if ok || n != one || len(recs) != 1 {
			t.Fatalf("recs=%d n=%d ok=%v, want 1 record truncated at %d", len(recs), n, ok, one)
		}
	})
	t.Run("torn payload", func(t *testing.T) {
		recs, n, ok := readRecords(buf[:len(buf)-3])
		if ok || n != one || len(recs) != 1 {
			t.Fatalf("recs=%d n=%d ok=%v, want 1 record truncated at %d", len(recs), n, ok, one)
		}
	})
	t.Run("bad crc", func(t *testing.T) {
		corrupt := append([]byte(nil), buf...)
		corrupt[len(corrupt)-1] ^= 0xFF
		recs, n, ok := readRecords(corrupt)
		if ok || n != one || len(recs) != 1 {
			t.Fatalf("recs=%d n=%d ok=%v, want 1 record truncated at %d", len(recs), n, ok, one)
		}
	})
	t.Run("bad crc mid-log stops replay there", func(t *testing.T) {
		corrupt := append([]byte(nil), buf...)
		corrupt[one+9] ^= 0xFF // inside record 2's payload
		more := appendRecord(corrupt, Record{LSN: 3, SQL: "INSERT INTO t VALUES (3)"})
		recs, n, ok := readRecords(more)
		if ok || n != one || len(recs) != 1 {
			t.Fatalf("recs=%d n=%d ok=%v; a record after a tear must not be trusted", len(recs), n, ok)
		}
	})
	t.Run("implausible length", func(t *testing.T) {
		corrupt := append([]byte(nil), buf...)
		corrupt[one] = 0xFF
		corrupt[one+1] = 0xFF
		corrupt[one+2] = 0xFF
		corrupt[one+3] = 0x7F
		recs, n, ok := readRecords(corrupt)
		if ok || n != one || len(recs) != 1 {
			t.Fatalf("recs=%d n=%d ok=%v, want stop at %d", len(recs), n, ok, one)
		}
	})
}

func TestLogRotationAndReadTail(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, 1, SyncOff, 256, 0) // tiny segments force rotation
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := l.Append("INSERT INTO t VALUES (0123456789)"); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	recs, err := ReadTail(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("ReadTail returned %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, i+1)
		}
	}
	// The afterLSN filter skips covered records.
	recs, err = ReadTail(dir, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n-25 || recs[0].LSN != 26 {
		t.Fatalf("ReadTail(25) returned %d records starting at %d", len(recs), recs[0].LSN)
	}
}

func TestLogTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, 1, SyncOff, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append("INSERT INTO t VALUES (0123456789)"); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Truncate(l.LastLSN()); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTail(dir, l.LastLSN())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("truncated log still replays %d records", len(recs))
	}
	// Appends after truncation land in the fresh segment with monotone LSNs.
	lsn, err := l.Append("INSERT INTO t VALUES (21)")
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 21 {
		t.Fatalf("post-truncate LSN = %d, want 21", lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err = ReadTail(dir, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].SQL != "INSERT INTO t VALUES (21)" {
		t.Fatalf("post-truncate tail = %+v", recs)
	}
}

// TestSnapshotRoundTripAndFallback: a snapshot's rows come back bit for bit
// — NaN payloads, −0.0, ±Inf, ±2⁶³, an empty VARCHAR beside NULL — and a
// corrupt newest snapshot falls back to its predecessor.
func TestSnapshotRoundTripAndFallback(t *testing.T) {
	dir := t.TempDir()
	rows := []sqltypes.Row{
		{sqltypes.NewInt(42), sqltypes.NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef)), sqltypes.NewString("")},
		{sqltypes.NewInt(math.MinInt64), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NullDatum},
		{sqltypes.NewInt(math.MaxInt64), sqltypes.NewFloat(math.Inf(-1)), sqltypes.NewString("x")},
		{sqltypes.NullDatum, sqltypes.NewFloat(0x1p63), sqltypes.NewString("")},
		{sqltypes.NewInt(0), sqltypes.NewFloat(-0x1p63), sqltypes.NullDatum},
		{sqltypes.NewInt(1), sqltypes.NewFloat(math.Inf(1)), sqltypes.NewString("")},
	}
	snapA := &Snapshot{LSN: 5, Tables: []SnapTable{{
		Name:    "t",
		Columns: []SnapColumn{{Name: "a", Type: uint8(sqltypes.Int)}, {Name: "b", Type: uint8(sqltypes.Float)}, {Name: "c", Type: uint8(sqltypes.String)}},
		Rows:    sqltypes.EncodeRows(nil, rows...),
	}}}
	if err := writeSnapshot(dir, snapA); err != nil {
		t.Fatal(err)
	}
	snapB := &Snapshot{LSN: 9}
	if err := writeSnapshot(dir, snapB); err != nil {
		t.Fatal(err)
	}
	got, path, err := loadNewestSnapshot(dir)
	if err != nil || got == nil || got.LSN != 9 {
		t.Fatalf("newest snapshot: %+v (%s), err %v", got, path, err)
	}
	// Corrupt the newest: recovery must degrade to the older snapshot, not
	// refuse to start.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err = loadNewestSnapshot(dir)
	if err != nil || got == nil || got.LSN != 5 || len(got.Tables) != 1 {
		t.Fatalf("fallback snapshot: %+v, err %v", got, err)
	}
	back, err := sqltypes.DecodeRows(got.Tables[0].Rows)
	if err != nil || len(back) != len(rows) {
		t.Fatalf("fallback snapshot rows: %d of %d, err %v", len(back), len(rows), err)
	}
	for i := range rows {
		if !bytes.Equal(sqltypes.EncodeRowData(nil, back[i]), sqltypes.EncodeRowData(nil, rows[i])) {
			t.Fatalf("row %d came back %v, want %v", i, back[i], rows[i])
		}
	}
	// Restored into an engine, the rows read back just as bit-exactly.
	e := engine.New(engine.DefaultOptions())
	defer e.Close()
	if err := restoreState(e, got); err != nil {
		t.Fatal(err)
	}
	again, err := captureState(e, got.LSN)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Tables[0].Rows, got.Tables[0].Rows) {
		t.Fatal("restore then capture changed the table's rows")
	}
}

func TestPruneSnapshotsKeepsTwo(t *testing.T) {
	dir := t.TempDir()
	for lsn := uint64(1); lsn <= 5; lsn++ {
		if err := writeSnapshot(dir, &Snapshot{LSN: lsn}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-leftover.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := pruneSnapshots(dir); err != nil {
		t.Fatal(err)
	}
	paths, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("prune left %d snapshots, want 2: %v", len(paths), paths)
	}
	if _, err := os.Stat(filepath.Join(dir, "snap-leftover.tmp")); !os.IsNotExist(err) {
		t.Fatalf("leftover temp file survived prune")
	}
}

func TestSegmentMagicRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(segDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(segDir(dir), segName(1))
	if err := os.WriteFile(junk, bytes.Repeat([]byte("x"), 64), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTail(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("junk segment produced %d records", len(recs))
	}
}
