package spill

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// --------------------------------------------------------------------------
// Budget
// --------------------------------------------------------------------------

func TestBudgetChargeReleaseForce(t *testing.T) {
	b := NewBudget(100)
	if !b.Charge(60) {
		t.Fatal("first charge within limit refused")
	}
	if b.Charge(50) {
		t.Fatal("charge past the limit accepted")
	}
	if b.Used() != 60 {
		t.Fatalf("failed charge changed usage: %d", b.Used())
	}
	b.Force(50) // overdraft
	if b.Used() != 110 {
		t.Fatalf("Force not accounted: %d", b.Used())
	}
	b.Release(110)
	if b.Used() != 0 {
		t.Fatalf("usage after full release: %d", b.Used())
	}
	b.Release(10) // over-release clamps
	if b.Used() != 0 {
		t.Fatalf("over-release went negative: %d", b.Used())
	}
}

func TestBudgetNilAndUnlimited(t *testing.T) {
	var nilB *Budget
	if !nilB.Charge(1 << 40) {
		t.Fatal("nil budget refused a charge")
	}
	nilB.Force(1)
	nilB.Release(1)
	if nilB.Limit() != 0 || nilB.Used() != 0 {
		t.Fatal("nil budget reported nonzero state")
	}
	u := NewBudget(0)
	if !u.Charge(1 << 40) {
		t.Fatal("unlimited budget refused a charge")
	}
	if u.Used() != 1<<40 {
		t.Fatal("unlimited budget must still account usage")
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"0":      0,
		"123":    123,
		"64KiB":  64 << 10,
		"64kib":  64 << 10,
		"2MiB":   2 << 20,
		"1GiB":   1 << 30,
		"64K":    64 << 10,
		"2M":     2 << 20,
		"1G":     1 << 30,
		"5KB":    5000,
		"5MB":    5000000,
		"1GB":    1000000000,
		"100B":   100,
		" 7KiB ": 7 << 10,
	}
	for in, want := range cases {
		got, err := ParseBytes(in)
		if err != nil || got != want {
			t.Fatalf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "abc", "-5", "-1KiB", "1.5MiB"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Fatalf("ParseBytes(%q) did not fail", bad)
		}
	}
}

// --------------------------------------------------------------------------
// Run framing
// --------------------------------------------------------------------------

// writeRun appends one run of (key, payload) pairs to f at off.
func writeRun(t *testing.T, f *os.File, off int64, recs [][2]string) span {
	t.Helper()
	w := newRunWriter(f, off, 1<<20)
	for _, r := range recs {
		if err := w.append([]byte(r[0]), []byte(r[1])); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.finish()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// readRun drains one run's span, returning its records and the first error
// other than a clean end.
func readRun(f *os.File, run span) ([][2]string, error) {
	rr := newRunReader(f, run)
	var out [][2]string
	for {
		key, payload, err := rr.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, [2]string{string(key), string(payload)})
	}
}

// TestRunFramingRoundTrip appends two runs to one file and reads each back
// from its span alone.
func TestRunFramingRoundTrip(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "run-*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs := [][][2]string{{
		{"", ""}, // empty key and payload must frame (uvarint keylen keeps len >= 1)
		{"a", "payload-a"},
		{strings.Repeat("k", 3000), strings.Repeat("v", 70000)},
		{"\x00\x01\xff", "\x00"},
	}, {
		{"b", "second run"},
		{"c", strings.Repeat("w", 100)},
	}}
	var spans []span
	var off int64
	for _, recs := range runs {
		run := writeRun(t, f, off, recs)
		if run.off != off {
			t.Fatalf("run written at %d, want %d", run.off, off)
		}
		spans = append(spans, run)
		off += run.len
	}
	for i, run := range spans {
		got, err := readRun(f, run)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(got) != len(runs[i]) {
			t.Fatalf("run %d: %d records, want %d", i, len(got), len(runs[i]))
		}
		for j, want := range runs[i] {
			if got[j] != want {
				t.Fatalf("run %d record %d mismatch: key %d bytes, payload %d bytes", i, j, len(got[j][0]), len(got[j][1]))
			}
		}
	}
}

func TestRunReaderDetectsCorruption(t *testing.T) {
	build := func(corrupt func([]byte) []byte) error {
		f, err := os.CreateTemp(t.TempDir(), "run-*")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		run := writeRun(t, f, 0, [][2]string{{"key", "payload"}})
		data := make([]byte, run.len)
		if _, err := f.ReadAt(data, 0); err != nil {
			t.Fatal(err)
		}
		data = corrupt(data)
		if err := f.Truncate(0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		_, err = readRun(f, span{len: int64(len(data))})
		return err
	}
	if err := build(func(b []byte) []byte { return b }); err != nil {
		t.Fatalf("clean run read failed: %v", err)
	}
	if err := build(func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }); err == nil {
		t.Fatal("flipped payload byte not detected")
	} else if !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("want CRC error, got %v", err)
	}
	if err := build(func(b []byte) []byte { return b[:len(b)-3] }); err == nil {
		t.Fatal("truncated record not detected")
	}
	if err := build(func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[0:4], uint32(maxSpillRecordBytes+1))
		return b
	}); err == nil {
		t.Fatal("implausible length not detected")
	}
}

// TestRunCorruptionStaysInItsSpan flips a payload byte of the second of two
// runs sharing a file: that run's reader fails the CRC, the first run still
// reads back whole.
func TestRunCorruptionStaysInItsSpan(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "run-*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	first := [][2]string{{"a", "one"}, {"b", "two"}}
	r1 := writeRun(t, f, 0, first)
	r2 := writeRun(t, f, r1.len, [][2]string{{"c", "three"}})
	last := r2.off + r2.len - 1
	var b [1]byte
	if _, err := f.ReadAt(b[:], last); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], last); err != nil {
		t.Fatal(err)
	}
	if _, err := readRun(f, r2); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("second run: want CRC error, got %v", err)
	}
	got, err := readRun(f, r1)
	if err != nil {
		t.Fatalf("first run damaged by the second's corruption: %v", err)
	}
	if len(got) != len(first) || got[0] != first[0] || got[1] != first[1] {
		t.Fatalf("first run read back %q, want %q", got, first)
	}
}

// --------------------------------------------------------------------------
// Env hygiene
// --------------------------------------------------------------------------

func TestEnvSweepsStaleRunsOnce(t *testing.T) {
	dir := t.TempDir()
	// A dead process left orphans; unrelated files must survive.
	for _, n := range []string{"run-123-1.spill", "run-999-7.spill"} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("stale"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	keep := filepath.Join(dir, "wal-0001.seg")
	if err := os.WriteFile(keep, []byte("wal"), 0o600); err != nil {
		t.Fatal(err)
	}
	env := NewEnv(dir)
	n, err := env.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("swept %d stale runs, want 2", n)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("sweep removed an unrelated file: %v", err)
	}
	// New files created by this env must NOT be swept by later Dir calls.
	f, err := env.CreateRun()
	if err != nil {
		t.Fatal(err)
	}
	name := f.Name()
	f.Close()
	if _, err := env.Dir(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(name); err != nil {
		t.Fatalf("our own run file disappeared: %v", err)
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(name); !os.IsNotExist(err) {
		t.Fatal("Close left a run file behind")
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("Close removed an unrelated file: %v", err)
	}
}

func TestEnvPrivateDirRemovedOnClose(t *testing.T) {
	env := NewEnv("")
	f, err := env.CreateRun()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(f.Name())
	f.Close()
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("private spill dir survived Close")
	}
	if err := env.Close(); err != nil {
		t.Fatal("Close not idempotent")
	}
	if _, err := env.CreateRun(); err == nil {
		t.Fatal("CreateRun after Close succeeded")
	}
}

// TestKillMidSpillLeavesNoOrphans simulates a process dying mid-spill: runs
// are flushed and simply abandoned (no Close), as after a kill -9. The next
// owner of the directory must sweep them all.
func TestKillMidSpillLeavesNoOrphans(t *testing.T) {
	dir := t.TempDir()
	env := NewEnv(dir)
	cfg := &Config{Budget: NewBudget(256), Env: env, MinRunRows: 4}
	s := NewSorter(context.Background(), cfg)
	for i := 0; i < 200; i++ {
		if err := s.Add([]byte(fmt.Sprintf("key-%04d", i)), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	// No Finish, no Close: the "process" dies here.
	ents, _ := os.ReadDir(dir)
	orphans := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), runFilePrefix) {
			orphans++
		}
	}
	if orphans == 0 {
		t.Fatal("test setup: nothing spilled before the simulated kill")
	}
	// Recovery: a fresh env (new process) sweeps the directory.
	env2 := NewEnv(dir)
	n, err := env2.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if n != orphans {
		t.Fatalf("swept %d, want %d", n, orphans)
	}
	ents, _ = os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), runFilePrefix) {
			t.Fatalf("orphan survived recovery: %s", e.Name())
		}
	}
}

// TestKillWithHeapFilesLeavesNoOrphans simulates a SIGKILL'd server that had
// paged tables: heap files are created and abandoned without Close. The next
// owner of the directory must sweep them alongside stale run files, and must
// leave unrelated files alone.
func TestKillWithHeapFilesLeavesNoOrphans(t *testing.T) {
	dir := t.TempDir()
	env := NewEnv(dir)
	for i, tag := range []string{"seq", "orders", "weird/ta g!"} {
		f, err := env.CreateHeap(tag)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("pagedata"), int64(i)*8192); err != nil {
			t.Fatal(err)
		}
		f.Close() // file closed, never removed: the "process" dies here
	}
	if f, err := env.CreateRun(); err != nil {
		t.Fatal(err)
	} else {
		f.Close()
	}
	keep := filepath.Join(dir, "keep.db")
	if err := os.WriteFile(keep, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}

	env2 := NewEnv(dir)
	n, err := env2.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("swept %d files, want 3 heap + 1 run", n)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), heapFilePrefix) || strings.HasPrefix(e.Name(), runFilePrefix) {
			t.Fatalf("orphan survived recovery: %s", e.Name())
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("sweep removed an unrelated file: %v", err)
	}
}

// TestEnvCloseRemovesHeapFiles checks a clean shutdown leaves no heap files
// in a shared directory.
func TestEnvCloseRemovesHeapFiles(t *testing.T) {
	dir := t.TempDir()
	env := NewEnv(dir)
	f, err := env.CreateHeap("seq")
	if err != nil {
		t.Fatal(err)
	}
	name := f.Name()
	f.Close()
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(name); !os.IsNotExist(err) {
		t.Fatalf("heap file %s survived Close", name)
	}
	if _, err := env.CreateHeap("seq"); err == nil {
		t.Fatal("CreateHeap after Close succeeded")
	}
}

// --------------------------------------------------------------------------
// Sorter
// --------------------------------------------------------------------------

type testRec struct {
	key     []byte
	payload []byte
	seq     int // insertion order, to verify stability
}

// runSorter pushes recs through a Sorter and drains the iterator.
func runSorter(t *testing.T, cfg *Config, recs []testRec) []testRec {
	t.Helper()
	s := NewSorter(context.Background(), cfg)
	defer s.Close()
	for _, r := range recs {
		if err := s.Add(r.key, r.payload); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []testRec
	for {
		key, payload, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, testRec{key: append([]byte(nil), key...), payload: append([]byte(nil), payload...)})
	}
	return out
}

// refSort is the in-memory reference: stable sort by key bytes.
func refSort(recs []testRec) []testRec {
	out := append([]testRec(nil), recs...)
	sort.SliceStable(out, func(i, j int) bool { return bytes.Compare(out[i].key, out[j].key) < 0 })
	return out
}

// TestSorterMatchesInMemoryReference is the external-merge property test:
// random records under random budgets (including 0 = unlimited and huge)
// must come back byte-identical — keys, payloads, and tie order — to a
// stable in-memory sort.
func TestSorterMatchesInMemoryReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20020301))
	budgets := []int64{0, 1, 64, 512, 4 << 10, 1 << 30}
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(800)
		recs := make([]testRec, n)
		for i := range recs {
			// Few distinct keys → many ties → stability is actually exercised.
			// NULL-heavy orderings at the executor level produce the encoded
			// NULL tag 0x00; the empty and 0x00-prefixed keys here cover the
			// same byte shapes.
			keyLen := rng.Intn(12)
			key := make([]byte, keyLen)
			for j := range key {
				key[j] = byte(rng.Intn(4))
			}
			recs[i] = testRec{key: key, payload: binary.AppendUvarint(nil, uint64(i)), seq: i}
		}
		want := refSort(recs)
		budget := budgets[trial%len(budgets)]
		cfg := &Config{Budget: NewBudget(budget), Env: NewEnv(t.TempDir()), Stats: &Stats{}, MinRunRows: 8}
		got := runSorter(t, cfg, recs)
		if len(got) != len(want) {
			t.Fatalf("trial %d budget=%d: %d records out, want %d", trial, budget, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].key, want[i].key) || !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("trial %d budget=%d: record %d differs (key %x vs %x, payload %x vs %x)",
					trial, budget, i, got[i].key, want[i].key, got[i].payload, want[i].payload)
			}
		}
		if used := cfg.Budget.Used(); used != 0 {
			t.Fatalf("trial %d budget=%d: %d bytes still charged after Close", trial, budget, used)
		}
	}
}

// TestSorterMultiPassMerge forces more runs than MaxFanIn so intermediate
// merge passes execute, and verifies order, stability, and stats.
func TestSorterMultiPassMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 5000
	recs := make([]testRec, n)
	for i := range recs {
		key := []byte(fmt.Sprintf("%03d", rng.Intn(50)))
		recs[i] = testRec{key: key, payload: binary.AppendUvarint(nil, uint64(i)), seq: i}
	}
	stats := &Stats{}
	cfg := &Config{Budget: NewBudget(512), Env: NewEnv(t.TempDir()), Stats: stats, MinRunRows: 16, MaxFanIn: 3}
	got := runSorter(t, cfg, recs)
	want := refSort(recs)
	for i := range want {
		if !bytes.Equal(got[i].key, want[i].key) || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("record %d differs after multi-pass merge", i)
		}
	}
	if stats.Runs.Load() <= 3 {
		t.Fatalf("want many runs, got %d", stats.Runs.Load())
	}
	if stats.Merges.Load() < 2 {
		t.Fatalf("want intermediate merge passes, got %d merges", stats.Merges.Load())
	}
	if stats.Spills.Load() != 1 {
		t.Fatalf("one sorter spilled, Spills = %d", stats.Spills.Load())
	}
	if stats.RunBytes.Load() == 0 {
		t.Fatal("RunBytes not counted")
	}
}

// TestSorterCancelMidMerge cancels the context between Finish and the merge
// drain: Next must fail with the context error and Close must release every
// charge and remove every file.
func TestSorterCancelMidMerge(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	budget := NewBudget(512)
	cfg := &Config{Budget: budget, Env: NewEnv(dir), Stats: &Stats{}, MinRunRows: 8}
	s := NewSorter(ctx, cfg)
	for i := 0; i < 4000; i++ {
		if err := s.Add([]byte(fmt.Sprintf("k%05d", i)), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	var nexts int
	for {
		_, _, err = it.Next()
		if err != nil {
			break
		}
		nexts++
		if nexts > 100000 {
			t.Fatal("iterator never observed cancellation")
		}
	}
	if err == io.EOF {
		t.Fatal("merge drained to EOF despite cancelled context")
	}
	if ctx.Err() == nil || !strings.Contains(err.Error(), ctx.Err().Error()) {
		t.Fatalf("want context error, got %v", err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if used := budget.Used(); used != 0 {
		t.Fatalf("%d bytes still charged after cancel+close", used)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), runFilePrefix) {
			t.Fatalf("run file %s survived cancel+close", e.Name())
		}
	}
}

// TestSorterAbortReleasesEverything covers the abort path: Close without
// Finish frees the budget and the run files.
func TestSorterAbortReleasesEverything(t *testing.T) {
	dir := t.TempDir()
	budget := NewBudget(256)
	cfg := &Config{Budget: budget, Env: NewEnv(dir), MinRunRows: 4}
	s := NewSorter(context.Background(), cfg)
	for i := 0; i < 500; i++ {
		if err := s.Add([]byte{byte(i)}, []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Spilled() {
		t.Fatal("test setup: sorter did not spill")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if budget.Used() != 0 {
		t.Fatalf("%d bytes still charged after abort", budget.Used())
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), runFilePrefix) {
			t.Fatalf("run file %s survived abort", e.Name())
		}
	}
}

// runFiles lists the run files in dir.
func runFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), runFilePrefix) && strings.HasSuffix(e.Name(), runFileSuffix) {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestSorterOneFile holds forced multi-pass sorts to one run file per live
// Sorter, however many runs and merge outputs they write, and to none once
// the iterator or the Sorter is closed, or a merge is cancelled.
func TestSorterOneFile(t *testing.T) {
	dir := t.TempDir()
	env := NewEnv(dir)
	defer env.Close()
	newCfg := func() *Config {
		return &Config{Budget: NewBudget(256), Env: env, Stats: &Stats{}, MinRunRows: 4, MaxFanIn: 2}
	}
	fill := func(ctx context.Context, cfg *Config) *Sorter {
		s := NewSorter(ctx, cfg)
		for i := 0; i < 2000; i++ {
			if err := s.Add([]byte(fmt.Sprintf("k%03d", (i*37)%101)), []byte("payload")); err != nil {
				t.Fatal(err)
			}
		}
		if s.RunCount() < 8 {
			t.Fatalf("test setup: %d runs, want a multi-pass merge", s.RunCount())
		}
		return s
	}
	atMost := func(live int, when string) {
		t.Helper()
		if files := runFiles(t, dir); len(files) > live {
			t.Fatalf("%s: %d run files %v for %d live sorters", when, len(files), files, live)
		}
	}

	// Three live sorters: one drains to EOF, one aborts, one is cancelled.
	drained, aborted := fill(context.Background(), newCfg()), fill(context.Background(), newCfg())
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := fill(ctx, newCfg())
	atMost(3, "after Add")
	if n := len(runFiles(t, dir)); n != 3 {
		t.Fatalf("%d run files for three spilled sorters, want 3", n)
	}

	it, err := drained.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if drained.cfg.Stats.Merges.Load() == 0 {
		t.Fatal("test setup: no intermediate merge pass")
	}
	atMost(3, "after Finish")
	n := 0
	for ; ; n++ {
		if _, _, err := it.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if n != 2000 {
		t.Fatalf("drained %d records, want 2000", n)
	}
	it.Close()
	drained.Close()
	atMost(2, "after the iterator's Close")

	aborted.Close()
	atMost(1, "after the Sorter's Close")

	cancel()
	if _, err := cancelled.Finish(); err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("Finish under a cancelled context: want the context error, got %v", err)
	}
	cancelled.Close()
	atMost(0, "after a cancelled merge")
}

// TestMergeBuffersCharged checks that a merge's read and write buffers are
// on the budget while it runs and off it after Close, after cancellation
// and on the abort path.
func TestMergeBuffersCharged(t *testing.T) {
	var s *Sorter
	var passes int
	budget := NewBudget(256)
	cfg := &Config{Budget: budget, Env: NewEnv(t.TempDir()), MinRunRows: 4, MaxFanIn: 2}
	defer cfg.Env.Close()
	cfg.ObserveMerge = func(float64) {
		passes++
		if passes > 1 {
			return
		}
		// The first intermediate pass merges the first two initial runs.
		in := s.runs[:2]
		want := mergeBufferBytes(in) + int64(runBufferSize(in[0].len+in[1].len))
		if used := budget.Used(); used < want {
			t.Fatalf("budget during a merge pass: %d bytes used, buffers are %d", used, want)
		}
	}
	fill := func(ctx context.Context) *Sorter {
		s = NewSorter(ctx, cfg)
		for i := 0; i < 2000; i++ {
			if err := s.Add([]byte(fmt.Sprintf("k%04d", 1999-i)), []byte("payload")); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	zero := func(when string) {
		t.Helper()
		if used := budget.Used(); used != 0 {
			t.Fatalf("%s: %d bytes still charged", when, used)
		}
	}

	fill(context.Background())
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if passes == 0 {
		t.Fatal("test setup: no intermediate merge pass")
	}
	if bufs := mergeBufferBytes(it.(*mergeIter).runs); budget.Used() < bufs {
		t.Fatalf("budget during the final merge: %d bytes used, buffers are %d", budget.Used(), bufs)
	}
	it.Close()
	s.Close()
	zero("after Close")

	ctx, cancel := context.WithCancel(context.Background())
	fill(ctx)
	if it, err = s.Finish(); err != nil {
		t.Fatal(err)
	}
	cancel()
	for err == nil {
		_, _, err = it.Next()
	}
	if err == io.EOF {
		t.Fatal("merge drained to EOF despite cancelled context")
	}
	it.Close()
	s.Close()
	zero("after a cancelled final merge")

	ctx, cancel = context.WithCancel(context.Background())
	fill(ctx)
	cancel()
	if _, err := s.Finish(); err == nil {
		t.Fatal("Finish under a cancelled context succeeded")
	}
	s.Close()
	zero("after a cancelled intermediate merge")

	fill(context.Background()).Close()
	zero("after abort")
}
