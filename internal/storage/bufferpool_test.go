package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// testHeapEnv hands out heap files in a test temp dir.
type testHeapEnv struct {
	dir     string
	seq     atomic.Int64
	created atomic.Int64
}

func (e *testHeapEnv) CreateHeap(tag string) (*os.File, error) {
	e.created.Add(1)
	name := filepath.Join(e.dir, fmt.Sprintf("heap-%d-%s.tmp", e.seq.Add(1), tag))
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
}

// testBudget is a MemBudget with a hard limit and a forced-overdraft counter.
type testBudget struct {
	mu     sync.Mutex
	limit  int64
	used   int64
	forced int64
}

func (b *testBudget) Charge(n int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.limit > 0 && b.used+n > b.limit {
		return false
	}
	b.used += n
	return true
}

func (b *testBudget) Force(n int64) {
	b.mu.Lock()
	b.used += n
	b.forced += n
	b.mu.Unlock()
}

func (b *testBudget) Release(n int64) {
	b.mu.Lock()
	b.used -= n
	b.mu.Unlock()
}

func (b *testBudget) snapshot() (used, forced int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used, b.forced
}

func newTestPager(t testing.TB, pageSize int, capBytes int64, budget MemBudget) *Pager {
	t.Helper()
	p := NewPager(PagerConfig{
		PageSize: pageSize,
		CapBytes: capBytes,
		Budget:   budget,
		Env:      &testHeapEnv{dir: t.TempDir()},
	})
	t.Cleanup(func() { p.Close() })
	return p
}

// fillPages creates n pages each holding one marker record and returns the
// expected record for each pid.
func fillPages(t *testing.T, p *Pager, hf *heapFile, n int) [][]byte {
	t.Helper()
	recs := make([][]byte, n)
	for i := 0; i < n; i++ {
		pid := hf.alloc(1)
		f, err := p.pool.create(hf, pid)
		if err != nil {
			t.Fatalf("create page %d: %v", pid, err)
		}
		initPage(f.buf)
		rec := []byte(fmt.Sprintf("page-%04d-marker", pid))
		if _, ok := pageAppend(f.buf, rec); !ok {
			t.Fatalf("append to fresh page %d failed", pid)
		}
		p.pool.unpin(f, true)
		recs[pid] = rec
	}
	return recs
}

// checkPages pins every page and verifies its marker record.
func checkPages(t *testing.T, p *Pager, hf *heapFile, recs [][]byte) {
	t.Helper()
	for pid, want := range recs {
		f, _, err := p.pool.pin(hf, uint32(pid))
		if err != nil {
			t.Fatalf("pin page %d: %v", pid, err)
		}
		got, err := pageRecord(f.buf, 0)
		if err != nil {
			t.Fatalf("page %d record: %v", pid, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d: got %q, want %q", pid, got, want)
		}
		p.pool.unpin(f, false)
	}
}

// TestPoolEvictWritebackReadback starves a 2-frame pool with 12 pages: every
// page must survive eviction, write-back, and reload byte-exact.
func TestPoolEvictWritebackReadback(t *testing.T) {
	p := newTestPager(t, MinPageSize, 2*MinPageSize, nil)
	hf, err := p.newHeapFile("t")
	if err != nil {
		t.Fatal(err)
	}
	recs := fillPages(t, p, hf, 12)
	checkPages(t, p, hf, recs)
	st := p.Stats()
	if st.Evictions == 0 || st.Writebacks == 0 || st.Misses == 0 {
		t.Fatalf("starved pool did no IO: %+v", st)
	}
	if st.BytesResident > 2*MinPageSize {
		t.Fatalf("pool grew past its cap: %d bytes resident", st.BytesResident)
	}
	// A second sweep over a hot subset must come from cache.
	pre := p.Stats().Hits
	for i := 0; i < 3; i++ {
		f, hit, err := p.pool.pin(hf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !hit {
			t.Fatal("re-pin of a just-pinned page missed")
		}
		p.pool.unpin(f, false)
	}
	if p.Stats().Hits <= pre {
		t.Fatal("hot re-pins did not count as hits")
	}
}

// TestPoolBudgetCharged runs the same starvation through a MemBudget and
// asserts the pool charges residency, stays within the limit without
// overdraft (nothing stays pinned), and releases everything at Close.
func TestPoolBudgetCharged(t *testing.T) {
	b := &testBudget{limit: 3 * MinPageSize}
	p := NewPager(PagerConfig{
		PageSize: MinPageSize,
		Budget:   b,
		Env:      &testHeapEnv{dir: t.TempDir()},
	})
	hf, err := p.newHeapFile("t")
	if err != nil {
		t.Fatal(err)
	}
	recs := fillPages(t, p, hf, 10)
	checkPages(t, p, hf, recs)
	used, forced := b.snapshot()
	if used == 0 || used > b.limit {
		t.Fatalf("budget used = %d, want within (0, %d]", used, b.limit)
	}
	if forced != 0 {
		t.Fatalf("unpinned workload forced %d bytes of overdraft", forced)
	}
	if used != p.Stats().BytesResident {
		t.Fatalf("budget used %d != bytes resident %d", used, p.Stats().BytesResident)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if used, _ := b.snapshot(); used != 0 {
		t.Fatalf("Close left %d bytes charged", used)
	}
}

// TestPoolAllPinnedForcesGrowth pins more pages than the cap allows: the
// pool must grow past the cap (forced overdraft) rather than deadlock.
func TestPoolAllPinnedForcesGrowth(t *testing.T) {
	b := &testBudget{limit: MinPageSize}
	p := NewPager(PagerConfig{
		PageSize: MinPageSize,
		CapBytes: MinPageSize,
		Budget:   b,
		Env:      &testHeapEnv{dir: t.TempDir()},
	})
	defer p.Close()
	hf, err := p.newHeapFile("t")
	if err != nil {
		t.Fatal(err)
	}
	var frames []*frame
	for i := 0; i < 3; i++ {
		f, err := p.pool.create(hf, hf.alloc(1))
		if err != nil {
			t.Fatalf("create %d with all frames pinned: %v", i, err)
		}
		initPage(f.buf)
		frames = append(frames, f) // stays pinned
	}
	if _, forced := b.snapshot(); forced == 0 {
		t.Fatal("growth past a fully-pinned cap did not force the budget")
	}
	for _, f := range frames {
		p.pool.unpin(f, false)
	}
}

// TestPoolFlushDirty checks FlushDirty writes every unpinned dirty page and
// that a flushed page reloads after eviction.
func TestPoolFlushDirty(t *testing.T) {
	p := newTestPager(t, MinPageSize, 0, nil)
	hf, err := p.newHeapFile("t")
	if err != nil {
		t.Fatal(err)
	}
	recs := fillPages(t, p, hf, 4)
	if st := p.Stats(); st.PagesDirty != 4 {
		t.Fatalf("PagesDirty = %d before flush", st.PagesDirty)
	}
	if err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.PagesDirty != 0 || st.Writebacks != 4 {
		t.Fatalf("after flush: dirty=%d writebacks=%d", st.PagesDirty, st.Writebacks)
	}
	checkPages(t, p, hf, recs)
}

// TestPoolConcurrentPins hammers a starved pool from many goroutines under
// the race detector: contents must stay byte-exact through concurrent
// pin/load/evict traffic.
func TestPoolConcurrentPins(t *testing.T) {
	p := newTestPager(t, MinPageSize, 4*MinPageSize, nil)
	hf, err := p.newHeapFile("t")
	if err != nil {
		t.Fatal(err)
	}
	recs := fillPages(t, p, hf, 32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pid := uint32((g*7 + i*13) % len(recs))
				f, _, err := p.pool.pin(hf, pid)
				if err != nil {
					t.Errorf("pin %d: %v", pid, err)
					return
				}
				got, err := pageRecord(f.buf, 0)
				if err != nil || !bytes.Equal(got, recs[pid]) {
					t.Errorf("page %d corrupt under concurrency (err=%v)", pid, err)
				}
				p.pool.unpin(f, false)
			}
		}(g)
	}
	wg.Wait()
}
