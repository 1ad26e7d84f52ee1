package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// MemBudget is the slice of spill.Budget the pool charges page residency
// against, so the server's one -mem-budget knob governs sort spill buffers
// and page cache together.
type MemBudget interface {
	Charge(n int64) bool
	Force(n int64)
	Release(n int64)
}

// pageKey identifies one page of one heap file.
type pageKey struct {
	hf  *heapFile
	pid uint32
}

// frame is one resident page. All fields are guarded by the pool mutex,
// except buf's contents, whose safety comes from the pin protocol: record
// bytes are immutable once their slot is published, appends touch only
// unpublished bytes under the owning table's write lock, and eviction
// requires pins == 0 — so no page buffer is ever written and read
// concurrently at the same offset.
type frame struct {
	key   pageKey
	buf   []byte
	pins  int
	ref   bool // clock second-chance bit
	dirty bool
	busy  chan struct{} // non-nil while a claimant reads the page from disk
	err   error         // load error, valid once busy is closed

	// cols is the page's records decoded once into typed columns (see
	// pageCols), so a warm read pays the rowcodec decode once per residency
	// instead of once per read. It is published with CompareAndSwap and is
	// immutable once published; it dies with the tenancy: the recycler drops
	// it and refunds its budget charge before the frame holds another page.
	// Accessed only while holding a pin.
	cols atomic.Pointer[pageCols]
}

// columns returns f's records 0…n-1 as typed columns, and how many of them
// it decoded: none when the frame's cached decode covers them, else those
// past the cached prefix, which a fresh decode extends and which becomes the
// cache when the budget accepts its charge. A refused charge or a lost
// publication race leaves the cache as it was and hands the caller its own
// decode — correctness never depends on the cache. The caller must hold a
// pin on f.
func (p *pool) columns(f *frame, n int) (*pageCols, int, error) {
	old := f.cols.Load()
	decoded := n
	if old != nil {
		if old.n >= n {
			return old, 0, nil
		}
		decoded -= old.n
	}
	pc, err := decodePageCols(f.buf, n, old)
	if err != nil {
		return nil, 0, err
	}
	if p.budget != nil && !p.budget.Charge(pc.bytes) {
		return pc, decoded, nil
	}
	refund := pc
	if f.cols.CompareAndSwap(old, pc) {
		refund = old
	}
	if refund != nil && p.budget != nil {
		p.budget.Release(refund.bytes)
	}
	return pc, decoded, nil
}

// dropColumns drops f's cached columns and refunds their budget charge.
// Called with no pin on f.
func (p *pool) dropColumns(f *frame) {
	if pc := f.cols.Swap(nil); pc != nil && p.budget != nil {
		p.budget.Release(pc.bytes)
	}
}

// PoolStats is a snapshot of buffer-pool state and counters.
type PoolStats struct {
	PageSize int `json:"page_size"`
	// BytesResident is the pool's total charged memory: frame bytes (free
	// frames included; they are still allocated) plus the cached page columns.
	BytesResident int64 `json:"bytes_resident"`
	// ColumnCacheBytes is the cached page columns' share of BytesResident.
	ColumnCacheBytes int64 `json:"column_cache_bytes"`
	PagesCached      int64 `json:"pages_cached"`
	PagesPinned      int64 `json:"pages_pinned"`
	PagesDirty       int64 `json:"pages_dirty"`
	Hits             int64 `json:"hits"`
	Misses           int64 `json:"misses"`
	Evictions        int64 `json:"evictions"`
	Writebacks       int64 `json:"writebacks"`
}

// HitRatio returns hits/(hits+misses), or 1 when the pool is untouched.
func (s PoolStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 1
	}
	return float64(s.Hits) / float64(total)
}

// pool is a pin-counted page cache with clock (second-chance) eviction.
//
// Growth policy: a pin that misses first reuses a free frame, then grows the
// pool if the hard cap allows it and the shared budget accepts the charge,
// then runs the clock to evict an unpinned resident page (writing it back if
// dirty). If every frame is pinned the pool grows anyway with a forced
// budget overdraft — a pin must always succeed or the executor deadlocks.
type pool struct {
	pageSize int
	capBytes int64 // hard cap on pool bytes; <=0 = budget-governed only
	budget   MemBudget

	mu     sync.Mutex
	table  map[pageKey]*frame
	frames []*frame // clock array: every frame ever allocated
	free   []*frame // frames not holding any page
	hand   int

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	writebacks atomic.Int64
}

func newPool(pageSize int, capBytes int64, budget MemBudget) *pool {
	return &pool{
		pageSize: pageSize,
		capBytes: capBytes,
		budget:   budget,
		table:    make(map[pageKey]*frame),
	}
}

func (p *pool) charge() bool {
	if p.budget == nil {
		return true
	}
	return p.budget.Charge(int64(p.pageSize))
}

// pin makes page pid of hf resident and pinned. hit reports whether the page
// was already cached (a waiter joining an in-flight load counts as a hit: it
// issued no IO of its own). The caller must unpin exactly once.
func (p *pool) pin(hf *heapFile, pid uint32) (f *frame, hit bool, err error) {
	key := pageKey{hf, pid}
	p.mu.Lock()
	if f := p.table[key]; f != nil {
		f.pins++
		f.ref = true
		busy := f.busy
		p.mu.Unlock()
		if busy != nil {
			<-busy
			if f.err != nil {
				err := f.err
				p.releaseFrame(f)
				return nil, false, err
			}
		}
		p.hits.Add(1)
		return f, true, nil
	}
	f, err = p.freeFrameLocked()
	if err != nil {
		p.mu.Unlock()
		return nil, false, err
	}
	ch := make(chan struct{})
	f.key = key
	f.pins = 1
	f.ref = true
	f.dirty = false
	f.err = nil
	f.busy = ch
	p.table[key] = f
	p.mu.Unlock()

	// Read IO happens outside the pool lock; waiters block on the busy
	// channel and hold pins, so the frame cannot be stolen meanwhile.
	loadErr := hf.readPage(pid, f.buf)
	p.mu.Lock()
	f.err = loadErr
	f.busy = nil
	if loadErr != nil {
		delete(p.table, key) // no new pins; holders drain via releaseFrame
	}
	close(ch)
	p.mu.Unlock()
	if loadErr != nil {
		p.releaseFrame(f)
		return nil, false, loadErr
	}
	p.misses.Add(1)
	return f, false, nil
}

// create makes a brand-new, zeroed, dirty, pinned frame for page pid. The
// page is born resident, which is the invariant that lets readPage treat a
// miss on disk as corruption: a page can only leave the pool via write-back.
func (p *pool) create(hf *heapFile, pid uint32) (*frame, error) {
	key := pageKey{hf, pid}
	p.mu.Lock()
	f, err := p.freeFrameLocked()
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	clear(f.buf)
	f.key = key
	f.pins = 1
	f.ref = true
	f.dirty = true
	f.err = nil
	f.busy = nil
	p.table[key] = f
	p.mu.Unlock()
	return f, nil
}

// unpin drops one pin; dirty marks the page as modified since last
// write-back.
func (p *pool) unpin(f *frame, dirty bool) {
	p.mu.Lock()
	if dirty {
		f.dirty = true
	}
	f.pins--
	p.mu.Unlock()
}

// discard drops page pid of hf from the pool without writing it back — its
// records are dead and the pid is about to hold a new page — and frees its
// frame. It reports false, keeping the page, while anyone holds a pin on it.
func (p *pool) discard(hf *heapFile, pid uint32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.table[pageKey{hf, pid}]
	if f == nil {
		return true
	}
	if f.pins > 0 || f.busy != nil {
		return false
	}
	delete(p.table, f.key)
	f.key, f.dirty, f.ref = pageKey{}, false, false
	p.dropColumns(f)
	p.free = append(p.free, f)
	return true
}

// releaseFrame drops a pin on a frame whose load failed; the last holder
// returns it to the free list.
func (p *pool) releaseFrame(f *frame) {
	p.mu.Lock()
	f.pins--
	if f.pins == 0 {
		f.dirty = false
		p.free = append(p.free, f)
	}
	p.mu.Unlock()
}

// freeFrameLocked returns a frame not holding any page, pulling from the
// free list, growing the pool, or evicting a victim. Called with p.mu held;
// dirty-victim write-back happens under the lock — a deliberate
// simplification that closes the stale-read race where another goroutine
// re-reads the victim's old page from disk before its write-back lands.
func (p *pool) freeFrameLocked() (*frame, error) {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		p.dropColumns(f)
		return f, nil
	}
	total := int64(len(p.frames)) * int64(p.pageSize)
	underCap := p.capBytes <= 0 || total+int64(p.pageSize) <= p.capBytes
	if underCap && p.charge() {
		f := &frame{buf: make([]byte, p.pageSize)}
		p.frames = append(p.frames, f)
		return f, nil
	}
	// Clock scan: two full sweeps give every unpinned frame one
	// second chance before it can be victimized.
	for scanned := 0; scanned < 2*len(p.frames); scanned++ {
		f := p.frames[p.hand]
		p.hand = (p.hand + 1) % len(p.frames)
		if f.pins > 0 || f.busy != nil {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		if f.dirty {
			if err := f.key.hf.writePage(f.key.pid, f.buf); err != nil {
				return nil, err
			}
			f.dirty = false
			p.writebacks.Add(1)
		}
		delete(p.table, f.key)
		p.evictions.Add(1)
		p.dropColumns(f)
		return f, nil
	}
	// Everything is pinned: grow anyway. Liveness beats the cap here —
	// refusing would deadlock the pinning statement.
	if p.budget != nil {
		p.budget.Force(int64(p.pageSize))
	}
	f := &frame{buf: make([]byte, p.pageSize)}
	p.frames = append(p.frames, f)
	return f, nil
}

// flushDirty writes back every dirty, unpinned, resident page. Pinned or
// in-flight frames are skipped — they stay dirty and flush later.
func (p *pool) flushDirty() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.frames {
		if f.dirty && f.pins == 0 && f.busy == nil {
			if err := f.key.hf.writePage(f.key.pid, f.buf); err != nil {
				return err
			}
			f.dirty = false
			p.writebacks.Add(1)
		}
	}
	return nil
}

func (p *pool) stats() PoolStats {
	p.mu.Lock()
	s := PoolStats{
		PageSize:      p.pageSize,
		BytesResident: int64(len(p.frames)) * int64(p.pageSize),
		PagesCached:   int64(len(p.table)),
	}
	for _, f := range p.frames {
		if f.pins > 0 {
			s.PagesPinned++
		}
		if f.dirty {
			s.PagesDirty++
		}
		if pc := f.cols.Load(); pc != nil {
			s.ColumnCacheBytes += pc.bytes
		}
	}
	s.BytesResident += s.ColumnCacheBytes
	p.mu.Unlock()
	s.Hits = p.hits.Load()
	s.Misses = p.misses.Load()
	s.Evictions = p.evictions.Load()
	s.Writebacks = p.writebacks.Load()
	return s
}

// close releases every frame's budget charge and drops all state.
func (p *pool) close() {
	p.mu.Lock()
	total := int64(len(p.frames)) * int64(p.pageSize)
	for _, f := range p.frames {
		p.dropColumns(f)
	}
	p.frames = nil
	p.free = nil
	p.table = make(map[pageKey]*frame)
	p.mu.Unlock()
	if p.budget != nil && total > 0 {
		p.budget.Release(total)
	}
}

// PagerConfig configures a Pager.
type PagerConfig struct {
	// PageSize in bytes; 0 means DefaultPageSize. Clamped to
	// [MinPageSize, MaxPageSize].
	PageSize int
	// CapBytes is a hard cap on buffer-pool residency (the test knob
	// RFVIEW_TEST_PAGE_CACHE); <= 0 means the shared budget alone governs
	// growth.
	CapBytes int64
	// Budget is the shared memory budget page residency is charged to.
	Budget MemBudget
	// Env creates heap files; required.
	Env HeapEnv
}

// Pager owns the buffer pool and the heap files of every paged table in one
// engine. Heap files are never removed individually — DropTable may race
// with lock-free readers still holding iterators — so files live until the
// pager closes and the Env sweeps them. That leak is bounded by the life of
// the process and by DDL frequency, and it keeps reads latch-free.
type Pager struct {
	pool     *pool
	env      HeapEnv
	pageSize int

	mu     sync.Mutex
	files  []*heapFile
	closed bool
}

// NewPager builds a pager. PageSize is defaulted and clamped.
func NewPager(cfg PagerConfig) *Pager {
	ps := cfg.PageSize
	if ps == 0 {
		ps = DefaultPageSize
	}
	if ps < MinPageSize {
		ps = MinPageSize
	}
	if ps > MaxPageSize {
		ps = MaxPageSize
	}
	return &Pager{
		pool:     newPool(ps, cfg.CapBytes, cfg.Budget),
		env:      cfg.Env,
		pageSize: ps,
	}
}

// PageSize returns the configured page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// Stats snapshots the buffer pool.
func (p *Pager) Stats() PoolStats { return p.pool.stats() }

// FlushDirty writes back all dirty unpinned pages (checkpoint hook).
func (p *Pager) FlushDirty() error { return p.pool.flushDirty() }

// newHeapFile registers a heap file for one table.
func (p *Pager) newHeapFile(tag string) (*heapFile, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("storage: pager closed")
	}
	hf := &heapFile{pager: p, tag: tag}
	p.files = append(p.files, hf)
	return hf, nil
}

// Close drops the pool and closes every heap file. The Env removes the
// files from disk.
func (p *Pager) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	files := p.files
	p.files = nil
	p.mu.Unlock()
	p.pool.close()
	var first error
	for _, hf := range files {
		if err := hf.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
