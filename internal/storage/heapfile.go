package storage

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// HeapEnv is the slice of spill.Env the pager needs: a factory for scratch
// files that the environment sweeps at startup and removes at Close. Heap
// files are ephemeral — durability comes from the WAL and snapshots, which
// rebuild every table on recovery — so they live in the same temp namespace
// as spill runs.
type HeapEnv interface {
	CreateHeap(tag string) (*os.File, error)
}

// heapFile is one table's page file. Page IDs are dense from 0 and
// append-allocated; the file never shrinks, but the table heap reuses the pid
// of a page reclamation retired (tableHeap.reuse), so it grows with the live
// data, not with the updates. The file dies with the table's pager. The OS
// file is created lazily on the first real IO, so tables that never overflow
// the buffer pool never touch the disk.
type heapFile struct {
	pager *Pager
	tag   string

	nextPid atomic.Uint32 // next unallocated page id

	mu sync.Mutex // guards f creation and closing
	f  *os.File
}

// alloc reserves span consecutive page ids and returns the first. Pure
// counter arithmetic: the file itself grows only when a page is written.
func (h *heapFile) alloc(span int) uint32 {
	return h.nextPid.Add(uint32(span)) - uint32(span)
}

// ensure opens the backing OS file on first use.
func (h *heapFile) ensure() (*os.File, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.f != nil {
		return h.f, nil
	}
	f, err := h.pager.env.CreateHeap(h.tag)
	if err != nil {
		return nil, err
	}
	h.f = f
	return f, nil
}

// writePage writes buf at page pid. Because freshly-allocated pages are
// created resident and dirty in the pool, the first write to any pid comes
// through eviction or flush — WriteAt extends the file with a hole-free
// prefix is not required; pread of an unwritten pid cannot happen (see
// readPage's invariant).
func (h *heapFile) writePage(pid uint32, buf []byte) error {
	f, err := h.ensure()
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(buf, int64(pid)*int64(len(buf))); err != nil {
		return fmt.Errorf("storage: heap %s: write page %d: %w", h.tag, pid, err)
	}
	return nil
}

// readPage fills buf from page pid. Invariant: a page is only ever read
// after it has been evicted (written back) at least once — new pages are
// born resident in the pool and can only leave it via write-back — so a
// short read here is corruption, not a hole.
func (h *heapFile) readPage(pid uint32, buf []byte) error {
	h.mu.Lock()
	f := h.f
	h.mu.Unlock()
	if f == nil {
		return fmt.Errorf("storage: heap %s: read page %d before any write-back", h.tag, pid)
	}
	if _, err := f.ReadAt(buf, int64(pid)*int64(len(buf))); err != nil {
		return fmt.Errorf("storage: heap %s: read page %d: %w", h.tag, pid, err)
	}
	return nil
}

// close closes the OS file (the Env removes the path).
func (h *heapFile) close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.f == nil {
		return nil
	}
	err := h.f.Close()
	h.f = nil
	return err
}
