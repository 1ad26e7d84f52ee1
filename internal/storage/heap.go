package storage

import (
	"fmt"

	"rfview/internal/sqltypes"
)

// recLoc locates one encoded row in a table's heap file. span == 0 means a
// slotted record (page pid, slot index slot); span > 0 means a jumbo record
// of size encoded bytes spanning span raw (headerless) pages starting at
// pid — rows bigger than a page's record capacity get their own page run.
type recLoc struct {
	pid  uint32
	slot uint16
	span uint16
	size uint32
}

// tableHeap is one table's paged row storage: encoded rows appended to the
// pages of a heap file, cached through the shared buffer pool. A page whose
// records reclamation dropped or moved is retired: it waits in limbo until no
// reader can still hold a directory header pointing into it, then its pid is
// reused for a new fill page. All appends and retirements run under the
// owning table's write lock, which serializes access to every field.
type tableHeap struct {
	pager *Pager
	hf    *heapFile

	tail    int64 // pid of the current fill page; -1 before the first append
	scratch []byte

	// nrec counts the records ever appended to each slotted page, by pid:
	// the denominator of the page's fill.
	nrec  []uint16
	limbo []retired
	free  []uint32 // retired pids past their grace period, for new pages
}

// retired is a run of pages no current directory entry points into, waiting
// for the registered readers at or below epoch — the only ones that can hold
// an older directory — to finish.
type retired struct {
	pid   uint32
	span  int
	epoch uint64
}

func newTableHeap(p *Pager, tag string) (*tableHeap, error) {
	hf, err := p.newHeapFile(tag)
	if err != nil {
		return nil, err
	}
	return &tableHeap{pager: p, hf: hf, tail: -1}, nil
}

// append encodes row and writes it into the heap, returning its location.
// Caller holds the table's write lock.
func (h *tableHeap) append(row sqltypes.Row) (recLoc, error) {
	h.scratch = sqltypes.EncodeRowData(h.scratch[:0], row)
	return h.appendRecord(h.scratch)
}

// appendRecord writes an encoded record into the heap.
func (h *tableHeap) appendRecord(rec []byte) (recLoc, error) {
	ps := h.pager.pageSize
	if len(rec) > pageCap(ps) {
		return h.appendJumbo(rec)
	}
	pool := h.pager.pool
	if h.tail >= 0 {
		f, _, err := pool.pin(h.hf, uint32(h.tail))
		if err != nil {
			return recLoc{}, err
		}
		if slot, ok := pageAppend(f.buf, rec); ok {
			pool.unpin(f, true)
			h.nrec[h.tail]++
			return recLoc{pid: uint32(h.tail), slot: slot}, nil
		}
		pool.unpin(f, false)
	}
	pid := h.newPage()
	f, err := pool.create(h.hf, pid)
	if err != nil {
		return recLoc{}, err
	}
	initPage(f.buf)
	slot, ok := pageAppend(f.buf, rec)
	if !ok {
		pool.unpin(f, false)
		return recLoc{}, fmt.Errorf("storage: record of %d bytes does not fit an empty %d-byte page", len(rec), ps)
	}
	pool.unpin(f, true)
	h.tail = int64(pid)
	h.nrec[pid] = 1
	return recLoc{pid: pid, slot: slot}, nil
}

// newPage returns the pid for a new fill page: a retired one past its grace
// period, else a fresh one.
func (h *tableHeap) newPage() uint32 {
	if n := len(h.free); n > 0 {
		pid := h.free[n-1]
		h.free = h.free[:n-1]
		return pid
	}
	return h.alloc(1)
}

// alloc reserves span fresh pids, extending the record counts over them.
func (h *tableHeap) alloc(span int) uint32 {
	pid := h.hf.alloc(span)
	if need := int(pid) + span; need > len(h.nrec) {
		h.nrec = append(h.nrec, make([]uint16, need-len(h.nrec))...)
	}
	return pid
}

// move copies the record at a slotted loc to the fill page, returning its
// new location. The old record stays in place for readers of older
// directories.
func (h *tableHeap) move(loc recLoc) (recLoc, error) {
	pool := h.pager.pool
	f, _, err := pool.pin(h.hf, loc.pid)
	if err != nil {
		return recLoc{}, err
	}
	defer pool.unpin(f, false)
	rec, err := pageRecord(f.buf, loc.slot)
	if err != nil {
		return recLoc{}, err
	}
	return h.appendRecord(rec)
}

// retire puts a page run into limbo: readers registered at or below epoch
// may still read it.
func (h *tableHeap) retire(pid uint32, span int, epoch uint64) {
	h.limbo = append(h.limbo, retired{pid: pid, span: span, epoch: epoch})
}

// reuse frees the retired pages whose grace period is over — every reader
// registered when they were retired is gone, oldest being the oldest
// registered snapshot now — dropping their frames and offering their pids
// to new fill pages. Limbo is in retirement order, so it drains as a prefix.
func (h *tableHeap) reuse(oldest uint64) {
	n := 0
	for ; n < len(h.limbo) && h.limbo[n].epoch < oldest; n++ {
		r := h.limbo[n]
		for pid := r.pid; pid < r.pid+uint32(r.span); pid++ {
			if h.pager.pool.discard(h.hf, pid) {
				h.nrec[pid] = 0
				h.free = append(h.free, pid)
			}
		}
	}
	h.limbo = append(h.limbo[:0], h.limbo[n:]...)
}

// appendJumbo writes rec across a run of raw pages of its own. The tail
// fill page is untouched, so small-row appends keep packing it afterwards.
func (h *tableHeap) appendJumbo(rec []byte) (recLoc, error) {
	ps := h.pager.pageSize
	span := (len(rec) + ps - 1) / ps
	if span > 0xFFFF {
		return recLoc{}, fmt.Errorf("storage: row of %d bytes exceeds jumbo capacity", len(rec))
	}
	first := h.alloc(span)
	pool := h.pager.pool
	for i, off := 0, 0; i < span; i, off = i+1, off+ps {
		f, err := pool.create(h.hf, first+uint32(i))
		if err != nil {
			return recLoc{}, err
		}
		copy(f.buf, rec[off:min(len(rec), off+ps)])
		pool.unpin(f, true)
	}
	return recLoc{pid: first, span: uint16(span), size: uint32(len(rec))}, nil
}

// readJumbo reassembles the record of a jumbo loc from its page run.
func (h *tableHeap) readJumbo(loc recLoc) ([]byte, error) {
	pool, ps := h.pager.pool, h.pager.pageSize
	data := make([]byte, loc.size)
	for i, off := 0, 0; i < int(loc.span); i, off = i+1, off+ps {
		f, _, err := pool.pin(h.hf, loc.pid+uint32(i))
		if err != nil {
			return nil, err
		}
		copy(data[off:min(int(loc.size), off+ps)], f.buf)
		pool.unpin(f, false)
	}
	return data, nil
}

// read decodes the row at loc: a point read, as index probes make. It reads
// the page's cached columns when they reach the record and otherwise
// decodes just the record — a probe does not decode a page's worth of
// records it may never read again, which under a budget too small to cache
// them would be every probe.
func (h *tableHeap) read(loc recLoc) (sqltypes.Row, error) {
	if loc.span > 0 {
		rec, err := h.readJumbo(loc)
		if err != nil {
			return nil, err
		}
		return sqltypes.DecodeRowData(rec)
	}
	pool := h.pager.pool
	f, _, err := pool.pin(h.hf, loc.pid)
	if err != nil {
		return nil, err
	}
	defer pool.unpin(f, false)
	if pc := f.cols.Load(); pc != nil && int(loc.slot) < pc.n {
		return pc.row(int(loc.slot)), nil
	}
	rec, err := pageRecord(f.buf, loc.slot)
	if err != nil {
		return nil, err
	}
	return sqltypes.DecodeRowData(rec)
}
