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

// tableHeap is one table's paged row storage: an append-only sequence of
// encoded rows in a heap file, cached through the shared buffer pool. All
// appends run under the owning table's write lock, which serializes tail
// and scratch access.
type tableHeap struct {
	pager *Pager
	hf    *heapFile

	tail    int64 // pid of the current fill page; -1 before the first append
	scratch []byte
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
	rec := h.scratch
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
			return recLoc{pid: uint32(h.tail), slot: slot}, nil
		}
		pool.unpin(f, false)
	}
	pid := h.hf.alloc(1)
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
	return recLoc{pid: pid, slot: slot}, nil
}

// appendJumbo writes rec across a run of raw pages of its own. The tail
// fill page is untouched, so small-row appends keep packing it afterwards.
func (h *tableHeap) appendJumbo(rec []byte) (recLoc, error) {
	ps := h.pager.pageSize
	span := (len(rec) + ps - 1) / ps
	if span > 0xFFFF {
		return recLoc{}, fmt.Errorf("storage: row of %d bytes exceeds jumbo capacity", len(rec))
	}
	first := h.hf.alloc(span)
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
