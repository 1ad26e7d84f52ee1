package spill

import (
	"bytes"
	"container/heap"
	"fmt"
	"io"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"context"
)

// Defaults for Config knobs left zero.
const (
	// defaultMinRunRows is the floor below which a Sorter overdrafts the
	// budget instead of flushing: with a pathologically small limit (or a
	// busy shared budget) flushing one-record runs would turn the external
	// sort into one syscall per row. Config.minRunBytes is its floor in
	// bytes.
	defaultMinRunRows = 128
	// defaultMaxFanIn bounds how many runs one merge pass reads at once;
	// more runs than this triggers intermediate passes that merge batches
	// back into single runs.
	defaultMaxFanIn = 16
	// recOverhead approximates the per-record bookkeeping (offsets slice
	// entry, arena slack) charged on top of the key and payload bytes.
	recOverhead = 32
	// cancelCheckEvery is how many records pass between context checks in
	// Add and merge loops.
	cancelCheckEvery = 256
)

// Stats aggregates spill activity across every Sorter of one engine; the
// engine exposes the counters as rfview_spill_* metrics.
type Stats struct {
	// Runs counts initial runs flushed to disk (runs, not files).
	Runs atomic.Int64
	// RunBytes counts bytes written to run files (initial runs and
	// intermediate merge passes both count: it is real disk traffic).
	RunBytes atomic.Int64
	// Merges counts merge passes (intermediate and final).
	Merges atomic.Int64
	// MergeNanos accumulates wall time spent inside merge passes.
	MergeNanos atomic.Int64
	// Spills counts operators that spilled at least one run.
	Spills atomic.Int64
}

// Config carries everything a Sorter needs from its engine. The zero value
// (and a nil pointer) disable spilling entirely.
type Config struct {
	// Budget is the shared engine budget; a nil budget or one without a
	// limit means Add never trips and nothing is written to disk.
	Budget *Budget
	// Env owns the temp directory run files are created in.
	Env *Env
	// Stats receives counters; may be nil.
	Stats *Stats
	// ObserveMerge, when set, receives the wall-seconds of each merge pass
	// (the engine points it at the rfview_spill_merge_seconds histogram).
	ObserveMerge func(seconds float64)
	// MinRunRows overrides defaultMinRunRows when positive.
	MinRunRows int
	// MaxFanIn overrides defaultMaxFanIn when > 1.
	MaxFanIn int
}

// Enabled reports whether this configuration can actually spill: it needs a
// directory owner and a budget with a limit to trip.
func (c *Config) Enabled() bool {
	return c != nil && c.Env != nil && c.Budget.Limit() > 0
}

// MinRun is the smallest number of buffered records a Sorter flushes as a
// run: an input with no more rows than this is sorted in memory whatever the
// budget says, so callers with a cheaper in-memory sort skip the Sorter.
func (c *Config) MinRun() int {
	if c.MinRunRows > 0 {
		return c.MinRunRows
	}
	return defaultMinRunRows
}

// minRunBytes is the smallest run, in charged bytes, a Sorter flushes when
// the budget refuses it: a maxFanIn-th of the limit. The page cache grows
// into whatever a statement leaves of the budget and keeps it, so a sort
// that follows a scan is refused at its first record; runs sized by what is
// left would be MinRun records each, thousands of them for a large input,
// and every extra merge pass rewrites the whole input.
func (c *Config) minRunBytes() int64 { return c.Budget.Limit() / int64(c.maxFanIn()) }

func (c *Config) maxFanIn() int {
	if c.MaxFanIn > 1 {
		return c.MaxFanIn
	}
	return defaultMaxFanIn
}

func (c *Config) observeMerge(d time.Duration) {
	if c.Stats != nil {
		c.Stats.Merges.Add(1)
		c.Stats.MergeNanos.Add(int64(d))
	}
	if c.ObserveMerge != nil {
		c.ObserveMerge(d.Seconds())
	}
}

// recRef locates one record inside a Sorter's arena.
type recRef struct {
	off    int32
	keyLen int32
	len    int32
}

// Iterator streams (key, payload) records in stable key order. Next returns
// io.EOF after the last record; the returned slices are valid only until the
// following Next. Close releases budget and removes the run file and must
// be called even after an error.
type Iterator interface {
	Next() (key, payload []byte, err error)
	Close() error
}

// Sorter is a budget-tracked external merge sorter over (key, payload) byte
// pairs. Keys compare with bytes.Compare; records with equal keys come back
// in insertion order (the stable-sort contract the executor relies on).
//
// The lifecycle is Add* → Finish → iterate → Close the iterator; Close on
// the Sorter itself is an abort path that releases everything (safe to defer
// alongside a successful Finish — it becomes a no-op once the iterator owns
// the state).
// A spilling Sorter appends every run, initial and merged, to one run file
// created on its first flush, and keeps the runs' spans in memory.
type Sorter struct {
	ctx context.Context
	cfg *Config

	arena   []byte
	recs    []recRef
	charged int64
	adds    int

	file        *os.File // the run file, created by the first flush
	end         int64    // its length: where the next run is appended
	runs        []span   // the runs still to merge, in insertion order
	runsFlushed int64    // initial runs only (not intermediate merge outputs)
	runBytes    int64    // bytes in initial runs, for EXPLAIN annotations
	finished    bool
	closed      bool
}

// NewSorter returns a sorter charging cfg.Budget and spilling through
// cfg.Env. ctx is checked periodically during Add and merge; cancellation
// surfaces as ctx.Err() from the failing call.
func NewSorter(ctx context.Context, cfg *Config) *Sorter {
	if cfg == nil {
		cfg = &Config{}
	}
	return &Sorter{ctx: ctx, cfg: cfg}
}

// Spilled reports whether any run hit the disk.
func (s *Sorter) Spilled() bool { return s.runsFlushed > 0 }

// RunCount returns how many initial runs were flushed.
func (s *Sorter) RunCount() int { return int(s.runsFlushed) }

// SpillBytes returns bytes written to initial runs.
func (s *Sorter) SpillBytes() int64 { return s.runBytes }

// Add appends one record. The key and payload are copied; callers may reuse
// their buffers.
func (s *Sorter) Add(key, payload []byte) error {
	if s.finished || s.closed {
		return fmt.Errorf("spill: Add after Finish/Close")
	}
	s.adds++
	if s.adds%cancelCheckEvery == 0 {
		if err := s.ctx.Err(); err != nil {
			return err
		}
	}
	n := int64(len(key)+len(payload)) + recOverhead
	if !s.cfg.Budget.Charge(n) {
		if s.cfg.Enabled() && len(s.recs) >= s.cfg.MinRun() && s.charged >= s.cfg.minRunBytes() {
			if err := s.flushRun(); err != nil {
				return err
			}
		}
		// Either the run was just flushed (freeing our own charge) or the
		// record must be held regardless; overdraft rather than losing it.
		if !s.cfg.Budget.Charge(n) {
			s.cfg.Budget.Force(n)
		}
	}
	s.charged += n
	off := len(s.arena)
	s.arena = append(s.arena, key...)
	s.arena = append(s.arena, payload...)
	s.recs = append(s.recs, recRef{off: int32(off), keyLen: int32(len(key)), len: int32(len(key) + len(payload))})
	return nil
}

// sortRecs stable-sorts the in-memory records by key bytes.
func (s *Sorter) sortRecs() {
	arena := s.arena
	slices.SortStableFunc(s.recs, func(a, b recRef) int {
		return bytes.Compare(arena[a.off:a.off+a.keyLen], arena[b.off:b.off+b.keyLen])
	})
}

// flushRun sorts the buffered records, appends them to the run file as one
// run, and resets the in-memory state (releasing its budget charge). A failed
// write leaves the file to Close.
func (s *Sorter) flushRun() error {
	if len(s.recs) == 0 {
		return nil
	}
	s.sortRecs()
	if s.file == nil {
		f, err := s.cfg.Env.CreateRun()
		if err != nil {
			return err
		}
		s.file = f
	}
	// The frame of a record is at most 8 header bytes and a 5-byte key length.
	w := newRunWriter(s.file, s.end, int64(len(s.arena)+13*len(s.recs)))
	for _, r := range s.recs {
		rec := s.arena[r.off : r.off+r.len]
		if err := w.append(rec[:r.keyLen], rec[r.keyLen:]); err != nil {
			return err
		}
	}
	run, err := w.finish()
	if err != nil {
		return err
	}
	if s.cfg.Stats != nil {
		if !s.Spilled() {
			s.cfg.Stats.Spills.Add(1)
		}
		s.cfg.Stats.Runs.Add(1)
		s.cfg.Stats.RunBytes.Add(run.len)
	}
	s.runs = append(s.runs, run)
	s.end += run.len
	s.runsFlushed++
	s.runBytes += run.len
	s.cfg.Budget.Release(s.charged)
	s.charged = 0
	s.recs = s.recs[:0]
	s.arena = s.arena[:0]
	return nil
}

// Finish seals the sorter and returns the merged iterator. On success the
// iterator owns the budget charge and the run file; the Sorter's own Close
// becomes a no-op.
func (s *Sorter) Finish() (Iterator, error) {
	if s.finished || s.closed {
		return nil, fmt.Errorf("spill: Finish after Finish/Close")
	}
	if len(s.runs) == 0 {
		// Pure in-memory sort: nothing ever hit the disk.
		s.sortRecs()
		s.finished = true
		it := &memIter{budget: s.cfg.Budget, charged: s.charged, arena: s.arena, recs: s.recs}
		s.charged = 0
		return it, nil
	}
	if err := s.flushRun(); err != nil {
		return nil, err
	}
	s.finished = true
	// Intermediate passes keep the final fan-in bounded. Each pass merges
	// consecutive batches and keeps the outputs in batch order: run order is
	// insertion order, and the tie-break in the merge heap leans on it, so
	// reordering runs here would break the stable-sort contract. next reuses
	// the spans' array: an output's span lands only in slots of batches
	// already merged.
	fanIn := s.cfg.maxFanIn()
	for len(s.runs) > fanIn {
		next := s.runs[:0]
		for start := 0; start < len(s.runs); start += fanIn {
			batch := s.runs[start:min(start+fanIn, len(s.runs))]
			if len(batch) == 1 {
				next = append(next, batch[0])
				continue
			}
			merged, err := s.mergePass(batch)
			if err != nil {
				return nil, err // the Sorter's Close removes the file
			}
			next = append(next, merged)
		}
		s.runs = next
	}
	it := newMergeIter(s.ctx, s.cfg, s.file, s.runs)
	s.file, s.runs = nil, nil
	return it, nil
}

// mergePass merges a batch of runs into one new run appended to the file.
// Its read and write buffers are charged to the budget while it runs.
func (s *Sorter) mergePass(in []span) (span, error) {
	start := time.Now()
	var size int64
	for _, run := range in {
		size += run.len
	}
	bufs := mergeBufferBytes(in) + int64(runBufferSize(size))
	s.cfg.Budget.Force(bufs)
	defer s.cfg.Budget.Release(bufs)
	w := newRunWriter(s.file, s.end, size)
	m := &mergeIter{ctx: s.ctx, file: s.file, runs: in}
	for {
		key, payload, err := m.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = w.append(key, payload)
		}
		if err != nil {
			return span{}, err
		}
	}
	out, err := w.finish()
	if err != nil {
		return span{}, err
	}
	s.end += out.len
	if s.cfg.Stats != nil {
		// Intermediate output is real disk traffic but not a fresh spill run.
		s.cfg.Stats.RunBytes.Add(out.len)
	}
	s.cfg.observeMerge(time.Since(start))
	return out, nil
}

// mergeBufferBytes is the read buffering of one merge over runs.
func mergeBufferBytes(runs []span) int64 {
	var n int64
	for _, run := range runs {
		n += int64(runBufferSize(run.len))
	}
	return n
}

// Close aborts the sorter: budget released, run file removed. A no-op after
// a successful Finish (the iterator owns cleanup then).
func (s *Sorter) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.cfg.Budget.Release(s.charged)
	s.charged = 0
	s.arena = nil
	s.recs = nil
	s.runs = nil
	removeRunFile(s.file)
	s.file = nil
	return nil
}

// removeRunFile closes and unlinks a Sorter's run file, if it has one.
func removeRunFile(f *os.File) {
	if f == nil {
		return
	}
	f.Close()
	os.Remove(f.Name())
}

// memIter iterates the pure in-memory case.
type memIter struct {
	budget  *Budget
	charged int64
	arena   []byte
	recs    []recRef
	pos     int
}

func (m *memIter) Next() (key, payload []byte, err error) {
	if m.pos >= len(m.recs) {
		return nil, nil, io.EOF
	}
	r := m.recs[m.pos]
	m.pos++
	rec := m.arena[r.off : r.off+r.len]
	return rec[:r.keyLen], rec[r.keyLen:], nil
}

func (m *memIter) Close() error {
	m.budget.Release(m.charged)
	m.charged = 0
	m.arena = nil
	m.recs = nil
	m.pos = 0
	return nil
}

// cursor is one run's head inside the merge heap.
type cursor struct {
	r       *runReader
	idx     int // run index; ties break toward the earlier run (stability)
	key     []byte
	payload []byte
}

// mergeHeap orders cursors by (key bytes, run index).
type mergeHeap []*cursor

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if c := bytes.Compare(h[i].key, h[j].key); c != 0 {
		return c < 0
	}
	return h[i].idx < h[j].idx
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*cursor)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); c := old[n-1]; *h = old[:n-1]; return c }
func (h mergeHeap) peek() *cursor { return h[0] }

// buildHeap opens a cursor per run of f and heapifies.
func buildHeap(f *os.File, runs []span) (mergeHeap, error) {
	h := make(mergeHeap, 0, len(runs))
	for i, run := range runs {
		c := &cursor{r: newRunReader(f, run), idx: i}
		key, payload, err := c.r.next()
		if err == io.EOF {
			continue // empty run (shouldn't happen, but harmless)
		}
		if err != nil {
			return nil, err
		}
		c.key, c.payload = key, payload
		h = append(h, c)
	}
	heap.Init(&h)
	return h, nil
}

// advance moves the heap root to its run's next record (or drops the run at
// EOF) and restores heap order.
func (h *mergeHeap) advance() error {
	c := h.peek()
	key, payload, err := c.r.next()
	if err == io.EOF {
		heap.Pop(h)
		return nil
	}
	if err != nil {
		return err
	}
	c.key, c.payload = key, payload
	heap.Fix(h, 0)
	return nil
}

// mergeIter streams the merge of runs of one file. As a Sorter's final
// merge it owns the file and charges its read buffers to the budget until
// Close; an intermediate pass drives one without either.
type mergeIter struct {
	ctx    context.Context
	cfg    *Config
	file   *os.File
	runs   []span
	bufs   int64
	h      mergeHeap
	n      int
	start  time.Time
	closed bool
}

func newMergeIter(ctx context.Context, cfg *Config, f *os.File, runs []span) *mergeIter {
	bufs := mergeBufferBytes(runs)
	cfg.Budget.Force(bufs)
	return &mergeIter{ctx: ctx, cfg: cfg, file: f, runs: runs, bufs: bufs, start: time.Now()}
}

func (m *mergeIter) Next() (key, payload []byte, err error) {
	if m.closed {
		return nil, nil, fmt.Errorf("spill: iterator closed")
	}
	if m.h == nil {
		h, err := buildHeap(m.file, m.runs)
		if err != nil {
			return nil, nil, err
		}
		m.h = h
	} else if len(m.h) > 0 {
		// The previous record aliased the root reader's buffer; only now that
		// the caller is done with it may the reader advance.
		if err := m.h.advance(); err != nil {
			return nil, nil, err
		}
	}
	if len(m.h) == 0 {
		return nil, nil, io.EOF
	}
	m.n++
	if m.n%cancelCheckEvery == 0 {
		if err := m.ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	c := m.h.peek()
	return c.key, c.payload, nil
}

func (m *mergeIter) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	m.h = nil
	m.cfg.Budget.Release(m.bufs)
	removeRunFile(m.file)
	m.file = nil
	m.cfg.observeMerge(time.Since(m.start))
	return nil
}
