package mview

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"rfview/internal/core"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
	"rfview/internal/txn"
)

// backingStore is the core.Store of one partition of a sequence view: the
// stored sequence is the partition's primary-key range of the backing
// table, the raw data the base table's rows of the partition, both read at
// tx's write view and written as pending versions of tx, in the view's
// value type T.
type backingStore[T core.Num] struct {
	m    *Manager
	tx   *txn.Txn
	sv   *seqView
	part sqltypes.Datum
	// rows are the backing rows the last Read returned, in position order:
	// the versions Write replaces. it is the pk walk every Read re-aims.
	rows []backingRow
	it   *storage.Iter
	// changes are a fold's changes, the at-th being applied. raw, once the
	// fold's first Raw read it, holds the raw data of the spans they may read
	// as the at-th change leaves it.
	changes []change[T]
	at      int
	raw     bands[T]
}

type backingRow struct {
	pos int
	id  storage.RowID
	row sqltypes.Row
}

// read finds the version Read returned for position p; the positions a
// sequence stores are contiguous.
func (s *backingStore[T]) read(p int) (backingRow, bool) {
	if len(s.rows) > 0 {
		if i := p - s.rows[0].pos; i >= 0 && i < len(s.rows) && s.rows[i].pos == p {
			return s.rows[i], true
		}
	}
	return backingRow{}, false
}

// Read walks the partition's pk range from position lo to hi.
func (s *backingStore[T]) Read(lo, hi int) ([]core.Cell[T], error) {
	t, lay := s.sv.mv.Table, s.sv.lay
	h := t.Heap.IndexOn(lay.pkOrds())
	if h == nil {
		return nil, fmt.Errorf("mview: backing table of %q lost its index", s.sv.mv.Name)
	}
	to := lay.partKey(s.part)
	if hi != math.MaxInt {
		to = lay.pkKey(s.part, hi)
	}
	var cells []core.Cell[T]
	s.rows = s.rows[:0]
	if hi != math.MaxInt {
		cells = make([]core.Cell[T], 0, hi-lo+1)
		s.rows = slices.Grow(s.rows, hi-lo+1)
	}
	posOrd, valOrd := lay.posOrd(), lay.valOrd()
	from, snap := lay.pkKey(s.part, lo), t.Heap.WriteView(s.tx)
	if s.it == nil {
		s.it = t.Heap.RangeIterAt(h, from, to, snap)
	} else {
		s.it.Seek(from, to, snap)
	}
	defer s.it.Close()
	id, row, err := s.it.Next()
	for ; row != nil; id, row, err = s.it.Next() {
		pos := int(row[posOrd].Int())
		s.rows = append(s.rows, backingRow{pos, id, row})
		cells = append(cells, core.Cell[T]{Pos: pos, Val: sqltypes.AsNum[T](row[valOrd])})
	}
	return cells, err
}

// Write rewrites positions lo…hi through the versions Read found, the
// rewritten ones as one update. An empty partition of a partitioned view
// stores nothing: its last row's delete removes every row, and its first
// row's insert creates them.
func (s *backingStore[T]) Write(lo, hi int, cells []core.Cell[T], n int) error {
	t, lay := s.sv.mv.Table, s.sv.lay
	if n == 0 && lay.keyed() {
		cells = nil
	}
	var ids []storage.RowID
	var rows []sqltypes.Row
	for p := lo; p <= hi; p++ {
		old, had := s.read(p)
		var err error
		switch {
		case len(cells) > 0 && cells[0].Pos == p:
			v := sqltypes.NewNum(cells[0].Val)
			cells = cells[1:]
			row := lay.row(nil, s.part, p, v, p >= 1 && p <= n)
			switch {
			case !had:
				_, err = t.Heap.InsertTx(s.tx, row)
			case n < 0: // the cardinality stayed: so does the body flag
				row = append(row[:0], old.row...)
				row[lay.valOrd()] = v
				fallthrough
			default:
				ids, rows = append(ids, old.id), append(rows, row)
			}
		case had:
			err = t.Heap.DeleteTx(s.tx, old.id)
		}
		if err != nil {
			return err
		}
	}
	if len(ids) == 0 {
		return nil
	}
	_, err := t.Heap.UpdateRowsTx(s.tx, ids, rows)
	return err
}

// longerThan reports whether the partition's sequence holds more than n
// raw values: whether it stores position n+1+l (n+1 when cumulative).
func (s *backingStore[T]) longerThan(n int) (bool, error) {
	p := n + 1
	if w := s.sv.mv.Window; !w.Cumulative {
		p += w.Preceding
	}
	cells, err := s.Read(p, p)
	return len(cells) > 0, err
}

// Raw reads x_lo … x_hi of the partition from the base table. In a fold
// the first read collects every span the fold's changes may read, so the
// base table is read once per view and commit; a read outside them (a
// NaN-poisoned sum runs to the partition's end) reads the base again.
func (s *backingStore[T]) Raw(lo, hi int) ([]T, error) {
	if s.raw == nil {
		s.raw = foldBands(s.sv, s.changes)
		if err := s.readRaw(s.raw); err != nil {
			return nil, err
		}
	}
	sp := s.raw.find(s.part, lo)
	if sp == nil || sp.hi < hi {
		// To the partition's end: a later shift moves every position
		// right of it.
		sp = &span[T]{part: s.part, lo: lo, hi: math.MaxInt}
		if err := s.readRaw(bands[T]{s.part.Key(): {sp}}); err != nil {
			return nil, err
		}
	}
	vals := make([]T, hi-lo+1)
	for j := range vals {
		v, rows := sp.at(lo + j)
		if rows != 1 {
			return nil, fmt.Errorf("mview: base table %q holds %d rows at position %d", s.sv.mv.BaseTable, rows, lo+j)
		}
		vals[j] = v
	}
	return vals, nil
}

// readRaw fills b from the base table, which holds every change of the
// fold already, and undoes those after the at-th.
func (s *backingStore[T]) readRaw(b bands[T]) error {
	if err := readBands(s.m, s.tx, s.sv, b); err != nil {
		return err
	}
	for j := len(s.changes) - 1; j > s.at; j-- {
		b.step(s.changes[j], true)
	}
	return nil
}

var _ core.Store[int64] = (*backingStore[int64])(nil)

// span is a band of one partition's raw positions and what a read of the
// base table found there: x_lo… and how many rows held each position.
type span[T core.Num] struct {
	part   sqltypes.Datum
	lo, hi int // hi is math.MaxInt for the rest of the partition, until read
	vals   []T
	rows   []int
}

func (sp *span[T]) at(p int) (v T, rows int) {
	if j := p - sp.lo; j < len(sp.vals) {
		return sp.vals[j], sp.rows[j]
	}
	return 0, 0
}

// add sets x_p to v and adds rows to the rows holding p.
func (sp *span[T]) add(p int, v T, rows int) {
	j := sp.grow(p)
	sp.vals[j] = v
	sp.rows[j] += rows
}

// grow extends the span's reads through position p and returns its index.
func (sp *span[T]) grow(p int) int {
	j := p - sp.lo
	for len(sp.vals) <= j {
		sp.vals, sp.rows = append(sp.vals, 0), append(sp.rows, 0)
	}
	return j
}

// splice inserts position p holding v in one row, moving the positions
// right of it up by one, or removes p, moving them down.
func (sp *span[T]) splice(p int, v T, insert bool) {
	j := sp.grow(p)
	if insert {
		sp.vals, sp.rows = slices.Insert(sp.vals, j, v), slices.Insert(sp.rows, j, 1)
	} else {
		sp.vals, sp.rows = slices.Delete(sp.vals, j, j+1), slices.Delete(sp.rows, j, j+1)
	}
}

// bands are disjoint spans: each partition's, ordered by lo, under the
// partition key's Key — so the keys SQL calls equal, -0.0 and +0.0 or two
// NaNs, name one partition, as they do for the view's primary key.
type bands[T core.Num] map[sqltypes.Datum][]*span[T]

// foldBands are the spans a fold's changes may read: the raw positions
// k−l−h−1 … k+l+h a band recompute around k reads — through the end of the
// partition for a shift, which recomputes its suffix — or a cumulative
// window's whole partition.
func foldBands[T core.Num](sv *seqView, changes []change[T]) bands[T] {
	w, b := sv.mv.Window, bands[T]{}
	for _, c := range changes {
		sp := &span[T]{part: c.part, lo: 1, hi: math.MaxInt}
		if r := w.Preceding + w.Following; !w.Cumulative {
			sp.lo = max(c.op.K-r-1, 1)
			if !c.op.Shift {
				sp.hi = c.op.K + r
			}
		}
		b[c.part.Key()] = append(b[c.part.Key()], sp)
	}
	for part, spans := range b {
		slices.SortFunc(spans, func(x, y *span[T]) int { return cmp.Compare(x.lo, y.lo) })
		merged := spans[:1]
		for _, sp := range spans[1:] {
			if last := merged[len(merged)-1]; sp.lo-1 <= last.hi {
				last.hi = max(last.hi, sp.hi)
			} else {
				merged = append(merged, sp)
			}
		}
		b[part] = merged
	}
	return b
}

// find returns the span of part holding position p, or nil.
func (b bands[T]) find(part sqltypes.Datum, p int) *span[T] {
	spans := b[part.Key()]
	i := sort.Search(len(spans), func(i int) bool { return spans[i].hi >= p })
	if i < len(spans) && spans[i].lo <= p {
		return spans[i]
	}
	return nil
}

// step applies change c to the raw data b holds, or undoes it. A shift
// splices position k in or out of the span that runs from k to the
// partition's end.
func (b bands[T]) step(c change[T], undo bool) {
	if sp := b.find(c.part, c.op.K); sp != nil {
		v, rows := c.op.New, [...]int{core.OpUpdate: 0, core.OpInsert: 1, core.OpDelete: -1}[c.op.Kind]
		if undo {
			v, rows = c.op.Old, -rows
		}
		if c.op.Shift {
			sp.splice(c.op.K, v, rows > 0)
			return
		}
		sp.add(c.op.K, v, rows)
	}
}

// readBands fills b's spans from the base table at tx's write view: one
// range walk per span through the base's index on (partition, position) when
// it has one, re-aiming one iterator, else one scan. No span runs past the
// table's version count, which bounds the positions of a dense partition.
func readBands[T core.Num](m *Manager, tx *txn.Txn, sv *seqView, b bands[T]) error {
	base, err := m.cat.Table(sv.mv.BaseTable)
	if err != nil {
		return err
	}
	pi, vi := base.ColumnIndex(sv.mv.PosColumn), base.ColumnIndex(sv.mv.ValColumn)
	gi, ok := sv.lay.partOrd(base.ColumnIndex)
	if pi < 0 || vi < 0 || !ok {
		return fmt.Errorf("mview: table %q lacks the view's position, value or partition column", base.Name)
	}
	snap, ords := base.Heap.WriteView(tx), []int{pi}
	if gi >= 0 {
		ords = []int{gi, pi}
	}
	h := base.Heap.IndexOn(ords)
	var keys [][2]sqltypes.Row // the spans' key ranges in h
	limit := base.Heap.Versions().Slots
	for _, spans := range b {
		for _, sp := range spans {
			if sp.hi = min(sp.hi, limit); h != nil {
				from, to := sv.lay.partKey(sp.part), sv.lay.partKey(sp.part)
				keys = append(keys, [2]sqltypes.Row{append(from, sqltypes.NewInt(int64(sp.lo))), append(to, sqltypes.NewInt(int64(sp.hi)))})
			}
		}
	}
	var it *storage.Iter
	switch {
	case h == nil:
		it = base.Heap.IterAt(snap)
	case len(keys) == 0:
		return nil
	default:
		it, keys = base.Heap.RangeIterAt(h, keys[0][0], keys[0][1], snap), keys[1:]
	}
	defer it.Close()
	for {
		_, row, err := it.Next()
		switch {
		case err != nil:
			return err
		case row == nil && len(keys) == 0:
			return nil
		case row == nil:
			it.Seek(keys[0][0], keys[0][1], snap)
			keys = keys[1:]
			continue
		}
		p, v := row[pi], row[vi]
		part, ok := sv.lay.partOf(row, gi)
		if p.IsNull() || p.Typ() != sqltypes.Int || !ok || v.IsNull() || !v.Typ().Numeric() {
			return fmt.Errorf("mview: sequence views need non-NULL INTEGER positions, non-NULL partition keys and numeric values")
		}
		if sp := b.find(part, int(p.Int())); sp != nil {
			sp.add(int(p.Int()), sqltypes.AsNum[T](v), 1)
		}
	}
}
