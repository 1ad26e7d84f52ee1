package exec

import (
	"context"
	"fmt"
	"io"

	"rfview/internal/expr"
	"rfview/internal/spill"
	"rfview/internal/sqltypes"
)

// NullsPlacement positions NULL keys within one ORDER BY key's order. The
// zero value (NullsAuto) keeps the engine default — NULLs first ascending,
// NULLs last descending — so existing SortKey literals are unaffected.
type NullsPlacement uint8

// Null placements.
const (
	NullsAuto NullsPlacement = iota
	NullsFirst
	NullsLast
)

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr  expr.Expr
	Desc  bool
	Nulls NullsPlacement
}

// nullsLast resolves the placement to its absolute position: true puts NULLs
// after every non-NULL value of the column regardless of direction.
func (k SortKey) nullsLast() bool {
	switch k.Nulls {
	case NullsFirst:
		return false
	case NullsLast:
		return true
	default:
		return k.Desc
	}
}

func (k SortKey) String() string {
	s := k.Expr.String()
	if k.Desc {
		s += " DESC"
	}
	switch k.Nulls {
	case NullsFirst:
		s += " NULLS FIRST"
	case NullsLast:
		s += " NULLS LAST"
	}
	return s
}

// Sort materializes its input and emits it ordered by the keys (ascending by
// default, NULLs first; stable). The keys are gathered into typed vectors and
// sorted as packed records or as byte strings, whichever their runtime types
// allow; see keys.go.
type Sort struct {
	Input Operator
	Keys  []SortKey
	// Ctx, when set, cancels the sort (input drain and external merge). nil
	// means context.Background().
	Ctx context.Context
	// Spill, when enabled, lets the sort go external: rows stream through a
	// budget-tracked spill.Sorter as (memcomparable key, encoded row) records
	// and come back from a merge of on-disk runs instead of one in-memory
	// permutation; see spill.go.
	Spill *spill.Config
	// SharedClass, when > 0, marks this sort as the shared ordering of a
	// window spec class (1-based class id): the Window operators stacked above
	// consume this order instead of sorting inside themselves. Surfaced by
	// EXPLAIN and counted in WinStats.
	SharedClass int
	// ResortFull marks a shared class sort that follows another window class
	// whose order it could not reuse — the "full re-sort" decision between
	// consecutive classes, surfaced by EXPLAIN as resort=full.
	ResortFull bool
	// WinStats, when set on a shared class sort, counts the execution in the
	// window-sort telemetry (SortsPerformed).
	WinStats *WindowStats
	// Order, when set on a shared class sort, receives the sorted stream's
	// adjacency metadata for the Window operators stacked above (see
	// ClassOrderMeta). Reset at every Open; filled only by an in-memory sort.
	Order *ClassOrderMeta

	rows []sqltypes.Row
	pos  int
	it   spill.Iterator // external path: streaming merge, nil otherwise
	// spillRuns / spillBytes record external activity, and path the ordering
	// the last Open took (ran: there was one), for EXPLAIN ANALYZE.
	spillRuns  int
	spillBytes int64
	path       sortPath
	ran        bool
}

// Schema implements Operator.
func (s *Sort) Schema() *expr.Schema { return s.Input.Schema() }

// ctx resolves the operator's context.
func (s *Sort) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// Open implements Operator.
func (s *Sort) Open() error {
	if s.SharedClass > 0 && s.WinStats != nil {
		s.WinStats.SortsPerformed.Add(1)
	}
	s.Order.reset()
	s.ran = false
	if spillEligible(s.Spill, s.Keys) {
		if err := s.openExternal(); err != nil {
			// The spill sorter surfaces cancellation as the context's own
			// error; map it onto the engine's coded surface like Next does.
			if cerr := ctxErr(s.ctx()); cerr != nil {
				return cerr
			}
			return err
		}
		return nil
	}
	rows, err := CollectCtx(s.ctx(), s.Input)
	if err != nil {
		return err
	}
	return s.sortRows(rows)
}

// sortRows orders rows in memory.
func (s *Sort) sortRows(rows []sqltypes.Row) error {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sc := getSortScratch()
	defer putSortScratch(sc)
	var err error
	s.path, err = sortRowsByKeys(rows, idx, s.Keys, sc, s.Order)
	if err != nil {
		return err
	}
	s.ran = true
	s.rows = make([]sqltypes.Row, len(rows))
	for i, j := range idx {
		s.rows[i] = rows[j]
	}
	s.pos = 0
	return nil
}

// openExternal streams the input through a spill.Sorter, each row as the
// memcomparable encoding of its keys (EncodeKeyNulls) with the whole encoded
// row as payload, and serves Next from the merge iterator: the sort holds no
// input row beyond what the sorter charges the budget. An input of no more
// rows than the sorter's minimum run is sorted in memory instead. A key
// column mixing types Compare cannot order fails as the in-memory sort does.
func (s *Sort) openExternal() error {
	var (
		sorter       *spill.Sorter
		held         []sqltypes.Row // the rows read before sorter started
		key, payload []byte
		first        = make([]sqltypes.Type, len(s.Keys)) // each key's first non-NULL type
	)
	add := func(row sqltypes.Row) error {
		key = key[:0]
		for i, k := range s.Keys {
			v, err := k.Expr.Eval(row)
			if err != nil {
				return err
			}
			if t := v.Typ(); first[i] == sqltypes.Null {
				first[i] = t
			} else if !sqltypes.Comparable(first[i], t) {
				return &sqltypes.ErrTypeMismatch{Op: "compare", Left: first[i], Right: t}
			}
			key = sqltypes.EncodeKeyNulls(key, v, k.Desc, k.nullsLast())
		}
		payload = sqltypes.EncodeRowData(payload[:0], row)
		return sorter.Add(key, payload)
	}
	err := Drain(s.ctx(), s.Input, func(row sqltypes.Row) error {
		if sorter != nil {
			return add(row)
		}
		if held = append(held, row); len(held) <= s.Spill.MinRun() {
			return nil
		}
		sorter = spill.NewSorter(s.ctx(), s.Spill)
		for _, r := range held {
			if err := add(r); err != nil {
				return err
			}
		}
		held = nil
		return nil
	})
	if err == nil && sorter == nil {
		return s.sortRows(held)
	}
	var it spill.Iterator
	if err == nil {
		it, err = sorter.Finish()
	}
	if err != nil {
		if sorter != nil {
			sorter.Close()
		}
		return err
	}
	s.it = it
	s.spillRuns = sorter.RunCount()
	s.spillBytes = sorter.SpillBytes()
	s.pos = 0
	return nil
}

// takeRows implements rowsHandoff for the in-memory path; an external merge
// streams from disk and has no buffer to surrender.
func (s *Sort) takeRows() []sqltypes.Row {
	if s.it != nil {
		return nil
	}
	rows := s.rows
	s.rows = nil
	return rows
}

// Next implements Operator.
func (s *Sort) Next() (sqltypes.Row, error) {
	if s.it != nil {
		_, payload, err := s.it.Next()
		if err == io.EOF {
			return nil, nil
		}
		if err != nil {
			if cerr := ctxErr(s.ctx()); cerr != nil {
				return nil, cerr
			}
			return nil, err
		}
		return sqltypes.DecodeRowData(payload)
	}
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.rows = nil
	if s.it != nil {
		it := s.it
		s.it = nil
		return it.Close()
	}
	return nil
}

// Describe implements Operator.
func (s *Sort) Describe() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.String()
	}
	sp := ""
	if s.ran {
		sp = " sort=" + s.path.String()
	}
	if s.spillRuns > 0 {
		sp += fmt.Sprintf(" spilled=true runs=%d spill_bytes=%d", s.spillRuns, s.spillBytes)
	}
	shared := ""
	if s.SharedClass > 0 {
		shared = fmt.Sprintf(" shared=win class=%d", s.SharedClass)
		if s.ResortFull {
			shared += " resort=full"
		}
	}
	return "Sort " + joinTrunc(parts, 6) + shared + sp
}

// Children implements Operator.
func (s *Sort) Children() []Operator { return []Operator{s.Input} }

// UnionAll concatenates its inputs (which must have equal arity).
type UnionAll struct {
	Inputs []Operator
	cur    int
	opened bool
}

// Schema implements Operator: the schema of the first input, with types
// widened where inputs disagree.
func (u *UnionAll) Schema() *expr.Schema { return u.Inputs[0].Schema() }

// Open implements Operator.
func (u *UnionAll) Open() error {
	u.cur = 0
	u.opened = false
	return nil
}

// Next implements Operator.
func (u *UnionAll) Next() (sqltypes.Row, error) {
	for u.cur < len(u.Inputs) {
		if !u.opened {
			if err := u.Inputs[u.cur].Open(); err != nil {
				return nil, err
			}
			u.opened = true
		}
		row, err := u.Inputs[u.cur].Next()
		if err != nil {
			return nil, err
		}
		if row != nil {
			return row, nil
		}
		if err := u.Inputs[u.cur].Close(); err != nil {
			return nil, err
		}
		u.cur++
		u.opened = false
	}
	return nil, nil
}

// Close implements Operator.
func (u *UnionAll) Close() error {
	if u.opened && u.cur < len(u.Inputs) {
		return u.Inputs[u.cur].Close()
	}
	return nil
}

// Describe implements Operator.
func (u *UnionAll) Describe() string { return fmt.Sprintf("UnionAll (%d inputs)", len(u.Inputs)) }

// Children implements Operator.
func (u *UnionAll) Children() []Operator { return u.Inputs }

// Distinct removes duplicate rows (hash-based; NULLs compare equal for
// distinctness, per SQL set semantics).
type Distinct struct {
	Input Operator
	seen  map[uint64][]sqltypes.Row
}

// Schema implements Operator.
func (d *Distinct) Schema() *expr.Schema { return d.Input.Schema() }

// Open implements Operator.
func (d *Distinct) Open() error {
	d.seen = make(map[uint64][]sqltypes.Row)
	return d.Input.Open()
}

// Next implements Operator.
func (d *Distinct) Next() (sqltypes.Row, error) {
	for {
		row, err := d.Input.Next()
		if err != nil || row == nil {
			return nil, err
		}
		h := hashRow(row)
		dup := false
		for _, prev := range d.seen[h] {
			if rowsEqual(prev, row) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		d.seen[h] = append(d.seen[h], row)
		return row, nil
	}
}

// Close implements Operator.
func (d *Distinct) Close() error {
	d.seen = nil
	return d.Input.Close()
}

// Describe implements Operator.
func (d *Distinct) Describe() string { return "Distinct" }

// Children implements Operator.
func (d *Distinct) Children() []Operator { return []Operator{d.Input} }

func hashRow(row sqltypes.Row) uint64 {
	h := uint64(1469598103934665603)
	for _, d := range row {
		h = h*1099511628211 ^ d.Hash()
	}
	return h
}

func rowsEqual(a, b sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sqltypes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
