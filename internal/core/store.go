package core

import (
	"fmt"
	"math"
)

// This file states the incremental rules of §2.3 once, over a Store: one
// partition's stored complete sequence plus read access to its raw data. A
// change at raw position k touches only the band of stored positions whose
// window contains k (plus, for a positional insert or delete, the shifted
// suffix); Apply reads that band, computes its new values and writes them
// back. The slice-backed Maintainer and a view's backing table are the two
// stores.

// Cell is one stored position of a sequence: its position and value.
// Positions whose MIN/MAX window is empty are not stored.
type Cell[T Num] struct {
	Pos int
	Val T
}

// Store is one partition's complete sequence as the §2.3 rules read and
// write it.
type Store[T Num] interface {
	// Read returns the stored cells of positions lo…hi in position order; hi
	// may be math.MaxInt, for the rest of the sequence.
	Read(lo, hi int) ([]Cell[T], error)
	// Write makes positions lo…hi hold exactly cells (in position order,
	// inside lo…hi): a position the cells skip is no longer stored. n is the
	// raw cardinality after the change, or -1 when the change kept it.
	// Positions outside lo…hi keep their values.
	Write(lo, hi int, cells []Cell[T], n int) error
	// Raw returns the raw values x_lo … x_hi after the change, for
	// 1 ≤ lo ≤ hi ≤ n.
	Raw(lo, hi int) ([]T, error)
}

// OpKind names a §2.3 change.
type OpKind uint8

// The §2.3 changes.
const (
	OpUpdate OpKind = iota
	OpInsert
	OpDelete
)

// Op is one change to a partition's raw data at position K. Old is the value
// an update or delete removes, New the value an update or insert admits.
// Shift marks the positional insert or delete that renumbers every later
// position; without it an insert must append at n+1 and a delete remove
// position n, the changes that keep the positions of a table dense.
type Op[T Num] struct {
	Kind     OpKind
	K        int
	Old, New T
	Shift    bool
}

// finite reports whether v is neither a NaN nor an infinity: v − v is 0
// exactly then, and always for an int64.
func finite[T Num](v T) bool { return v-v == 0 }

// storedHi is the last stored position of a complete sequence over n raw
// values (storedRange's hi).
func storedHi(w Window, n int) int {
	_, hi := storedRange(w, n)
	return hi
}

// Apply folds op into the sequence st stores for window w and aggregate agg
// and returns the number of stored positions it rewrote. Values stay
// bit-identical to ComputePipelined over the changed raw data wherever the
// arithmetic is exact:
//
//   - SUM differences the band with the images alone, x̃'_i = x̃_i − x_k + x'_k
//     (an append adds x'_k, a suffix delete subtracts x_k), while every value
//     involved is finite. A NaN or Inf poisons the pipelined running sum from
//     its position on, so then the band and everything right of it are
//     recomputed from the raw data, the way a refresh's pipeline runs.
//   - MIN/MAX take x̃'_i = min(x̃_i, x'_k) (max) when the change can only widen
//     the extremum, in the one order MIN and MAX take (over floats FloatKeys':
//     a NaN is greatest, −0 is below +0, so a tie is equal bits); otherwise the band
//     is recomputed, still local, as the paper's footnote concedes.
//   - COUNT is a closed form of position and cardinality.
//
// An AVG view stores its SUM sequence, which a read divides by the window's
// counts: no sequence of quotients is maintained. A positional shift
// recomputes from the band to the end of the sequence.
func Apply[T Num](st Store[T], w Window, agg Agg, op Op[T]) (int, error) {
	if agg != Sum && agg != Count && agg != Min && agg != Max {
		return 0, fmt.Errorf("%v sequences are not maintained: maintain the SUM sequence and divide by Window.Count", agg)
	}
	l, h := w.reach()
	k := op.K
	lo := k - h // the first position whose window contains k
	// Read from lo−1, whose value seeds a recomputing pipeline, through the
	// band of a sliding update, else to the end of the sequence, which
	// tells n.
	var cells []Cell[T]
	n, exact := -1, false
	read := func(hi int) (err error) {
		if cells, err = st.Read(lo-1, hi); err != nil {
			return err
		}
		n, exact = cardinality(w, cells), true
		if len(cells) > 0 && hi != math.MaxInt && cells[len(cells)-1].Pos >= hi {
			// The sequence runs on: n ≥ hi−l is all the band's windows see.
			n, exact = hi-l, false
		}
		return nil
	}
	update := op.Kind == OpUpdate && !w.Cumulative
	end := math.MaxInt
	if update {
		end = k + l
	}
	if err := read(end); err != nil {
		return 0, err
	}
	if update {
		n, exact = -1, false
	}
	newN, err := checkOp(op, n)
	if err != nil {
		return 0, err
	}
	// to is the last position whose value the change can alter: the band's
	// end for a sliding update, else the end of the sequence.
	to := end
	if !update {
		to = storedHi(w, newN)
	}
	// learn gives a sliding update the n its recompute needs: to the end of
	// the sequence, or as far as the band's windows reach.
	learn := func(toEnd bool) error {
		if exact || !update {
			return nil
		}
		hi := k + 2*l + h
		if toEnd {
			hi = math.MaxInt
		}
		if err := read(hi); err != nil {
			return err
		}
		if toEnd {
			to = storedHi(w, n)
		}
		newN = n
		return nil
	}

	var out []Cell[T]
	switch {
	case agg == Count && op.Kind == OpUpdate:
		return 0, nil // COUNT is invariant under value updates
	case agg == Count || op.Shift:
		out, err = recompute(st.Raw, w, agg, cells, lo, to, newN)
	case agg == Sum:
		if !(finite(op.Old) && finite(op.New) && allFinite(cells)) {
			// A poisoned pipeline reruns to the end of the sequence.
			if err = learn(true); err == nil {
				out, err = recompute(st.Raw, w, agg, cells, lo, to, newN)
			}
			break
		}
		// An append adds x'_k (Old is 0), a suffix delete subtracts x_k
		// (New is 0); the new trailer position starts from 0.
		d := op.New - op.Old
		out = patch(w, cells, lo, to, func(v T, _ bool) T { return v + d })
	default: // Min, Max: every window of the band gains x'_k
		v, isMin := op.New, agg == Min
		if op.Kind == OpInsert || op.Kind == OpUpdate && wins(v, op.Old, isMin) {
			out = patch(w, cells, lo, to, func(cur T, ok bool) T {
				if !ok {
					return v
				}
				return extreme(cur, v, isMin)
			})
		} else if err = learn(false); err == nil {
			out, err = recompute(st.Raw, w, agg, cells, lo, to, newN)
		}
	}
	if err != nil {
		return 0, err
	}
	if w.Cumulative && op.Kind != OpUpdate && min(n, newN) == 0 {
		// The first value and the last one also write position 0, the empty
		// prefix: a store may keep no rows for an empty sequence.
		lo = 0
		if agg.Algebraic() {
			out = append([]Cell[T]{{0, 0}}, out...)
		}
	}
	hi := to
	if op.Kind == OpUpdate {
		newN = -1
	} else {
		hi = max(to, storedHi(w, n)) // a delete drops the old last position
	}
	if err := st.Write(lo, hi, out, newN); err != nil {
		return 0, err
	}
	return hi - lo + 1, nil
}

// cardinality reads n off the stored cells that run to the end of the
// sequence: the last stored position is n+l (n for a cumulative window). An
// empty read is n = 0 — the only sequence with no stored position right of
// a band start is an empty MIN/MAX one — which is also what a read starting
// past a shorter sequence's end yields, and checkOp then rejects.
func cardinality[T Num](w Window, cells []Cell[T]) int {
	if len(cells) == 0 {
		return 0
	}
	l, _ := w.reach()
	return cells[len(cells)-1].Pos - l
}

// checkOp validates op against the cardinality n (-1: unknown, an update)
// and returns the cardinality after it.
func checkOp[T Num](op Op[T], n int) (int, error) {
	k, grow := op.K, [...]int{OpUpdate: 0, OpInsert: 1, OpDelete: -1}[op.Kind]
	switch {
	case !op.Shift && op.Kind == OpInsert && k != n+1:
		return 0, fmt.Errorf("insert at position %d is not an append (n=%d)", k, n)
	case !op.Shift && op.Kind == OpDelete && k != n:
		return 0, fmt.Errorf("delete at position %d is not a suffix delete (n=%d)", k, n)
	case k < 1 || n >= 0 && k > n+max(grow, 0):
		return 0, fmt.Errorf("position %d out of range [1,%d]", k, n+max(grow, 0))
	}
	return n + grow, nil
}

func allFinite[T Num](cells []Cell[T]) bool {
	for _, c := range cells {
		if !finite(c.Val) {
			return false
		}
	}
	return true
}

// cellAt looks position p up in cells, which run without a gap from
// cells[0].Pos: a stored window is empty only at position 0 of a cumulative
// MIN/MAX sequence, or when n = 0. Right of the last cell a cumulative
// sequence stays at its grand total; a sliding one is empty there.
func cellAt[T Num](w Window, cells []Cell[T], p int) (T, bool) {
	if len(cells) == 0 {
		return 0, false
	}
	if i := p - cells[0].Pos; i >= 0 && i < len(cells) {
		return cells[i].Val, true
	}
	if last := cells[len(cells)-1]; w.Cumulative && p > last.Pos {
		return last.Val, true
	}
	return 0, false
}

// patch rewrites the stored value of every position lo…to through f,
// which also learns whether the position was stored.
func patch[T Num](w Window, cells []Cell[T], lo, to int, f func(v T, ok bool) T) []Cell[T] {
	out := make([]Cell[T], 0, to-lo+1)
	for i := lo; i <= to; i++ {
		out = append(out, Cell[T]{i, f(cellAt(w, cells, i))})
	}
	return out
}

// recompute evaluates positions from…to of the sequence over n raw values
// from the raw data rawAt reads (a Store's after the change), resuming at
// the stored predecessor from−1, which the change left alone: a SUM pass
// continues from its value, and a cumulative MIN/MAX folds it, the extremum
// of every raw value before from, into each output.
func recompute[T Num](rawAt func(lo, hi int) ([]T, error), w Window, agg Agg, cells []Cell[T], from, to, n int) ([]Cell[T], error) {
	if from > to {
		return nil, nil
	}
	out := make([]Cell[T], 0, to-from+1)
	if agg == Count { // a closed form: no raw value
		for k := from; k <= to; k++ {
			out = append(out, Cell[T]{k, T(w.Count(k, n))})
		}
		return out, nil
	}
	// The raw positions the pass reads, from the predecessor's window on,
	// clipped to [1, n].
	l, h := w.reach()
	rlo, rhi := max(from-l-1, 1), min(to+h, n)
	var raw []T
	if rlo <= rhi {
		var err error
		if raw, err = rawAt(rlo, rhi); err != nil {
			return nil, err
		}
	}
	// The pass runs slide.go's kernels over the raw run from rlo: a SUM pass
	// resumes from prev (see Sums), MIN and MAX slide over FloatKeys' order.
	prev, stored := cellAt(w, cells, from-1)
	p := Pass{F: w.frame(), N: len(raw), From: from - rlo}
	vals, at := make([]T, to-from+1), make([]int, to-from+1)
	if agg == Sum {
		Sums(p, raw, &prev, vals, nil)
	} else {
		keys, isInt := any(raw).([]int64)
		if !isInt {
			keys = FloatKeys(nil, any(raw).([]float64))
		}
		Extremes(p, keys, agg == Min, at, nil)
	}
	for j, v := range vals {
		ok := agg == Sum || at[j] >= 0
		if agg != Sum && ok {
			v = raw[at[j]]
		} else if agg != Sum {
			v = prev // an empty window: only a fold below stores it
		}
		if agg != Sum && w.Cumulative && stored { // fold prev into the output
			v, ok = extreme(prev, v, agg == Min), true
		}
		if ok {
			out = append(out, Cell[T]{from + j, v})
		}
	}
	return out, nil
}

// streamChunk is how many stored positions a Stream evaluates at a time.
const streamChunk = 4096

// Stream is the §2.2 pipeline over raw values that arrive in position order:
// Push hands it x_1, x_2, …, Close ends the data, and emit receives each
// stored cell, in position order, once no later value can change it. It runs
// recompute a chunk at a time, each resuming from the cell before it, so its
// values are bit for bit one pass's, in O(chunk + l + h) values of memory.
type Stream[T Num] struct {
	w        Window
	agg      Agg
	emit     func(Cell[T]) error
	chunk, n int
	next     int       // the first position not emitted yet
	raw      []T       // x_max(next−l−1, 1) … x_n: what the next chunk reads
	prev     []Cell[T] // the last cell emitted
}

// NewStream starts the stream of agg's complete sequence for window w: SUM,
// COUNT, MIN or MAX.
func NewStream[T Num](w Window, agg Agg, emit func(Cell[T]) error) *Stream[T] {
	lo, _ := storedRange(w, 0)
	return &Stream[T]{w: w, agg: agg, emit: emit, chunk: streamChunk, next: lo}
}

// Push appends x_{n+1}, and emits a chunk once that many positions have
// windows ending at or before it.
func (s *Stream[T]) Push(v T) error {
	s.raw, s.n = append(s.raw, v), s.n+1
	if _, h := s.w.reach(); s.n-h-s.next+1 >= s.chunk {
		return s.flush(s.n - h)
	}
	return nil
}

// Close ends the data and emits the rest of the sequence.
func (s *Stream[T]) Close() error { return s.flush(storedHi(s.w, s.n)) }

// flush emits positions next…to and drops the raw values the next chunk
// does not read.
func (s *Stream[T]) flush(to int) error {
	l, _ := s.w.reach()
	first := max(s.next-l-1, 1)
	rawAt := func(lo, hi int) ([]T, error) { return s.raw[lo-first : hi-first+1], nil }
	cells, err := recompute(rawAt, s.w, s.agg, s.prev, s.next, to, s.n)
	for i := 0; i < len(cells) && err == nil; i++ {
		err = s.emit(cells[i])
	}
	if len(cells) > 0 {
		s.prev = cells[len(cells)-1:]
	}
	s.next = to + 1
	s.raw = s.raw[max(s.next-l-1, 1)-first:]
	return err
}
