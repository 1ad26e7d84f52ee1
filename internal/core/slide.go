package core

import (
	"cmp"
	"math"
)

// This file is the pipelined evaluation of §2.2, written once: every frame
// the system evaluates — a native window partition, a REFRESH, a §2.3 band
// recompute — slides through Sums or Extremes. A frame moves right one row
// at a time, so SUM and COUNT add the value that enters and remove the one
// that leaves, and MIN/MAX keep a monotonic deque of the rows that can still
// win; both are O(1) amortized per row, whatever the frame's size.

// First and Last are the unbounded ends of a Frame: the first and the last
// row of the data.
const (
	First = math.MinInt
	Last  = math.MaxInt
)

// Frame is a ROWS frame over rows 0…n−1 of the data: row i's frame holds rows
// i+Lo … i+Hi, clipped to the data, where Lo and Hi may also be First or
// Last. A sliding window (l, h) is {−l, h}, a cumulative one {First, 0}.
type Frame struct{ Lo, Hi int }

func edge(off, i, n int) int {
	switch off {
	case First:
		return 0
	case Last:
		return n - 1
	}
	return i + off
}

// frame is w as a Frame over the raw values, x_k at row k−1.
func (w Window) frame() Frame {
	if w.Cumulative {
		return Frame{First, 0}
	}
	return Frame{-w.Preceding, w.Following}
}

// Pass is one evaluation: the output rows From, From+1, … over N rows of
// data, each row's frame F. Nulls marks the NULL rows, row r by bit r%64 of
// word r/64 (words past its end hold none); nil when no row is NULL, as in
// a view.
type Pass struct {
	F     Frame
	N     int
	From  int
	Nulls []uint64
}

// frames resolves the frames of output rows From, From+1, …: an offset bound
// moves one row per row, First and Last stay put, and each frame is clipped
// to the data.
type frames struct{ lo, hi, dlo, dhi, n int }

func (p Pass) frames() frames {
	step := func(off int) int {
		if off == First || off == Last {
			return 0
		}
		return 1
	}
	return frames{edge(p.F.Lo, p.From, p.N), edge(p.F.Hi, p.From, p.N), step(p.F.Lo), step(p.F.Hi), p.N}
}

// at is output row From+j's frame.
func (f frames) at(j int) (lo, hi int) {
	return min(max(f.lo+j*f.dlo, 0), f.n), min(max(f.hi+j*f.dhi, -1), f.n-1)
}

func (p Pass) null(r int) bool {
	return p.Nulls != nil && r>>6 < len(p.Nulls) && p.Nulls[r>>6]&(1<<(uint(r)&63)) != 0
}

// nulls counts the NULL rows among a…b.
func (p Pass) nulls(a, b int) int64 {
	var k int64
	for r := a; r <= b; r++ {
		if p.null(r) {
			k++
		}
	}
	return k
}

// Sums slides SUM and COUNT: for output row From+j it writes the sum of the
// frame's values, accumulated in A, to sum[j] and the count of its non-NULL
// rows to cnt[j]; either output may be nil (vals too, when only counts are
// asked for). A NULL row holds 0 in vals, as sqltypes.ColVec keeps it.
// Values enter on the right before they leave on the left, and a frame that
// is empty or jumps clear of its predecessor starts again from zero; so a NaN
// or an infinity poisons the sum until then. seed, when not nil, is the sum
// of row From−1's frame: the pass resumes from it as if it had computed it,
// which is how a band recompute continues a stored sequence bit for bit.
func Sums[T, A int64 | float64](p Pass, vals []T, seed *A, sum []A, cnt []int64) {
	var s A
	curLo, curHi := 0, -1
	fr := p.frames()
	if seed != nil {
		if lo, hi := fr.at(-1); lo <= hi {
			s, curLo, curHi = *seed, lo, hi
		}
	}
	for j := range sum {
		lo, hi := fr.at(j)
		if lo > hi || lo > curHi+1 {
			s, curLo, curHi = 0, lo, lo-1
		}
		for curHi < hi {
			curHi++
			s += A(vals[curHi])
		}
		for ; curLo < lo; curLo++ {
			s -= A(vals[curLo])
		}
		sum[j] = s
	}
	// The count is the frame's size less the NULLs it holds, slid the same
	// way when there are any.
	var nulls int64 // in curLo…curHi
	curLo, curHi = 0, -1
	for j := range cnt {
		lo, hi := fr.at(j)
		if p.Nulls != nil {
			if lo > hi || lo > curHi+1 {
				nulls, curLo, curHi = 0, lo, lo-1
			}
			nulls += p.nulls(curHi+1, hi) - p.nulls(curLo, lo-1)
			curLo, curHi = max(curLo, lo), max(curHi, hi)
		}
		cnt[j] = int64(max(hi-lo+1, 0)) - nulls
	}
}

// Extremes slides MIN (isMin) or MAX with a monotonic deque: at[j] is the row
// holding the least (greatest) non-NULL value of output row From+j's frame
// under <, or −1 when the frame holds none. Equal values are one value here —
// the later row wins — so floats go through FloatKeys first. dq is the
// caller's deque scratch, returned for reuse.
func Extremes[T cmp.Ordered](p Pass, vals []T, isMin bool, at []int, dq []int) []int {
	dq, head := dq[:0], 0
	fr := p.frames()
	next, _ := fr.at(0) // the next row to admit
	for j := range at {
		lo, hi := fr.at(j)
		for ; next <= hi; next++ {
			if p.null(next) {
				continue
			}
			v := vals[next]
			for len(dq) > head {
				if b := vals[dq[len(dq)-1]]; isMin && v <= b || !isMin && v >= b {
					dq = dq[:len(dq)-1]
					continue
				}
				break
			}
			dq = append(dq, next)
		}
		for head < len(dq) && dq[head] < lo {
			head++
		}
		if 2*head >= len(dq) { // keep the deque's memory to the frame's rows
			dq, head = dq[:copy(dq, dq[head:])], 0
		}
		at[j] = -1
		if head < len(dq) {
			at[j] = dq[head]
		}
	}
	return dq
}

// FloatKeys writes the key of each value into dst, grown to len(vals), and
// returns it: an int64 whose order is the one MIN and MAX take over floats,
// sqltypes.Compare's except that −0 orders below +0, so equal keys are equal
// bits and a tie cannot change an answer. A NaN orders above every number:
// MIN passes over it, and MAX answers it.
func FloatKeys(dst []int64, vals []float64) []int64 {
	if cap(dst) < len(vals) {
		dst = make([]int64, len(vals))
	}
	dst = dst[:len(vals)]
	for i, f := range vals {
		dst[i] = FloatKey(f)
	}
	return dst
}

// FloatKey is one value's key in FloatKeys' order.
func FloatKey(f float64) int64 {
	if f != f {
		return math.MaxInt64
	}
	k := int64(math.Float64bits(f))
	if k < 0 {
		k ^= math.MaxInt64 // negative floats order backwards by their bits
	}
	return k
}

// key is v's key in the order MIN and MAX take: an int64's own value, a
// float64's FloatKey.
func key[T Num](v T) int64 {
	if f, ok := any(v).(float64); ok {
		return FloatKey(f)
	}
	return int64(v)
}

// wins reports whether a is at least as small (isMin) or as large as b in
// key's order.
func wins[T Num](a, b T, isMin bool) bool {
	ka, kb := key(a), key(b)
	return isMin && ka <= kb || !isMin && ka >= kb
}

// extreme is the MIN (isMin) or MAX of a and b in key's order.
func extreme[T Num](a, b T, isMin bool) T {
	if wins(b, a, isMin) {
		return b
	}
	return a
}

// evaluate writes positions from…from+len(out)−1 of agg's complete sequence
// for window w (SUM, MIN or MAX), over raw = x_first, x_first+1, …: a run of
// the raw values that holds every value those positions' windows read, and
// ends where the data ends if a window reaches past it. ok, when not nil,
// records which windows hold a value. seed resumes a SUM pass from the
// stored value at from−1 (see Sums).
func evaluate[T Num](raw []T, first int, w Window, agg Agg, seed *T, from int, out []T, ok []bool) {
	p := Pass{F: w.frame(), N: len(raw), From: from - first}
	if agg == Sum {
		Sums(p, raw, seed, out, nil)
		return
	}
	keys, isInt := any(raw).([]int64)
	if !isInt {
		keys = FloatKeys(nil, any(raw).([]float64))
	}
	at := make([]int, len(out))
	Extremes(p, keys, agg == Min, at, nil)
	for j, r := range at {
		if r >= 0 {
			out[j] = raw[r]
		}
		if ok != nil {
			ok[j] = r >= 0
		}
	}
}
