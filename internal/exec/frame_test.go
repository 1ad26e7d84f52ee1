package exec

import (
	"testing"

	"rfview/internal/core"
	"rfview/internal/sqltypes"
)

// frameRows resolves row i's frame over n rows to lo…hi with 0 ≤ lo ≤ n and
// −1 ≤ hi ≤ n−1; lo > hi is an empty frame. It is the reference the
// differential tests walk frames by, written apart from the kernels.
func frameRows(f FrameSpec, i, n int) (lo, hi int) {
	edge := func(b FrameBound) int {
		switch b.Kind {
		case BoundUnboundedPreceding:
			return 0
		case BoundPreceding:
			return i - b.Offset
		case BoundCurrentRow:
			return i
		case BoundFollowing:
			return i + b.Offset
		default: // BoundUnboundedFollowing
			return n - 1
		}
	}
	return min(max(edge(f.Start), 0), n), min(max(edge(f.End), -1), n-1)
}

// TestFrameRowRange is the table-driven edge suite for frame clamping:
// negative effective offsets at partition boundaries, windows wider than the
// partition (h > n), empty frames, and the unbounded defaults. It pins
// frameRows and checks that the kernels' COUNT(*) sees each frame's size.
func TestFrameRowRange(t *testing.T) {
	pre := func(off int) FrameBound { return FrameBound{Kind: BoundPreceding, Offset: off} }
	fol := func(off int) FrameBound { return FrameBound{Kind: BoundFollowing, Offset: off} }
	cur := FrameBound{Kind: BoundCurrentRow}
	unbP := FrameBound{Kind: BoundUnboundedPreceding}
	unbF := FrameBound{Kind: BoundUnboundedFollowing}

	cases := []struct {
		name           string
		frame          FrameSpec
		i, n           int
		wantLo, wantHi int
	}{
		{"cumulative at first row", FrameSpec{unbP, cur}, 0, 5, 0, 0},
		{"cumulative at last row", FrameSpec{unbP, cur}, 4, 5, 0, 4},
		{"whole partition", FrameSpec{unbP, unbF}, 2, 5, 0, 4},
		{"sliding inside", FrameSpec{pre(1), fol(1)}, 2, 5, 1, 3},
		{"sliding clipped left", FrameSpec{pre(3), fol(1)}, 0, 5, 0, 1},
		{"sliding clipped right", FrameSpec{pre(1), fol(3)}, 4, 5, 3, 4},
		{"window wider than partition (h > n)", FrameSpec{pre(10), fol(10)}, 1, 3, 0, 2},
		{"offsets far past both ends", FrameSpec{pre(100), fol(100)}, 0, 2, 0, 1},
		{"empty frame ahead of data", FrameSpec{fol(5), fol(9)}, 3, 5, 5, 4}, // lo > hi: empty
		{"empty frame behind data", FrameSpec{pre(9), pre(5)}, 2, 5, 0, -1},  // hi clamps to -1
		{"frame entirely right of partition", FrameSpec{fol(10), fol(20)}, 4, 5, 5, 4},
		{"backward bounds give empty", FrameSpec{fol(2), pre(2)}, 2, 5, 4, 0},
		{"negative PRECEDING offset means FOLLOWING", FrameSpec{pre(-2), fol(3)}, 0, 10, 2, 3},
		{"negative FOLLOWING offset means PRECEDING", FrameSpec{pre(1), fol(-1)}, 3, 10, 2, 2},
		{"negative offsets at the left boundary", FrameSpec{pre(-1), fol(1)}, 0, 3, 1, 1},
		{"negative offsets at the right boundary", FrameSpec{pre(1), fol(-2)}, 2, 3, 1, 0},
		{"single-row partition", FrameSpec{pre(4), fol(4)}, 0, 1, 0, 0},
		{"current row only", FrameSpec{cur, cur}, 3, 7, 3, 3},
	}
	for _, c := range cases {
		lo, hi := frameRows(c.frame, c.i, c.n)
		if lo != c.wantLo || hi != c.wantHi {
			t.Errorf("%s: frameRows(i=%d, n=%d) = (%d, %d), want (%d, %d)",
				c.name, c.i, c.n, lo, hi, c.wantLo, c.wantHi)
		}
		cnt := make([]int64, 1)
		core.Sums[int64, int64](core.Pass{F: c.frame.frame(), N: c.n, From: c.i}, nil, nil, nil, cnt)
		if want := int64(max(hi-lo+1, 0)); cnt[0] != want {
			t.Errorf("%s: the kernel counts %d rows, want %d", c.name, cnt[0], want)
		}
		if lo < 0 || lo > c.n {
			t.Errorf("%s: lo=%d outside [0, n=%d]", c.name, lo, c.n)
		}
		if hi < -1 || hi > c.n-1 {
			t.Errorf("%s: hi=%d outside [-1, n-1=%d]", c.name, hi, c.n-1)
		}
	}
}

// TestFrameEmptyFrameSemantics: an empty frame yields NULL (COUNT: 0) for
// every aggregate, the MIN/MAX deque included, on every row of a partition
// whose frames all lie past its end.
func TestFrameEmptyFrameSemantics(t *testing.T) {
	var rows []sqltypes.Row
	for i, v := range []int64{10, 20, 30, 40} {
		rows = append(rows, intRow(1, int64(i+1), v))
	}
	empty := FrameSpec{
		Start: FrameBound{Kind: BoundFollowing, Offset: 7},
		End:   FrameBound{Kind: BoundFollowing, Offset: 9},
	}
	aggs := []string{"SUM", "AVG", "MIN", "MAX", "COUNT"}
	for _, row := range mustCollect(t, vecWindow(t, rows, empty, false, aggs...)) {
		for ai, agg := range aggs {
			if v := row[3+ai]; agg == "COUNT" && v.Int() != 0 || agg != "COUNT" && !v.IsNull() {
				t.Errorf("%s pos %s: empty frame gave %v, want NULL (COUNT 0)", agg, row[1], v)
			}
		}
	}
}
