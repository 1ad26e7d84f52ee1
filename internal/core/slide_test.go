package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randBound draws a frame bound: an offset in −4…4 or an unbounded end.
func randBound(rng *rand.Rand) int {
	switch rng.Intn(8) {
	case 0:
		return First
	case 1:
		return Last
	}
	return rng.Intn(9) - 4
}

// explicitRows resolves row i's frame over n rows apart from the kernels: the
// reference their clipping is checked against. aggregate clips the
// result to the data.
func explicitRows(f Frame, i, n int) (lo, hi int) {
	at := func(off int) int {
		switch off {
		case First:
			return 0
		case Last:
			return n - 1
		}
		return i + off
	}
	return at(f.Lo), at(f.Hi)
}

// TestSlideMatchesNaive is the kernels' property test: over random data with
// NULLs and random frames — FOLLOWING-only, PRECEDING-only, unbounded, empty,
// and output rows left and right of the data, as a sequence's header and
// trailer are — Sums and Extremes answer what ComputeNaive's explicit form
// (aggregate, one frame at a time over the non-NULL values) answers: SUM and
// COUNT exactly over integers, MIN and MAX bit for bit over floats thick with
// NaN, ±0 and ±Inf, and over strings.
func TestSlideMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	domain := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), -2, 1, 3}
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(14)
		f := Frame{randBound(rng), randBound(rng)}
		from, m := rng.Intn(n+5)-3, rng.Intn(n+6)
		ints, floats, strs := make([]int64, n), make([]float64, n), make([]string, n)
		var nulls []uint64
		null := make([]bool, n)
		for r := range ints {
			ints[r] = int64(rng.Intn(21) - 10)
			floats[r] = domain[rng.Intn(len(domain))]
			strs[r] = fmt.Sprintf("s%02d", ints[r]+10)
			if rng.Intn(5) == 0 {
				null[r] = true
				for len(nulls) <= r>>6 {
					nulls = append(nulls, 0)
				}
				nulls[r>>6] |= 1 << (r & 63)
			}
		}
		p := Pass{F: f, N: n, From: from, Nulls: nulls}
		ctx := fmt.Sprintf("trial %d: frame %+v over %d rows from %d", trial, f, n, from)

		// A NULL row holds 0, as the kernels' callers keep it.
		sum, cnt := make([]int64, m), make([]int64, m)
		for r := range ints {
			if null[r] {
				ints[r] = 0
			}
		}
		Sums(p, ints, nil, sum, cnt)
		only := make([]int64, m)
		Sums[int64, int64](p, nil, nil, nil, only)
		at, dq := make([]int, m), []int(nil)
		for _, isMin := range []bool{true, false} {
			dq = Extremes(p, FloatKeys(nil, floats), isMin, at, dq)
			sat := make([]int, m)
			dq = Extremes(p, strs, isMin, sat, dq)
			agg := Max
			if isMin {
				agg = Min
			}
			for j := 0; j < m; j++ {
				lo, hi := explicitRows(f, from+j, n)
				// The frame's non-NULL values, positions 1…k of the explicit form.
				var vals, nums []float64
				var best string
				for r := max(lo, 0); r <= min(hi, n-1); r++ {
					if null[r] {
						continue
					}
					vals, nums = append(vals, floats[r]), append(nums, float64(ints[r]))
					if best == "" || isMin && strs[r] < best || !isMin && strs[r] > best {
						best = strs[r]
					}
				}
				wantSum, _ := aggregate(nums, Sum, 1, len(nums))
				want, ok := aggregate(vals, agg, 1, len(vals))
				if cnt[j] != int64(len(nums)) || only[j] != cnt[j] || float64(sum[j]) != wantSum {
					t.Fatalf("%s: row %d SUM %d COUNT %d, explicit form %v and %d", ctx, from+j, sum[j], cnt[j], wantSum, len(nums))
				}
				if (at[j] >= 0) != ok || ok && math.Float64bits(floats[at[j]]) != math.Float64bits(want) && !(math.IsNaN(want) && math.IsNaN(floats[at[j]])) {
					t.Fatalf("%s: row %d %v picks row %d, explicit form %v (%v)", ctx, from+j, agg, at[j], want, ok)
				}
				if (sat[j] >= 0) != ok || ok && strs[sat[j]] != best {
					t.Fatalf("%s: row %d VARCHAR %v picks row %d, explicit form %q", ctx, from+j, agg, sat[j], best)
				}
			}
		}
	}
}

// TestSumsResumes: a pass resumed at any row from the stored sum of its
// predecessor writes what the whole pass writes there, bit for bit — the
// band recompute's contract with REFRESH — over fractional floats, whose
// sums round, NaN and ±Inf. A Stream resumes at every chunk boundary on the
// same contract: cut into chunks of 1…n+1 positions, it emits one-shot
// ComputePipelined's cells bit for bit, for SUM, COUNT, MIN and MAX over
// sliding windows — (0,0) and l or h past n among them — and cumulative
// ones, n = 0 and n = 1 among the lengths, over INTEGER values near ±2⁵³
// and FLOAT values with NaN, ±Inf, −0 and fractions.
func TestSumsResumes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(21)
		raw, ints := make([]float64, n), make([]int64, n)
		for i := range raw {
			raw[i] = float64(rng.Intn(200)-100) / 10
			if rng.Intn(8) == 0 {
				raw[i] = special[rng.Intn(len(special))]
			}
			ints[i] = int64(rng.Intn(9) - 4)
			if rng.Intn(2) == 0 {
				ints[i] += int64(1<<53) * int64(1-2*rng.Intn(2))
			}
		}
		w := Sliding(rng.Intn(n+4), rng.Intn(n+4))
		switch rng.Intn(6) {
		case 0:
			w = Sliding(0, 0)
		case 1, 2:
			w = Cumul()
		}
		p := Pass{F: w.frame(), N: n, From: -3}
		full := make([]float64, n+7)
		Sums(p, raw, nil, full, nil)
		k := 1 + rng.Intn(len(full)-1)
		p.From += k
		part := make([]float64, len(full)-k)
		Sums(p, raw, &full[k-1], part, nil)
		for j, v := range part {
			if want := full[k+j]; math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("trial %d: %s over %v resumed at row %d: row %d = %v, the whole pass says %v", trial, w, raw, p.From, p.From+j, v, want)
			}
		}
		for _, agg := range []Agg{Sum, Count, Min, Max} {
			where := fmt.Sprintf("trial %d: %s %s over %d values", trial, agg, w, n)
			streamsResume(t, where, raw, w, agg, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
			streamsResume(t, where, ints, w, agg, func(a, b int64) bool { return a == b })
		}
	}
}

// streamsResume checks a Stream over raw in chunks of 1…n+1 positions
// against one-shot ComputePipelined — against the one-chunk Stream it runs
// for a window ComputePipelined refuses, (0,0).
func streamsResume[T Num](t *testing.T, where string, raw []T, w Window, agg Agg, same func(a, b T) bool) {
	t.Helper()
	streamed := func(chunk int) []Cell[T] {
		var out []Cell[T]
		st := NewStream(w, agg, func(c Cell[T]) error {
			out = append(out, c)
			return nil
		})
		st.chunk = chunk
		for _, v := range raw {
			if err := st.Push(v); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	var want []Cell[T]
	if seq, err := ComputePipelined(raw, w, agg); err == nil {
		for k := seq.Lo(); k <= seq.Hi(); k++ {
			if v, ok := seq.AtOK(k); ok {
				want = append(want, Cell[T]{k, v})
			}
		}
	} else {
		want = streamed(math.MaxInt32)
	}
	for chunk := 1; chunk <= len(raw)+1; chunk++ {
		got := streamed(chunk)
		if len(got) != len(want) {
			t.Fatalf("%s in chunks of %d: %d cells, one pass stores %d", where, chunk, len(got), len(want))
		}
		for i, c := range got {
			if c.Pos != want[i].Pos || !same(c.Val, want[i].Val) {
				t.Fatalf("%s in chunks of %d: cell %d is %v, one pass stores %v", where, chunk, i, c, want[i])
			}
		}
	}
}
