package exec

import (
	"rfview/internal/expr"
	"rfview/internal/sqltypes"
)

// This file evaluates ROWS frames over one partition's argument column, in
// evaluation order: the typed kernels, the boxed evaluators they fall back
// to, and the dispatch between the two.
//
// Typed window kernels: the §2.2 slide (Add/Remove) and the MIN/MAX monotonic
// deque specialized to raw []int64 / []float64 argument columns. A kernel runs
// only when the column is homogeneous and NULL-free (see runTypedKernel), so
// the inner loops carry no Datum boxing, no NULL tests, and no per-step error
// returns. Each kernel replicates the exact arithmetic sequence of the boxed
// accumulators in expr/agg.go — same reseed condition, same grow-right-then-
// shrink-left order, same float operation order — so typed and boxed paths
// produce bit-identical results and the runtime fallback is invisible.

// kernelCount fills COUNT over a NULL-free column (or COUNT(*)): the frame
// size. Matches countAcc, which increments once per non-NULL Add.
func kernelCount(frame FrameSpec, n int, out []sqltypes.Datum) {
	for i := 0; i < n; i++ {
		lo, hi := frame.rowRange(i, n)
		if lo > hi {
			out[i] = sqltypes.NewInt(0)
			continue
		}
		out[i] = sqltypes.NewInt(int64(hi - lo + 1))
	}
}

// kernelSumInt slides SUM over an all-int column. Integer sums are exact, so
// only the empty-frame NULL and the reseed condition must mirror computeFrames.
func kernelSumInt(frame FrameSpec, vals []int64, out []sqltypes.Datum) {
	n := len(vals)
	var sum int64
	curLo, curHi := 0, -1
	for i := 0; i < n; i++ {
		lo, hi := frame.rowRange(i, n)
		if lo > hi {
			sum = 0
			curLo, curHi = lo, lo-1
			out[i] = sqltypes.NullDatum
			continue
		}
		if lo < curLo || lo > curHi+1 || hi < curHi {
			sum = 0
			curLo, curHi = lo, lo-1
		}
		for curHi < hi {
			curHi++
			sum += vals[curHi]
		}
		for curLo < lo {
			sum -= vals[curLo]
			curLo++
		}
		out[i] = sqltypes.NewInt(sum)
	}
}

// kernelSumFloat slides SUM over an all-float column. Float addition is not
// associative, so the += / -= order must match sumAcc exactly: grow right with
// Add, then shrink left with Remove, from a zero seed after every reseed.
func kernelSumFloat(frame FrameSpec, vals []float64, out []sqltypes.Datum) {
	n := len(vals)
	var sum float64
	curLo, curHi := 0, -1
	for i := 0; i < n; i++ {
		lo, hi := frame.rowRange(i, n)
		if lo > hi {
			sum = 0
			curLo, curHi = lo, lo-1
			out[i] = sqltypes.NullDatum
			continue
		}
		if lo < curLo || lo > curHi+1 || hi < curHi {
			sum = 0
			curLo, curHi = lo, lo-1
		}
		for curHi < hi {
			curHi++
			sum += vals[curHi]
		}
		for curLo < lo {
			sum -= vals[curLo]
			curLo++
		}
		out[i] = sqltypes.NewFloat(sum)
	}
}

// kernelAvg slides AVG over an all-int or all-float column. avgAcc accumulates
// float64(d.Float()) regardless of input type, so one generic body reproduces
// both: for float64 the conversion is the identity.
func kernelAvg[T int64 | float64](frame FrameSpec, vals []T, out []sqltypes.Datum) {
	n := len(vals)
	var sum float64
	var cnt int64
	curLo, curHi := 0, -1
	for i := 0; i < n; i++ {
		lo, hi := frame.rowRange(i, n)
		if lo > hi {
			sum, cnt = 0, 0
			curLo, curHi = lo, lo-1
			out[i] = sqltypes.NullDatum
			continue
		}
		if lo < curLo || lo > curHi+1 || hi < curHi {
			sum, cnt = 0, 0
			curLo, curHi = lo, lo-1
		}
		for curHi < hi {
			curHi++
			sum += float64(vals[curHi])
			cnt++
		}
		for curLo < lo {
			sum -= float64(vals[curLo])
			cnt--
			curLo++
		}
		out[i] = sqltypes.NewFloat(sum / float64(cnt))
	}
}

// kernelMinMax runs the monotonic deque over a raw slice. dq is a pooled
// position stack; head replaces the boxed version's dq = dq[1:] so the backing
// array stays reusable. mk boxes the winning value (NewInt or NewFloat).
// Returns (dq, false) if the frame ever moves backwards — the same pathological
// case the boxed deque hands to its quadratic fallback — letting the caller
// route the whole function through the boxed path.
func kernelMinMax[T int64 | float64](frame FrameSpec, vals []T, isMin bool, mk func(T) sqltypes.Datum, out []sqltypes.Datum, dq []int) ([]int, bool) {
	n := len(vals)
	dq = dq[:0]
	head := 0
	next := 0
	prevLo := 0
	for i := 0; i < n; i++ {
		lo, hi := frame.rowRange(i, n)
		if lo < prevLo {
			return dq, false
		}
		prevLo = lo
		for next <= hi {
			v := vals[next]
			for len(dq) > head {
				b := vals[dq[len(dq)-1]]
				// Pop ties too (<= / >=), matching the boxed deque: the later
				// of equal values survives. Indistinguishable in the output —
				// equal raw values box to equal datums — but kept identical
				// so the two paths walk the same states.
				if (isMin && v <= b) || (!isMin && v >= b) {
					dq = dq[:len(dq)-1]
					continue
				}
				break
			}
			dq = append(dq, next)
			next++
		}
		for head < len(dq) && dq[head] < lo {
			head++
		}
		if lo > hi || head == len(dq) {
			out[i] = sqltypes.NullDatum
		} else {
			out[i] = mk(vals[dq[head]])
		}
	}
	return dq, true
}

// runTypedKernel dispatches fn to a typed kernel when its argument column is
// eligible: COUNT(*) always (its synthesized argument is a non-NULL
// constant), otherwise a valid ColVec with no NULLs and an Int or Float
// element type. Any NULL, any type mix, a NaN, or a non-numeric element type
// routes the function to the boxed accumulator path instead. Reports whether
// a kernel ran and filled ps.out.
func runTypedKernel(fn WindowFunc, slot int, ps *partScratch, n int) bool {
	if slot < 0 {
		kernelCount(fn.Frame, n, ps.out)
		return true
	}
	vec := &ps.vecs[slot]
	if !vec.Valid() || vec.Nulls.Any() {
		return false
	}
	switch vec.Typ {
	case sqltypes.Int:
		return typedKernel(fn, vec.Ints, kernelSumInt, sqltypes.NewInt, ps)
	case sqltypes.Float:
		return typedKernel(fn, vec.Floats, kernelSumFloat, sqltypes.NewFloat, ps)
	}
	return false
}

// typedKernel runs fn's kernel over one raw argument slice, filling ps.out.
func typedKernel[T int64 | float64](fn WindowFunc, vals []T, sum func(FrameSpec, []T, []sqltypes.Datum), mk func(T) sqltypes.Datum, ps *partScratch) (ok bool) {
	switch fn.Name {
	case "COUNT":
		kernelCount(fn.Frame, len(vals), ps.out)
	case "SUM":
		sum(fn.Frame, vals, ps.out)
	case "AVG":
		kernelAvg(fn.Frame, vals, ps.out)
	case "MIN", "MAX":
		ps.dq, ok = kernelMinMax(fn.Frame, vals, fn.Name == "MIN", mk, ps.out, ps.dq)
		return ok
	default:
		return false
	}
	return true
}

// computeFrames computes the window aggregate for every position. Frame
// bounds move monotonically with the row index, enabling the pipelined
// strategies.
func computeFrames(fn WindowFunc, args []sqltypes.Datum) ([]sqltypes.Datum, error) {
	n := len(args)
	out := make([]sqltypes.Datum, n)
	if fn.Name == "MIN" || fn.Name == "MAX" {
		return computeFramesMinMax(fn, args)
	}
	acc, err := expr.NewAgg(fn.Name)
	if err != nil {
		return nil, err
	}
	curLo, curHi := 0, -1 // current accumulated range [curLo, curHi]
	for i := 0; i < n; i++ {
		lo, hi := fn.Frame.rowRange(i, n)
		if lo > hi {
			// Empty frame: NULL (COUNT yields 0 via a fresh accumulator).
			acc.Reset()
			curLo, curHi = lo, lo-1
			if fn.Name == "COUNT" {
				out[i] = sqltypes.NewInt(0)
			} else {
				out[i] = sqltypes.NullDatum
			}
			continue
		}
		// ROWS frame bounds move monotonically right; re-seed if the target
		// range jumped (backwards, or disjoint ahead, or shrank on the
		// right), otherwise slide: grow right with Add, shrink left with
		// Remove — the §2.2 three-operations-per-position strategy.
		if lo < curLo || lo > curHi+1 || hi < curHi {
			acc.Reset()
			curLo, curHi = lo, lo-1
		}
		for curHi < hi {
			curHi++
			acc.Add(args[curHi])
		}
		for curLo < lo {
			acc.Remove(args[curLo])
			curLo++
		}
		out[i] = acc.Result()
	}
	return out, nil
}

// computeFramesMinMax computes MIN/MAX frames with a monotonic deque.
func computeFramesMinMax(fn WindowFunc, args []sqltypes.Datum) ([]sqltypes.Datum, error) {
	n := len(args)
	out := make([]sqltypes.Datum, n)
	isMin := fn.Name == "MIN"
	type entry struct {
		pos int
		val sqltypes.Datum
	}
	var dq []entry
	next := 0 // next arg index to admit
	prevLo := 0
	for i := 0; i < n; i++ {
		lo, hi := fn.Frame.rowRange(i, n)
		if lo < prevLo {
			// Frames of ROWS windows never move backwards; guard anyway.
			return computeFramesMinMaxNaive(fn, args)
		}
		prevLo = lo
		for next <= hi {
			v := args[next]
			if !v.IsNull() {
				for len(dq) > 0 {
					cmp, err := sqltypes.Compare(v, dq[len(dq)-1].val)
					if err != nil {
						return nil, err
					}
					if (isMin && cmp <= 0) || (!isMin && cmp >= 0) {
						dq = dq[:len(dq)-1]
						continue
					}
					break
				}
				dq = append(dq, entry{next, v})
			}
			next++
		}
		for len(dq) > 0 && dq[0].pos < lo {
			dq = dq[1:]
		}
		if lo > hi || len(dq) == 0 {
			out[i] = sqltypes.NullDatum
		} else {
			out[i] = dq[0].val
		}
	}
	return out, nil
}

// computeFramesMinMaxNaive is the quadratic fallback for pathological frames.
func computeFramesMinMaxNaive(fn WindowFunc, args []sqltypes.Datum) ([]sqltypes.Datum, error) {
	n := len(args)
	out := make([]sqltypes.Datum, n)
	acc, err := expr.NewAgg(fn.Name)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		lo, hi := fn.Frame.rowRange(i, n)
		acc.Reset()
		for j := lo; j <= hi; j++ {
			acc.Add(args[j])
		}
		out[i] = acc.Result()
	}
	return out, nil
}
