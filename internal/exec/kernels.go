package exec

import (
	"fmt"

	"rfview/internal/core"
	"rfview/internal/sqltypes"
)

// This file evaluates one window function over one partition: the §2.2
// kernels of internal/core (core.Sums, core.Extremes) run over the
// partition's gathered argument vector — its typed values and its NULL
// mask — and each row's answer is boxed into its slab slot once.

// frame is f as the kernels' frame: each bound an offset from the current
// row, or the partition's first or last row.
func (f FrameSpec) frame() core.Frame {
	return core.Frame{Lo: f.Start.offset(), Hi: f.End.offset()}
}

func (b FrameBound) offset() int {
	switch b.Kind {
	case BoundUnboundedPreceding:
		return core.First
	case BoundPreceding:
		return -b.Offset
	case BoundCurrentRow:
		return 0
	case BoundFollowing:
		return b.Offset
	default: // BoundUnboundedFollowing
		return core.Last
	}
}

// evalFunc evaluates function fi over the partition whose rows are ord, in
// evaluation order, and writes row ord[i]'s answer to its slab slot: SUM and
// AVG NULL over a frame without a value, COUNT 0, MIN and MAX the frame's
// least or greatest value. A function the output drops is not evaluated.
func (w *Window) evalFunc(r *winRun, fi int, ord []int, ps *partScratch) error {
	col := r.funcCol[fi]
	if col < 0 {
		return nil
	}
	fn := w.Funcs[fi]
	n := len(ord)
	p := core.Pass{F: fn.Frame.frame(), N: n}
	var vec *sqltypes.ColVec // nil for COUNT(*)
	if slot := w.argSlots[fi]; slot >= 0 {
		vec = &ps.vecs[slot]
		p.Nulls = vec.Nulls.Words()
	}
	ps.cnt = grow(ps.cnt, n)
	slab, width := r.slab, r.width
	answer := func(i int) *sqltypes.Datum { return &slab[ord[i]*width+col] } // row ord[i]'s slot
	switch {
	case fn.Name == "COUNT":
		core.Sums[int64, int64](p, nil, nil, nil, ps.cnt)
		for i, c := range ps.cnt {
			*answer(i) = sqltypes.NewInt(c)
		}
	case vec == nil:
		return fmt.Errorf("exec: %s(*)", fn.Name)
	case vec.Typ == sqltypes.Null: // every argument NULL
		for i := range ord {
			*answer(i) = sqltypes.NullDatum
		}
	case vec.Mixed():
		return fmt.Errorf("exec: %s over an argument that mixes a %s value with other types", fn.Name, nonNumeric(vec))
	case fn.Name == "MIN" || fn.Name == "MAX":
		isMin := fn.Name == "MIN"
		ps.at = grow(ps.at, n)
		switch vec.Typ {
		case sqltypes.Float:
			ps.keys = core.FloatKeys(ps.keys, vec.Floats)
			ps.dq = core.Extremes(p, ps.keys, isMin, ps.at, ps.dq)
		case sqltypes.String:
			ps.dq = core.Extremes(p, vec.Strs, isMin, ps.at, ps.dq)
		default: // INTEGER, DATE, BOOLEAN
			ps.dq = core.Extremes(p, vec.Ints, isMin, ps.at, ps.dq)
		}
		for i, a := range ps.at {
			if a < 0 {
				*answer(i) = sqltypes.NullDatum
			} else {
				*answer(i) = vec.Datum(a)
			}
		}
	case vec.Typ == sqltypes.String:
		return fmt.Errorf("exec: %s over VARCHAR", fn.Name)
	case fn.Name != "SUM" && fn.Name != "AVG":
		return fmt.Errorf("exec: unknown window aggregate %s()", fn.Name)
	case vec.Typ == sqltypes.Float:
		ps.fsum = grow(ps.fsum, n)
		sums(p, vec.Floats, ps.fsum, ps.cnt, fn.Name == "AVG", answer)
	default:
		ps.isum = grow(ps.isum, n)
		sums(p, vec.Ints, ps.isum, ps.cnt, fn.Name == "AVG", answer)
	}
	return nil
}

// sums slides SUM over vals in their own type and answers each row's sum —
// or for AVG the sum divided once by the count, as a derived AVG divides —
// and NULL over a frame without a value.
func sums[T int64 | float64](p core.Pass, vals, sum []T, cnt []int64, avg bool, answer func(int) *sqltypes.Datum) {
	core.Sums(p, vals, nil, sum, cnt)
	for i, s := range sum {
		switch {
		case cnt[i] == 0:
			*answer(i) = sqltypes.NullDatum
		case avg:
			*answer(i) = sqltypes.NewFloat(float64(s) / float64(cnt[i]))
		default:
			*answer(i) = sqltypes.NewNum(s)
		}
	}
}

// nonNumeric is the type of the first non-NULL value of v that is neither
// INTEGER nor FLOAT.
func nonNumeric(v *sqltypes.ColVec) sqltypes.Type {
	for i := 0; i < v.Len(); i++ {
		if t := v.Datum(i).Typ(); t != sqltypes.Null && !t.Numeric() {
			return t
		}
	}
	return sqltypes.Null
}

// coerceMixed rewrites an argument column that mixes INTEGER and FLOAT
// values as FLOAT, the type SQL gives the mix, so that a frame's answer
// depends on its values alone. A mix with any other type stays boxed: COUNT
// reads its NULL mask alone, and evalFunc refuses it to the others.
func coerceMixed(v *sqltypes.ColVec) {
	if !v.Mixed() || nonNumeric(v) != sqltypes.Null {
		return
	}
	var f sqltypes.ColVec
	f.Reset(v.Len())
	for i := 0; i < v.Len(); i++ {
		if d := v.Datum(i); d.IsNull() {
			f.Append(d)
		} else {
			f.Append(sqltypes.NewFloat(d.Float()))
		}
	}
	*v = f
}
