package expr

import (
	"fmt"

	"rfview/internal/core"
	"rfview/internal/sqltypes"
)

// AggAcc is an aggregate accumulator: grouping operators feed it one datum
// per qualifying row. Window frames slide through internal/core's kernels
// instead.
type AggAcc interface {
	// Add folds one input value into the aggregate. NULLs are ignored, per
	// SQL semantics (COUNT(*) feeds a non-NULL marker for every row).
	Add(d sqltypes.Datum)
	// Result returns the current aggregate value (NULL for empty input,
	// except COUNT which returns 0).
	Result() sqltypes.Datum
	// Reset clears the accumulator.
	Reset()
}

// NewAgg builds an accumulator for the named aggregate (SUM, COUNT, AVG,
// MIN, MAX).
func NewAgg(name string) (AggAcc, error) {
	switch name {
	case "SUM":
		return &sumAcc{}, nil
	case "COUNT":
		return &countAcc{}, nil
	case "AVG":
		return &avgAcc{}, nil
	case "MIN":
		return &minMaxAcc{min: true}, nil
	case "MAX":
		return &minMaxAcc{min: false}, nil
	default:
		return nil, fmt.Errorf("unknown aggregate %s()", name)
	}
}

// sumAcc keeps integer sums exact and upgrades to float on the first float
// input, following DB2's SUM result typing.
type sumAcc struct {
	n       int64
	isum    int64
	fsum    float64
	isFloat bool
}

func (a *sumAcc) Add(d sqltypes.Datum) {
	if d.IsNull() {
		return
	}
	a.n++
	if d.Typ() == sqltypes.Float || a.isFloat {
		if !a.isFloat {
			a.fsum = float64(a.isum)
			a.isFloat = true
		}
		a.fsum += d.Float()
		return
	}
	a.isum += d.Int()
}

func (a *sumAcc) Result() sqltypes.Datum {
	if a.n == 0 {
		return sqltypes.NullDatum
	}
	if a.isFloat {
		return sqltypes.NewFloat(a.fsum)
	}
	return sqltypes.NewInt(a.isum)
}

func (a *sumAcc) Reset() { *a = sumAcc{} }

type countAcc struct{ n int64 }

func (a *countAcc) Add(d sqltypes.Datum) {
	if !d.IsNull() {
		a.n++
	}
}

func (a *countAcc) Result() sqltypes.Datum { return sqltypes.NewInt(a.n) }
func (a *countAcc) Reset()                 { a.n = 0 }

type avgAcc struct {
	n   int64
	sum float64
}

func (a *avgAcc) Add(d sqltypes.Datum) {
	if d.IsNull() {
		return
	}
	a.n++
	a.sum += d.Float()
}

func (a *avgAcc) Result() sqltypes.Datum {
	if a.n == 0 {
		return sqltypes.NullDatum
	}
	return sqltypes.NewFloat(a.sum / float64(a.n))
}

func (a *avgAcc) Reset() { *a = avgAcc{} }

// minMaxAcc is the semi-algebraic pair, which has no inverse.
type minMaxAcc struct {
	min  bool
	seen bool
	best sqltypes.Datum
}

func (a *minMaxAcc) Add(d sqltypes.Datum) {
	if d.IsNull() {
		return
	}
	if !a.seen {
		a.best = d
		a.seen = true
		return
	}
	if d.Typ() == sqltypes.Float || a.best.Typ() == sqltypes.Float {
		// Floats take the window's order: a NaN is greatest, −0 sorts below +0.
		if d.Typ().Numeric() && a.best.Typ().Numeric() {
			kd, kb := core.FloatKey(d.Float()), core.FloatKey(a.best.Float())
			if a.min && kd < kb || !a.min && kd > kb {
				a.best = d
			}
		}
		return
	}
	cmp, err := sqltypes.Compare(d, a.best)
	if err != nil {
		return
	}
	if (a.min && cmp < 0) || (!a.min && cmp > 0) {
		a.best = d
	}
}

func (a *minMaxAcc) Result() sqltypes.Datum {
	if !a.seen {
		return sqltypes.NullDatum
	}
	return a.best
}

func (a *minMaxAcc) Reset() { a.seen = false; a.best = sqltypes.NullDatum }

// AggResultType returns the static result type of an aggregate over an input
// of the given type.
func AggResultType(name string, input sqltypes.Type) sqltypes.Type {
	switch name {
	case "COUNT":
		return sqltypes.Int
	case "AVG":
		return sqltypes.Float
	case "SUM":
		if input == sqltypes.Float {
			return sqltypes.Float
		}
		return sqltypes.Int
	default: // MIN/MAX preserve the input type
		return input
	}
}
