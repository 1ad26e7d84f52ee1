package exec

import (
	"math"

	"rfview/internal/spill"
	"rfview/internal/sqltypes"
)

// This file adapts the executor's ordering operators to the out-of-core
// layer (internal/spill). Both adapters stream rows through a spill.Sorter
// keyed by the memcomparable encoding of the in-memory encoded path — the
// typed path's order words, big-endian — so external and in-memory results
// are bit-identical: equal key bytes merge back in insertion order, matching
// the stable in-memory sorts.
//
// The fallback contract carries over unchanged. The in-memory paths validate
// key columns over the whole row set before sorting; the streaming path
// validates incrementally and reaches the same verdicts — incomparable
// key types are an error, an Int/Float mix or a NaN defeats the encoding.
// The only difference is that a streaming run may discover the defeat after
// rows were already spilled; the caller then abandons the external sort
// (releasing its runs and budget) and re-sorts in memory through the
// comparator path, which still holds every input row.

// keyStreamer incrementally encodes rows' sort keys into one concatenated
// memcomparable byte string per row, validating key column types as it goes
// with the same rules as keyPath.
type keyStreamer struct {
	keys  []SortKey
	types []sqltypes.Type // first non-NULL type seen per key column
	vals  []sqltypes.Datum
	buf   []byte
}

func newKeyStreamer(keys []SortKey) *keyStreamer {
	return &keyStreamer{
		keys:  keys,
		types: make([]sqltypes.Type, len(keys)),
		vals:  make([]sqltypes.Datum, len(keys)),
	}
}

// encode evaluates the keys of row and returns their concatenated encoding,
// valid until the next call. ok=false (with a nil error) means this row
// defeats the encoding — an Int/Float mix with an earlier row, or a NaN —
// and the caller must fall back to the comparator path. Incomparable types
// return the same error the in-memory validation raises.
func (ks *keyStreamer) encode(row sqltypes.Row) (key []byte, ok bool, err error) {
	ks.buf = ks.buf[:0]
	for ki := range ks.keys {
		v, err := ks.keys[ki].Expr.Eval(row)
		if err != nil {
			return nil, false, err
		}
		ks.vals[ki] = v
		t := v.Typ()
		if t != sqltypes.Null {
			if t == sqltypes.Float && math.IsNaN(v.Float()) {
				return nil, false, nil
			}
			switch first := ks.types[ki]; {
			case first == sqltypes.Null:
				ks.types[ki] = t
			case first != t:
				if !sqltypes.Comparable(first, t) {
					return nil, false, &sqltypes.ErrTypeMismatch{Op: "compare", Left: first, Right: t}
				}
				return nil, false, nil // Int/Float mix
			}
		}
	}
	for ki := range ks.keys {
		ks.buf = sqltypes.EncodeKeyNulls(ks.buf, ks.vals[ki], ks.keys[ki].Desc, ks.keys[ki].nullsLast())
	}
	return ks.buf, true, nil
}

// spillEligible gates the external path: it needs an enabled config, keys to
// order by, and more rows than the sorter's minimum run. At or below that
// floor the sorter can never flush, so it would hold the rows in memory
// anyway — as encoded keys plus payload copies, more than the typed records
// it stands in for.
func spillEligible(cfg *spill.Config, keys []SortKey, n int) bool {
	return cfg.Enabled() && len(keys) > 0 && n > cfg.MinRun()
}
