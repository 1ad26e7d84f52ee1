package engine

import "rfview/internal/sqltypes"

// rowIdentical reports whether two rows are bit-identical — equal
// encodings, as replay's locate matches them: 1 and 1.0 differ, a NaN
// matches itself.
func rowIdentical(a, b sqltypes.Row) bool {
	return string(sqltypes.EncodeRowData(nil, a)) == string(sqltypes.EncodeRowData(nil, b))
}
