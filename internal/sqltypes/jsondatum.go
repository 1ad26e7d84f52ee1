package sqltypes

// JSONDatum is a Datum's bit-exact JSON form, the one snapshots and WAL
// commit records share: T is the Type; Bool (0/1), Int and Date ride in I;
// Float rides in F as its IEEE-754 bits, so NaN payloads and −0 survive;
// String rides in S. Zero fields are omitted, so an empty string and NULL
// both write only their type.
type JSONDatum struct {
	T uint8  `json:"t"`
	I int64  `json:"i,omitempty"`
	F uint64 `json:"f,omitempty"`
	S string `json:"s,omitempty"`
}

// ToJSON returns d's JSON form.
func ToJSON(d Datum) JSONDatum {
	j := JSONDatum{T: uint8(d.typ)}
	switch d.typ {
	case Bool, Int, Date:
		j.I = d.i
	case Float:
		j.F = uint64(d.i)
	case String:
		j.S = d.s
	}
	return j
}

// Datum returns the value j encodes; an unknown type reads as NULL.
func (j JSONDatum) Datum() Datum {
	switch t := Type(j.T); t {
	case Bool:
		return NewBool(j.I != 0)
	case Int, Date:
		return Datum{typ: t, i: j.I}
	case Float:
		return Datum{typ: t, i: int64(j.F)}
	case String:
		return NewString(j.S)
	}
	return NullDatum
}

// RowsToJSON encodes rows.
func RowsToJSON(rows []Row) [][]JSONDatum {
	out := make([][]JSONDatum, len(rows))
	for i, r := range rows {
		out[i] = make([]JSONDatum, len(r))
		for j, d := range r {
			out[i][j] = ToJSON(d)
		}
	}
	return out
}

// RowsFromJSON decodes rows.
func RowsFromJSON(enc [][]JSONDatum) []Row {
	out := make([]Row, len(enc))
	for i, r := range enc {
		out[i] = make(Row, len(r))
		for j, d := range r {
			out[i][j] = d.Datum()
		}
	}
	return out
}
