package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	rferrors "rfview/errors"
	"rfview/internal/sqltypes"
)

// plainResponse is Response without its codec methods: encoding/json's own
// reflection encoding and decoding, the reference the codec must match.
type plainResponse Response

// stringPieces are the fragments random strings are built from: plain text,
// everything encoding/json escapes (quotes, backslash, control characters,
// <>&, U+2028/2029) and invalid UTF-8.
var stringPieces = []string{"a", "Zq", " ", "/", `"`, `\`, "\n", "\t", "\r", "\b", "\f",
	"\x00", "\x1f", "\x7f", "<", ">", "&", "\u2028", "\u2029", "é", "日本", "\U0001F600",
	"\xff", "\xc3", "\xed\xa0\x80", "\ufffd"}

func drawString(r *rand.Rand) string {
	var b strings.Builder
	for n := r.IntN(6); n > 0; n-- {
		b.WriteString(stringPieces[r.IntN(len(stringPieces))])
	}
	return b.String()
}

// specialFloats sit on encoding/json's format boundaries: signed zero, the
// 1e-6 and 1e21 switches to exponent form, subnormals and the extremes, and
// on the codec's own: integral values either side of 2⁵³.
var specialFloats = []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999e-7,
	1e20, 1e21, -1e21, 123456789e13, 5e-324, 2.2250738585072014e-308, math.MaxFloat64,
	-math.MaxFloat64, 0.1, 1.5, 3.0000000000000004, -12345, 1e15, 1<<53 - 1, -(1<<53 - 1),
	1 << 53, -(1 << 53), 1<<53 + 2}

func drawFloat(r *rand.Rand) float64 {
	switch r.IntN(3) {
	case 0:
		return specialFloats[r.IntN(len(specialFloats))]
	case 1:
		return r.NormFloat64() * math.Pow(10, float64(r.IntN(60)-30))
	}
	for {
		if f := math.Float64frombits(r.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
			return f
		}
	}
}

func drawInt(r *rand.Rand) int64 {
	switch r.IntN(4) {
	case 0:
		return []int64{0, 1, -1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64}[r.IntN(8)]
	case 1:
		return int64(r.Uint64())
	}
	return r.Int64N(1000) - 500
}

// drawDatum draws an engine value of any type, and the value the server
// boxed it as before the codec: what encoding/json then encoded.
func drawDatum(r *rand.Rand) (sqltypes.Datum, any) {
	switch r.IntN(6) {
	case 0:
		return sqltypes.NullDatum, nil
	case 1:
		v := drawInt(r)
		return sqltypes.NewInt(v), v
	case 2:
		v := drawFloat(r)
		return sqltypes.NewFloat(v), v
	case 3:
		v := r.IntN(2) == 1
		return sqltypes.NewBool(v), v
	case 4:
		v := drawString(r)
		return sqltypes.NewString(v), v
	}
	d := sqltypes.NewDate(r.Int64N(200000) - 100000)
	return d, d.String()
}

// drawResponse draws a response over every field. When its rows are engine
// rows, datums holds them and Rows their boxed form; otherwise Rows may also
// hold nil and empty rows.
func drawResponse(r *rand.Rand) (resp Response, datums []sqltypes.Row) {
	resp.OK = r.IntN(2) == 1
	if r.IntN(3) > 0 {
		resp.ID = uint64(drawInt(r))
	}
	if r.IntN(2) == 0 {
		resp.Session = uint64(r.Int64N(100))
	}
	if r.IntN(4) == 0 {
		resp.Error, resp.Code = drawString(r), drawString(r)
	}
	width := r.IntN(4)
	switch r.IntN(3) {
	case 0:
		resp.Columns = []string{}
	case 1:
		for j := 0; j < width; j++ {
			resp.Columns = append(resp.Columns, drawString(r))
		}
	}
	nrows := r.IntN(5)
	if r.IntN(2) == 0 {
		for i := 0; i < nrows; i++ {
			row, boxed := make(sqltypes.Row, width), make([]any, width)
			for j := range row {
				row[j], boxed[j] = drawDatum(r)
			}
			datums, resp.Rows = append(datums, row), append(resp.Rows, boxed)
		}
	} else {
		if r.IntN(3) == 0 {
			resp.Rows = [][]any{}
		}
		for i := 0; i < nrows; i++ {
			var row []any
			switch r.IntN(4) {
			case 0: // a nil row
			case 1:
				row = []any{}
			default:
				for j := 0; j < width; j++ {
					_, v := drawDatum(r)
					row = append(row, v)
				}
			}
			resp.Rows = append(resp.Rows, row)
		}
	}
	if r.IntN(2) == 0 {
		resp.Affected = int(drawInt(r))
	}
	if r.IntN(3) == 0 {
		resp.Plan = drawString(r)
	}
	if r.IntN(3) == 0 {
		resp.Rewritten = drawString(r)
	}
	if r.IntN(2) == 0 {
		resp.ElapsedUs = drawInt(r)
	}
	if r.IntN(5) == 0 {
		resp.Stats = &StatsReply{UptimeSec: drawInt(r), Requests: r.Uint64(), SessionInTxn: true,
			PlanCache: CacheStats{Hits: 3}, BufferPool: BufferPoolStats{HitRatio: drawFloat(r)}}
	}
	if r.IntN(5) == 0 {
		resp.Metrics = drawString(r)
	}
	return resp, datums
}

// TestAppendResponseMatchesEncodingJSON: the codec writes the bytes
// encoding/json writes for the same Response — from boxed rows, through
// MarshalJSON, and from engine rows as the server does — and reads them back
// into the value encoding/json decodes.
func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(29, 1))
	for trial := 0; trial < 5000; trial++ {
		resp, datums := drawResponse(r)
		want, err := json.Marshal((*plainResponse)(&resp))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendResponse(nil, &resp); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: appendResponse\n got %s\nwant %s", trial, got, want)
		}
		if got, err := json.Marshal(&resp); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("trial %d: MarshalJSON (err %v)\n got %s\nwant %s", trial, err, got, want)
		}
		if datums != nil {
			typed := resp
			typed.Rows = nil
			if typed.result, err = appendResult(nil, resp.Columns, datums, resp.Affected, appendDatum); err != nil {
				t.Fatal(err)
			}
			typed.Columns, typed.Affected = nil, 0
			if got := appendResponse(nil, &typed); !bytes.Equal(got, want) {
				t.Fatalf("trial %d: from engine rows\n got %s\nwant %s", trial, got, want)
			}
		}
		var got Response
		var ref plainResponse
		if err := decodeResponse(want, &got); err != nil {
			t.Fatalf("trial %d: decoding %s: %v", trial, want, err)
		}
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, Response(ref)) {
			t.Fatalf("trial %d: decoding %s\n got %#v\nwant %#v", trial, want, got, Response(ref))
		}
	}
}

// TestAppendResponseNonFinite: a response JSON cannot carry becomes the
// unsupported error naming the cell, from either kind of row.
func TestAppendResponseNonFinite(t *testing.T) {
	boxed := Response{ID: 7, OK: true, Session: 3, Columns: []string{"pos", "s"},
		Rows: [][]any{{int64(1), 1e308}, {int64(2), math.Inf(1)}}, Affected: 2}
	_, err := appendResult(nil, boxed.Columns, []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewFloat(math.NaN())}}, 1, appendDatum)
	if !errors.Is(err, rferrors.ErrUnsupported) || !strings.Contains(err.Error(), `row 1, column "s"`) {
		t.Fatalf("engine rows: err = %v", err)
	}
	var got plainResponse
	if err := json.Unmarshal(appendResponse(nil, &boxed), &got); err != nil {
		t.Fatal(err)
	}
	if got.OK || got.ID != 7 || got.Session != 3 || got.Code != string(rferrors.CodeUnsupported) ||
		!strings.Contains(got.Error, `row 2, column "s": +Inf`) || got.Rows != nil {
		t.Fatalf("response = %+v", got)
	}
}

// FuzzDecodeResponse: the decoder never panics, and it accepts exactly what
// encoding/json accepts into a Response, yielding the same value.
func FuzzDecodeResponse(f *testing.F) {
	r := rand.New(rand.NewPCG(29, 2))
	for i := 0; i < 8; i++ {
		resp, _ := drawResponse(r)
		f.Add(appendResponse(nil, &resp))
	}
	for _, s := range []string{
		`null`, ` {} `, `[1]`, `"x"`, `{"ID":1,"oK":true,"ſession":2}`, `{"id":-1}`, `{"id":1.0}`,
		`{"affected":1e2}`, `{"id":null,"ok":null,"error":null,"rows":null,"stats":null}`,
		`{"rows":[[1,-0.5e-3,"a",null,true,false,[1,{"k":[]}],{"k":2}],[],null]}`,
		`{"rows":[[1e400]]}`, `{"rows":[1]}`, `{"columns":["a","b","c"],"columns":["x"],"columns":["y",null]}`,
		`{"columns":[null]}`, `{"stats":{"uptime_sec":1},"stats":{"accepted":2}}`, `{"stats":5}`,
		`{"error":"\ud800x\u00e9\"\\\/\b\f\n\r\t"}`, `{"\u0069d":5}`, `{"error":"` + "\xff" + `"}`,
		`{"x":[1,2,{"y":[true]}],"id":1}`, `{"id":01}`, `{"id":1,}`, `{"id" 1}`, `{"error":"a` + "\n" + `"}`,
		`{"id":1} x`, `{"rows":[[tru]]}`, `{"ok":"true"}`, `{"rows":[[1.]]}`, `{"rows":[[-]]}`,
		`{"rows":[[0123]]}`, `{"rows":[[-0,1234567890123456,123456789012345,1e5,-1.5]]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecode)
}

// TestDecodeResponseDepth: nesting is limited where encoding/json limits it.
// (Inputs this deep slow the fuzzer down, so they are not in its corpus.)
func TestDecodeResponseDepth(t *testing.T) {
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, s := range []string{`{"x":` + nest(9999) + `}`, `{"x":` + nest(10000) + `}`, `{"rows":[` + nest(9998) + `]}`} {
		checkDecode(t, []byte(s))
	}
}

// checkDecode fails unless decodeResponse and encoding/json agree on data.
func checkDecode(t *testing.T, data []byte) {
	var got Response
	gotErr := decodeResponse(data, &got)
	var want plainResponse
	wantErr := json.Unmarshal(data, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%.200q: decodeResponse err %v, encoding/json err %v", data, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, Response(want)) {
		t.Fatalf("%.200q:\n got %#v\nwant %#v", data, got, Response(want))
	}
}
