package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	rferrors "rfview/errors"
	"rfview/internal/engine"
	"rfview/internal/sqltypes"
)

// The response codec. Every response the server writes goes through
// appendResponse and every response the client reads through
// decodeResponse; Response's MarshalJSON and UnmarshalJSON route any
// encoding/json caller through the same two functions. The bytes are the
// ones encoding/json writes for Response — field order, omitempty, number
// and string forms — so the protocol is the one a reflection-based peer
// speaks.

// MarshalJSON encodes r as appendResponse does.
func (r Response) MarshalJSON() ([]byte, error) { return appendResponse(nil, &r), nil }

// UnmarshalJSON decodes one response as decodeResponse does, replacing *r.
func (r *Response) UnmarshalJSON(data []byte) error { return decodeResponse(data, r) }

// appendResponse appends r's wire form, without the delimiting newline. A
// response holding a value JSON has no form for (a non-finite FLOAT) is
// written instead as an "unsupported" error that names the cell, so the
// client always gets an answer.
func appendResponse(dst []byte, r *Response) []byte {
	out, err := appendObject(dst, r)
	if err != nil {
		f := Response{ID: r.ID, Session: r.Session, ElapsedUs: r.ElapsedUs}
		f.fail(err)
		out, _ = appendObject(dst, &f) // f carries no rows and no stats: it cannot fail
	}
	return out
}

// fail turns r into the error response for err.
func (r *Response) fail(err error) {
	r.OK = false
	r.Error = err.Error()
	r.Code = string(rferrors.CodeOf(err))
}

func appendObject(dst []byte, r *Response) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, r.ID, 10)
	dst = append(dst, `,"ok":`...)
	dst = strconv.AppendBool(dst, r.OK)
	dst = appendStringField(dst, `,"error":`, r.Error)
	dst = appendStringField(dst, `,"code":`, r.Code)
	if r.Session != 0 {
		dst = append(dst, `,"session":`...)
		dst = strconv.AppendUint(dst, r.Session, 10)
	}
	if r.result != nil {
		dst = append(dst, r.result...)
	} else {
		var err error
		if dst, err = appendResult(dst, r.Columns, r.Rows, r.Affected, appendAny); err != nil {
			return dst, err
		}
	}
	dst = appendStringField(dst, `,"plan":`, r.Plan)
	dst = appendStringField(dst, `,"rewritten":`, r.Rewritten)
	if r.ElapsedUs != 0 {
		dst = append(dst, `,"elapsed_us":`...)
		dst = strconv.AppendInt(dst, r.ElapsedUs, 10)
	}
	if r.Stats != nil {
		b, err := json.Marshal(r.Stats)
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, `,"stats":`...), b...)
	}
	dst = appendStringField(dst, `,"metrics":`, r.Metrics)
	return append(dst, '}'), nil
}

func appendStringField(dst []byte, name, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, name...), s)
}

// encodeResult encodes res's columns, rows and affected count as the
// response fragment that appendObject splices in place of those fields. A
// result the engine answered from its result cache is encoded once: later
// hits of the same entry return the stored bytes.
func encodeResult(res *engine.Result) ([]byte, error) {
	var err error
	b := res.Encoded(func(cols []string, rows []sqltypes.Row, affected int) []byte {
		var out []byte
		if out, err = appendResult(nil, cols, rows, affected, appendDatum); err != nil {
			return nil
		}
		return out
	})
	return b, err
}

// appendResult appends the "columns", "rows" and "affected" members, each
// omitted when empty as omitempty does. cell appends one value, or reports
// that JSON has no form for it.
func appendResult[R ~[]C, C any](dst []byte, cols []string, rows []R, affected int, cell func([]byte, C) ([]byte, bool)) ([]byte, error) {
	if len(cols) > 0 {
		dst = append(dst, `,"columns":[`...)
		for i, c := range cols {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, c)
		}
		dst = append(dst, ']')
	}
	if len(rows) > 0 {
		dst = append(dst, `,"rows":[`...)
		for i, row := range rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			if row == nil {
				dst = append(dst, "null"...)
				continue
			}
			dst = append(dst, '[')
			for j, v := range row {
				if j > 0 {
					dst = append(dst, ',')
				}
				var ok bool
				if dst, ok = cell(dst, v); !ok {
					col := strconv.Itoa(j + 1)
					if j < len(cols) {
						col = strconv.Quote(cols[j])
					}
					return dst, rferrors.New(rferrors.CodeUnsupported,
						"result row %d, column %s: %v has no JSON encoding", i+1, col, v)
				}
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	if affected != 0 {
		dst = append(dst, `,"affected":`...)
		dst = strconv.AppendInt(dst, int64(affected), 10)
	}
	return dst, nil
}

// appendDatum writes an engine value: INTEGER and FLOAT as numbers, DATE as
// "YYYY-MM-DD", NULL as null.
func appendDatum(dst []byte, d sqltypes.Datum) ([]byte, bool) {
	switch d.Typ() {
	case sqltypes.Null:
		return append(dst, "null"...), true
	case sqltypes.Int:
		return strconv.AppendInt(dst, d.Int(), 10), true
	case sqltypes.Float:
		return appendFloat(dst, d.Float())
	case sqltypes.Bool:
		return strconv.AppendBool(dst, d.Bool()), true
	case sqltypes.String:
		return appendString(dst, d.Str()), true
	default:
		return appendString(dst, d.String()), true
	}
}

// appendAny writes a cell of Response.Rows; types beyond the ones a decoded
// response holds go through encoding/json.
func appendAny(dst []byte, v any) ([]byte, bool) {
	switch v := v.(type) {
	case nil:
		return append(dst, "null"...), true
	case float64:
		return appendFloat(dst, v)
	case int64:
		return strconv.AppendInt(dst, v, 10), true
	case string:
		return appendString(dst, v), true
	case bool:
		return strconv.AppendBool(dst, v), true
	default:
		b, err := json.Marshal(v)
		return append(dst, b...), err == nil
	}
}

// appendFloat writes f as encoding/json does: the shortest form that
// round-trips, in 'f' format except below 1e-6 and from 1e21 up, where the
// exponent form drops its leading zero (1e-07 → 1e-7). JSON has no form for
// infinities and NaN.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	// Below 2⁵³ an integral value's shortest form is its integer digits
	// (all but -0, which has a sign an integer cannot carry).
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, int64(f), 10), true
	}
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

// appendString writes s quoted as encoding/json does: the HTML characters
// <, > and & and the JavaScript line terminators U+2028 and U+2029 escaped,
// control characters escaped, and each byte of invalid UTF-8 as the escaped
// replacement character U+FFFD.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029: // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// decodeResponse parses one response into *r, replacing its contents. It
// accepts exactly what encoding/json's Unmarshal accepts into a Response and
// yields the same value: numbers in rows become float64, field names match
// case-insensitively, unknown fields are skipped, and a null leaves the zero
// Response. All cells of the response share one backing array.
func decodeResponse(data []byte, r *Response) error {
	*r = Response{}
	d := decoder{data: data}
	err := d.response(r)
	if err == nil {
		if d.space(); d.i < len(d.data) {
			err = d.syntax()
		}
	}
	if err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// decoder is a validating JSON reader over one response.
type decoder struct {
	data  []byte
	i     int
	depth int
}

// responseFields are Response's JSON names.
var responseFields = []string{"id", "ok", "error", "code", "session", "columns", "rows",
	"affected", "plan", "rewritten", "elapsed_us", "stats", "metrics"}

func (d *decoder) response(r *Response) error {
	switch d.peek() {
	case 'n':
		return d.word("null")
	case '{':
	default:
		return d.mismatch("response")
	}
	return d.list('}', func() error {
		key, err := d.key()
		if err != nil {
			return err
		}
		// An exact match first, then encoding/json's case folding.
		name := ""
		for _, f := range responseFields {
			if string(key) == f {
				name = f
				break
			}
		}
		if name == "" {
			for _, f := range responseFields {
				if bytes.EqualFold(key, []byte(f)) {
					name = f
					break
				}
			}
		}
		return d.field(r, name)
	})
}

// field decodes the value of the member named name. As in encoding/json, a
// null leaves a scalar field as it was and clears a slice or pointer.
func (d *decoder) field(r *Response, name string) error {
	switch name {
	case "id":
		return d.uint(name, &r.ID)
	case "session":
		return d.uint(name, &r.Session)
	case "affected":
		n := int64(r.Affected)
		err := d.int(name, &n)
		r.Affected = int(n)
		return err
	case "elapsed_us":
		return d.int(name, &r.ElapsedUs)
	case "ok":
		lit, err := d.scalar(name, "tf")
		if lit != nil {
			r.OK = lit[0] == 't'
		}
		return err
	case "error":
		return d.string(name, &r.Error)
	case "code":
		return d.string(name, &r.Code)
	case "plan":
		return d.string(name, &r.Plan)
	case "rewritten":
		return d.string(name, &r.Rewritten)
	case "metrics":
		return d.string(name, &r.Metrics)
	case "columns":
		return d.columns(&r.Columns)
	case "rows":
		return d.rows(&r.Rows, len(r.Columns))
	case "stats":
		kind, raw, err := d.value()
		if err != nil || kind == 'n' {
			r.Stats = nil
			return err
		}
		if r.Stats == nil {
			r.Stats = new(StatsReply)
		}
		return json.Unmarshal(raw, r.Stats)
	default:
		_, _, err := d.value()
		return err
	}
}

// scalar reads one value for field name: nil for null, the literal when its
// first byte is one of kinds, a type error otherwise.
func (d *decoder) scalar(name, kinds string) ([]byte, error) {
	kind, raw, err := d.value()
	switch {
	case err != nil || kind == 'n':
		return nil, err
	case strings.IndexByte(kinds, kind) < 0:
		return nil, fmt.Errorf("cannot decode %s into %s", raw, name)
	}
	return raw, nil
}

const numberStart = "-0123456789"

func (d *decoder) uint(name string, v *uint64) error {
	lit, err := d.scalar(name, numberStart)
	if lit == nil {
		return err
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		return fmt.Errorf("cannot decode %s into %s", lit, name)
	}
	*v = n
	return nil
}

func (d *decoder) int(name string, v *int64) error {
	lit, err := d.scalar(name, numberStart)
	if lit == nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return fmt.Errorf("cannot decode %s into %s", lit, name)
	}
	*v = n
	return nil
}

func (d *decoder) string(name string, v *string) error {
	lit, err := d.scalar(name, `"`)
	if lit != nil {
		*v, err = unquote(lit)
	}
	return err
}

// columns decodes a string array. Like encoding/json it reuses the slice a
// repeated "columns" member already filled, and a null element leaves the
// element it lands on.
func (d *decoder) columns(cols *[]string) error {
	switch d.peek() {
	case 'n':
		*cols = nil
		return d.word("null")
	case '[':
	default:
		return d.mismatch("columns")
	}
	s, i := *cols, 0
	err := d.list(']', func() error {
		kind, raw, err := d.value()
		if err != nil {
			return err
		}
		if i >= cap(s) {
			s = slices.Grow(s, 1)
		}
		if i >= len(s) {
			s = s[:i+1]
		}
		switch kind {
		case '"':
			if s[i], err = unquote(raw); err != nil {
				return err
			}
		case 'n':
		default:
			return fmt.Errorf("cannot decode %s into columns", raw)
		}
		i++
		return nil
	})
	if s == nil {
		s = []string{}
	}
	*cols = s[:i]
	return err
}

// rows decodes the row array, carving every row from one cell array. width,
// the column count when "columns" came first, sizes that array: each row ends
// in a ']', and each cell takes at least two bytes.
func (d *decoder) rows(rows *[][]any, width int) error {
	switch d.peek() {
	case 'n':
		*rows = nil
		return d.word("null")
	case '[':
	default:
		return d.mismatch("rows")
	}
	rest := d.data[d.i:]
	n := bytes.Count(rest, []byte{']'})
	// Non-nil from the start, so that an empty row stays distinct from null.
	cells := make([]any, 0, min(max(width, 1)*n, len(rest)/2))
	out := make([][]any, 0, n)
	err := d.list(']', func() error {
		switch d.peek() {
		case 'n':
			out = append(out, nil)
			return d.word("null")
		case '[':
		default:
			return d.mismatch("a row")
		}
		start := len(cells)
		err := d.list(']', func() error {
			v, err := d.cell()
			cells = append(cells, v)
			return err
		})
		out = append(out, cells[start:len(cells):len(cells)])
		return err
	})
	if err != nil {
		return err
	}
	// cells may have moved while it grew: point every row at its final home.
	start := 0
	for i, row := range out {
		if row != nil {
			end := start + len(row)
			out[i] = cells[start:end:end]
			start = end
		}
	}
	*rows = out
	return nil
}

// cell decodes one row value as encoding/json decodes into an interface:
// float64, string, bool, nil, or for a nested array or object what
// encoding/json builds.
func (d *decoder) cell() (any, error) {
	if c := d.peek(); c == '-' || '0' <= c && c <= '9' {
		return d.float()
	}
	kind, raw, err := d.value()
	if err != nil {
		return nil, err
	}
	switch kind {
	case 'n':
		return nil, nil
	case 't', 'f':
		return kind == 't', nil
	case '"':
		return unquote(raw)
	default:
		var v any
		err := json.Unmarshal(raw, &v) // a nested array or object
		return v, err
	}
}

// float reads a number literal into a float64. A plain integer of up to 15
// digits is exact in a float64 and is converted as it is scanned; anything
// else is validated and converted by strconv, as encoding/json does.
func (d *decoder) float() (any, error) {
	start := d.i
	if d.data[d.i] == '-' {
		d.i++
	}
	first := d.i
	var n int64
	for ; d.i < len(d.data) && d.i-first < 16 && '0' <= d.data[d.i] && d.data[d.i] <= '9'; d.i++ {
		n = n*10 + int64(d.data[d.i]-'0')
	}
	if k := d.i - first; k > 0 && k <= 15 && (k == 1 || d.data[first] != '0') &&
		(d.i == len(d.data) || d.data[d.i] != '.' && d.data[d.i] != 'e' && d.data[d.i] != 'E') {
		f := float64(n)
		if first > start {
			f = -f
		}
		return f, nil
	}
	d.i = start
	if err := d.number(); err != nil {
		return nil, err
	}
	f, err := strconv.ParseFloat(string(d.data[start:d.i]), 64)
	if err != nil {
		return nil, fmt.Errorf("cannot decode number %s", d.data[start:d.i])
	}
	return f, nil
}

// unquote returns the contents of a validated string literal.
func unquote(lit []byte) (string, error) {
	if s := lit[1 : len(lit)-1]; bytes.IndexByte(s, '\\') < 0 && utf8.Valid(s) {
		return string(s), nil
	}
	var s string
	err := json.Unmarshal(lit, &s) // escapes and invalid UTF-8, decoded as encoding/json does
	return s, err
}

// key reads an object member's name and its colon.
func (d *decoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.syntax()
	}
	_, lit, err := d.value()
	if err != nil {
		return nil, err
	}
	if d.space(); d.i >= len(d.data) || d.data[d.i] != ':' {
		return nil, d.syntax()
	}
	d.i++
	if s := lit[1 : len(lit)-1]; bytes.IndexByte(s, '\\') < 0 {
		return s, nil
	}
	s, err := unquote(lit)
	return []byte(s), err
}

// list reads the array or object opening at d.i, calling elem once per
// element (an object's elem reads its key too).
func (d *decoder) list(closing byte, elem func() error) error {
	if d.depth++; d.depth > maxDepth {
		return fmt.Errorf("offset %d: exceeded max depth", d.i)
	}
	d.i++
	if d.peek() == closing {
		d.i++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
		case closing:
			d.i++
			d.depth--
			return nil
		default:
			return d.syntax()
		}
	}
}

// value validates the next value and returns its first byte and its text.
func (d *decoder) value() (byte, []byte, error) {
	c := d.peek()
	start := d.i
	var err error
	switch {
	case c == '{':
		err = d.list('}', func() error {
			if _, err := d.key(); err != nil {
				return err
			}
			_, _, err := d.value()
			return err
		})
	case c == '[':
		err = d.list(']', func() error {
			_, _, err := d.value()
			return err
		})
	case c == '"':
		err = d.str()
	case c == '-' || '0' <= c && c <= '9':
		err = d.number()
	case c == 't':
		err = d.word("true")
	case c == 'f':
		err = d.word("false")
	case c == 'n':
		err = d.word("null")
	default:
		err = d.syntax()
	}
	return c, d.data[start:d.i], err
}

// str skips a string literal: no raw control characters, and only JSON's
// escapes.
func (d *decoder) str() error {
	for d.i++; d.i < len(d.data); d.i++ {
		switch c := d.data[d.i]; {
		case c == '"':
			d.i++
			return nil
		case c < ' ':
			return d.syntax()
		case c == '\\':
			d.i++
			if d.i >= len(d.data) {
				return d.syntax()
			}
			switch d.data[d.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if d.i++; d.i >= len(d.data) || !isHex(d.data[d.i]) {
						return d.syntax()
					}
				}
			default:
				return d.syntax()
			}
		}
	}
	return d.syntax()
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// number skips a number literal: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() error {
	if d.data[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.data) && d.data[d.i] == '0':
		d.i++
	case d.digits() == 0:
		return d.syntax()
	}
	if d.i < len(d.data) && d.data[d.i] == '.' {
		d.i++
		if d.digits() == 0 {
			return d.syntax()
		}
	}
	if d.i < len(d.data) && (d.data[d.i] == 'e' || d.data[d.i] == 'E') {
		d.i++
		if d.i < len(d.data) && (d.data[d.i] == '+' || d.data[d.i] == '-') {
			d.i++
		}
		if d.digits() == 0 {
			return d.syntax()
		}
	}
	return nil
}

func (d *decoder) digits() int {
	start := d.i
	for d.i < len(d.data) && '0' <= d.data[d.i] && d.data[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

func (d *decoder) word(w string) error {
	if !bytes.HasPrefix(d.data[d.i:], []byte(w)) {
		return d.syntax()
	}
	d.i += len(w)
	return nil
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	if d.space(); d.i < len(d.data) {
		return d.data[d.i]
	}
	return 0
}

func (d *decoder) space() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *decoder) syntax() error {
	if d.i >= len(d.data) {
		return fmt.Errorf("offset %d: unexpected end of JSON input", d.i)
	}
	return fmt.Errorf("offset %d: invalid character %q", d.i, d.data[d.i])
}

// mismatch validates the value at d.i and reports that it cannot decode into
// what.
func (d *decoder) mismatch(what string) error {
	_, raw, err := d.value()
	if err != nil {
		return err
	}
	return fmt.Errorf("cannot decode %s into %s", raw, what)
}
