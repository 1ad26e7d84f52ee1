package server

import (
	"encoding/json"
	"testing"
)

// BenchmarkResponseCodec encodes and decodes a serve_hot-shaped answer (256
// rows of position and window value) with the codec and with encoding/json's
// reflection over the same Response.
func BenchmarkResponseCodec(b *testing.B) {
	rows := make([][]any, 256)
	for i := range rows {
		rows[i] = []any{int64(i + 1), float64(1000 + 37*i)}
	}
	resp := Response{ID: 1, OK: true, Session: 1, Columns: []string{"pos", "w"}, Rows: rows, Affected: len(rows)}
	line := appendResponse(nil, &resp)
	b.Run("encode", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = appendResponse(buf[:0], &resp)
		}
	})
	b.Run("encode-reflect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal((*plainResponse)(&resp)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var r Response
			if err := decodeResponse(line, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-reflect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var r plainResponse
			if err := json.Unmarshal(line, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
