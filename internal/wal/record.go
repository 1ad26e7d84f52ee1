// Package wal is the durability subsystem of rfview: a logical write-ahead
// log, periodic snapshots of the whole engine state, and crash recovery that
// replays the log tail into the engine.
//
// What the log holds: DML reaches it as one commit record per transaction,
// appended at commit, so a failed or rolled-back statement leaves no trace;
// DDL, REFRESH and CREATE MATERIALIZED VIEW log their SQL ahead of apply and
// replay through the normal exec path, where one that failed re-fails.
//
// The design leans on one property of the engine: it is deterministic. A
// write replayed against the state it originally saw reproduces exactly the
// state it originally produced — including materialized sequence views and
// their §2.3 maintainer state, which are pure functions of the base tables
// they were declared over. That makes a *logical* log a complete redo log,
// with none of the page-level machinery a physical WAL needs.
//
// On-disk layout under the data directory:
//
//	wal/wal-<firstLSN>.seg    log segments, rotated by size
//	snap-<lsn>.snap           snapshots; <lsn> is the last record folded in
//	snap-*.tmp                in-progress snapshot writes (ignored, removed)
//
// Record framing (this file): every record is
//
//	uint32 LE  payload length
//	uint32 LE  CRC32 (IEEE) of the payload
//	payload =  uint64 LE LSN ++ statement SQL or commit record (UTF-8)
//
// A reader stops at the first record whose header is short, whose length is
// implausible, or whose CRC does not match — the torn-tail rule. Everything
// before that point is trusted; everything from it on is discarded.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// maxRecordBytes bounds one record's payload; longer lengths in a header are
// treated as tail corruption rather than honored as allocations.
const maxRecordBytes = 16 << 20

// segMagic opens every segment file; a file without it is not replayed.
const segMagic = "RFWAL001"

// Record is one logical WAL entry.
type Record struct {
	// LSN is the log sequence number, strictly increasing across segments.
	LSN uint64
	// SQL is the canonical text of the logged statement (stmt.String()).
	SQL string
}

// appendRecord serializes a record onto buf and returns the extended slice.
func appendRecord(buf []byte, rec Record) []byte {
	payloadLen := 8 + len(rec.SQL)
	var hdr [16]byte // 4 len + 4 crc + 8 lsn
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payloadLen))
	binary.LittleEndian.PutUint64(hdr[8:16], rec.LSN)
	crc := crc32.NewIEEE()
	crc.Write(hdr[8:16])
	crc.Write([]byte(rec.SQL))
	binary.LittleEndian.PutUint32(hdr[4:8], crc.Sum32())
	buf = append(buf, hdr[:]...)
	return append(buf, rec.SQL...)
}

// readRecords parses every complete, checksummed record from data (one
// segment's contents after the magic). It returns the records and the byte
// offset of the first bad record; ok is false when the segment ended mid-
// record or with a CRC mismatch — the torn-tail case.
func readRecords(data []byte) (recs []Record, goodLen int, ok bool) {
	off := 0
	for {
		if off == len(data) {
			return recs, off, true
		}
		if len(data)-off < 8 {
			return recs, off, false // torn header
		}
		payloadLen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if payloadLen < 8 || payloadLen > maxRecordBytes || len(data)-off-8 < payloadLen {
			return recs, off, false // implausible length or torn payload
		}
		payload := data[off+8 : off+8+payloadLen]
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return recs, off, false // bad CRC
		}
		recs = append(recs, Record{
			LSN: binary.LittleEndian.Uint64(payload[0:8]),
			SQL: string(payload[8:]),
		})
		off += 8 + payloadLen
	}
}

// writeMagic writes the segment header.
func writeMagic(w io.Writer) error {
	_, err := io.WriteString(w, segMagic)
	return err
}

// checkMagic validates and strips the segment header.
func checkMagic(data []byte) ([]byte, error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("wal: bad segment magic")
	}
	return data[len(segMagic):], nil
}
