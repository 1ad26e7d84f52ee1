package spill

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Run format. A run is a span of its Sorter's one run file: a sequence of
// framed records, each one (key, payload) pair, written in key order:
//
//	uint32 LE  payload length
//	uint32 LE  CRC32 (IEEE) of the payload
//	payload =  uvarint key length ++ key bytes ++ payload bytes
//
// The framing mirrors the WAL's record format, but the integrity contract
// differs: a WAL tolerates a torn tail (the crash happened mid-append), a
// spill run does not — runs are written completely before they are read, so
// any framing or CRC failure is corruption and fails the query rather than
// silently dropping rows.

// maxSpillRecordBytes bounds one record; longer lengths in a header are
// corruption, not allocations.
const maxSpillRecordBytes = 64 << 20

// span locates one run inside its Sorter's run file.
type span struct {
	off, len int64
}

// runBufferSize is the buffer a reader or writer of a span of n bytes gets:
// the whole span up to 64 KiB, so a short run costs no 64 KiB clear.
func runBufferSize(n int64) int {
	return int(min(n, 64<<10))
}

// runWriter appends framed records to a run file from offset off on.
type runWriter struct {
	w     *bufio.Writer
	hdr   [8]byte
	off   int64
	bytes int64
}

func newRunWriter(f *os.File, off, size int64) *runWriter {
	return &runWriter{w: bufio.NewWriterSize(io.NewOffsetWriter(f, off), runBufferSize(size)), off: off}
}

// append writes one (key, payload) record.
func (rw *runWriter) append(key, payload []byte) error {
	var klen [binary.MaxVarintLen64]byte
	kn := binary.PutUvarint(klen[:], uint64(len(key)))
	payloadLen := kn + len(key) + len(payload)
	crc := crc32.NewIEEE()
	crc.Write(klen[:kn])
	crc.Write(key)
	crc.Write(payload)
	binary.LittleEndian.PutUint32(rw.hdr[0:4], uint32(payloadLen))
	binary.LittleEndian.PutUint32(rw.hdr[4:8], crc.Sum32())
	for _, b := range [][]byte{rw.hdr[:], klen[:kn], key, payload} {
		if _, err := rw.w.Write(b); err != nil {
			return fmt.Errorf("spill: write run: %w", err)
		}
	}
	rw.bytes += int64(8 + payloadLen)
	return nil
}

// finish flushes the writer and returns the span the run occupies.
func (rw *runWriter) finish() (span, error) {
	if err := rw.w.Flush(); err != nil {
		return span{}, fmt.Errorf("spill: flush run: %w", err)
	}
	return span{off: rw.off, len: rw.bytes}, nil
}

// runReader streams framed records back out of one run's span.
type runReader struct {
	r   *bufio.Reader
	buf []byte // reused record buffer; key/payload returned by next alias it
}

func newRunReader(f *os.File, sp span) *runReader {
	return &runReader{r: bufio.NewReaderSize(io.NewSectionReader(f, sp.off, sp.len), runBufferSize(sp.len))}
}

// next returns the next record's key and payload, valid until the following
// call. io.EOF (returned bare) signals a clean end of run.
func (rr *runReader) next() (key, payload []byte, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(rr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, nil, io.EOF
		}
		return nil, nil, fmt.Errorf("spill: corrupt run (torn header): %w", err)
	}
	payloadLen := int(binary.LittleEndian.Uint32(hdr[0:4]))
	wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
	if payloadLen < 1 || payloadLen > maxSpillRecordBytes {
		return nil, nil, fmt.Errorf("spill: corrupt run (record length %d)", payloadLen)
	}
	if cap(rr.buf) < payloadLen {
		rr.buf = make([]byte, payloadLen)
	}
	rr.buf = rr.buf[:payloadLen]
	if _, err := io.ReadFull(rr.r, rr.buf); err != nil {
		return nil, nil, fmt.Errorf("spill: corrupt run (torn record): %w", err)
	}
	if crc32.ChecksumIEEE(rr.buf) != wantCRC {
		return nil, nil, fmt.Errorf("spill: corrupt run (CRC mismatch)")
	}
	klen, kn := binary.Uvarint(rr.buf)
	if kn <= 0 || int(klen) > payloadLen-kn {
		return nil, nil, fmt.Errorf("spill: corrupt run (bad key length)")
	}
	key = rr.buf[kn : kn+int(klen)]
	payload = rr.buf[kn+int(klen):]
	return key, payload, nil
}
