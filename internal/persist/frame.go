package persist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// Frame format: 4-byte big-endian payload length, 4-byte big-endian
// IEEE CRC32 of the payload, payload bytes. The CRC covers only the
// payload; a corrupted length field is caught by the length bound or by
// the CRC of whatever the bogus length framed. The payload is one
// appended batch (see encodeBatch); its first byte tells the version.

// maxFrame bounds a single frame — one record or one batch. A corrupt
// length field must not make recovery allocate gigabytes; real records
// are a few hundred bytes to a few megabytes (design-data blobs). A
// variable only so tests can reach the bound without 64 MiB payloads.
var maxFrame = 64 << 20

const frameHeader = 8

// errTorn marks a frame that cannot be trusted: short header, short
// payload, oversized length, or checksum mismatch. Recovery treats it as
// the end of the clean prefix.
var errTorn = errors.New("persist: torn or corrupt frame")

func writeFrame(w *bufio.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("persist: frame of %d bytes exceeds frame limit", len(payload))
	}
	// The header is built in w's free buffer space, so it is not
	// allocated; every append flushes w, so there is room for it.
	hdr := w.AvailableBuffer()
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(payload)))
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame. It returns io.EOF at a clean segment end and
// errTorn for anything unreadable — including a trailing partial frame
// from a crash mid-write.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTorn // partial header
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if int64(n) > int64(maxFrame) {
		return nil, errTorn
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTorn // partial payload
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, errTorn
	}
	return payload, nil
}

// batchV2 is the first byte of a version-2 batch payload. Version-1
// payloads are JSON: '[' opens a batch, '{' a bare single record.
const batchV2 = 0x02

// encodeBatch appends the version-2 payload of recs, whose sequence
// numbers are already assigned and dense:
//
//	0x02
//	uvarint  first Seq
//	uvarint  record count
//	byte n,  n bytes: the last record's Now (time.MarshalBinary)
//	per record:
//	  byte     Kind
//	  varint   the next record's Now minus this one's, in nanoseconds (0 for the last)
//	  uvarint  body length, then the body
//
// The clock is monotonic and moves a few times per facade operation, so
// almost every step is zero: one byte per record.
func encodeBatch(b []byte, recs []*Record) ([]byte, error) {
	b = append(b, batchV2)
	b = binary.AppendUvarint(b, recs[0].Seq)
	b = binary.AppendUvarint(b, uint64(len(recs)))
	b, err := appendTimeBinary(b, recs[len(recs)-1].Now)
	if err != nil {
		return nil, err
	}
	for i, r := range recs {
		if r.Kind == KindV1 {
			return nil, fmt.Errorf("record %d uses the reserved kind 0", r.Seq)
		}
		var d time.Duration
		if i+1 < len(recs) {
			next := recs[i+1].Now
			if d = next.Sub(r.Now); !next.Add(-d).Equal(r.Now) {
				return nil, fmt.Errorf("record %d clock %v is out of range of the next record's %v", r.Seq, r.Now, next)
			}
		}
		b = append(b, byte(r.Kind))
		b = binary.AppendVarint(b, int64(d))
		b = binary.AppendUvarint(b, uint64(len(r.Body)))
		b = append(b, r.Body...)
	}
	return b, nil
}

// appendTimeBinary appends a length byte and then t.MarshalBinary()'s
// bytes. A UTC time, the virtual clock of every project that starts in
// UTC, is written in place — version 1, seconds since year 1,
// nanoseconds, zone offset -1, as MarshalBinary writes it — so that
// encoding a batch allocates nothing; any other location goes through
// MarshalBinary.
func appendTimeBinary(b []byte, t time.Time) ([]byte, error) {
	if t.Location() != time.UTC {
		tb, err := t.MarshalBinary()
		if err != nil {
			return nil, err
		}
		return append(append(b, byte(len(tb))), tb...), nil
	}
	// Unix() subtracts the year-1-to-1970 offset from the internal
	// seconds; adding it back is exact even where either wraps.
	const unixToInternal = (1969*365 + 1969/4 - 1969/100 + 1969/400) * 86400
	b = append(b, 15, 1) // length, version 1
	b = binary.BigEndian.AppendUint64(b, uint64(t.Unix()+unixToInternal))
	b = binary.BigEndian.AppendUint32(b, uint32(t.Nanosecond()))
	return binary.BigEndian.AppendUint16(b, 0xffff), nil // offset -1: UTC
}

// decodeBatch decodes one frame's payload: a version-2 batch, or a
// version-1 JSON array of records (a batch) or bare record (a
// single-record batch). ok is false for anything undecodable, empty, or
// whose sequence numbers are not dense — such a frame ends the clean
// prefix as a whole.
func decodeBatch(payload []byte) (recs []Record, ok bool) {
	if len(payload) == 0 {
		return nil, false
	}
	switch payload[0] {
	case batchV2:
		return decodeBatchV2(payload[1:])
	case '[', '{':
		return decodeBatchV1(payload)
	}
	return nil, false
}

func decodeBatchV2(p []byte) ([]Record, bool) {
	first, n := binary.Uvarint(p)
	if n <= 0 || first == 0 {
		return nil, false
	}
	p = p[n:]
	count, n := binary.Uvarint(p)
	// Every record takes at least three bytes, which bounds the
	// allocation a corrupt count can ask for.
	if n <= 0 || count == 0 || count > uint64(len(p)/3) || first+count-1 < first {
		return nil, false
	}
	p = p[n:]
	if len(p) == 0 || len(p) < 1+int(p[0]) {
		return nil, false
	}
	var last time.Time
	if last.UnmarshalBinary(p[1:1+int(p[0])]) != nil {
		return nil, false
	}
	p = p[1+int(p[0]):]
	recs := make([]Record, count)
	steps := make([]time.Duration, count)
	for i := range recs {
		if len(p) == 0 || p[0] == byte(KindV1) {
			return nil, false
		}
		kind := RecordKind(p[0])
		d, n := binary.Varint(p[1:])
		if n <= 0 {
			return nil, false
		}
		p = p[1+n:]
		size, n := binary.Uvarint(p)
		if n <= 0 || size > uint64(len(p)-n) {
			return nil, false
		}
		p = p[n:]
		recs[i] = Record{Seq: first + uint64(i), Kind: kind, Body: p[:size:size]}
		steps[i] = time.Duration(d)
		p = p[size:]
	}
	now := last
	for i := len(recs) - 1; i >= 0; i-- {
		now = now.Add(-steps[i])
		recs[i].Now = now
	}
	return recs, len(p) == 0
}

// v1Header is what the log reads of a version-1 JSON record; the rest
// of the object is the producer's.
type v1Header struct {
	Seq uint64    `json:"seq"`
	Now time.Time `json:"now"`
}

func decodeBatchV1(payload []byte) ([]Record, bool) {
	raws := []json.RawMessage{payload}
	if payload[0] == '[' {
		if json.Unmarshal(payload, &raws) != nil || len(raws) == 0 {
			return nil, false
		}
	}
	recs := make([]Record, len(raws))
	for i, raw := range raws {
		var h v1Header
		if len(raw) == 0 || raw[0] != '{' || json.Unmarshal(raw, &h) != nil || h.Seq == 0 {
			return nil, false
		}
		if i > 0 && h.Seq != recs[i-1].Seq+1 {
			return nil, false
		}
		recs[i] = Record{Seq: h.Seq, Now: h.Now, Kind: KindV1, Body: raw}
	}
	return recs, true
}
