package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame format: 4-byte big-endian payload length, 4-byte big-endian
// IEEE CRC32 of the payload, payload bytes. The CRC covers only the
// payload; a corrupted length field is caught by the length bound or by
// the CRC of whatever the bogus length framed. The payload is one
// appended batch: a bare JSON record, or a JSON array of records.

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
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
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
