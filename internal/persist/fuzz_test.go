package persist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// segmentRecords decodes every frame of a segment; ok is false if any
// byte of it is not part of a clean frame.
func segmentRecords(b []byte) (recs []Record, ok bool) {
	r := bufio.NewReader(bytes.NewReader(b))
	for {
		payload, err := readFrame(r)
		if err == io.EOF {
			return recs, true
		}
		if err != nil {
			return nil, false
		}
		batch, ok := decodeBatch(payload)
		if !ok {
			return nil, false
		}
		recs = append(recs, batch...)
	}
}

// sameRecords compares records by value; Now by instant, since each
// decode of a zoned clock makes its own *time.Location.
func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Kind != b[i].Kind || !bytes.Equal(a[i].Body, b[i].Body) || !a[i].Now.Equal(b[i].Now) {
			return false
		}
	}
	return true
}

// FuzzReplay feeds arbitrary bytes to the WAL reader as the only segment
// of a log whose checkpoint covers cpSeq records (none when 0). Replay
// must never panic, and must always deliver a whole-batch clean prefix:
// sequence numbers dense from cpSeq+1, the segment truncated to exactly
// the frames whose records were delivered, a second recovery delivering
// the same records and leaving the bytes alone, and an append after it
// continuing the sequence. The seeds are the version-1 fixture segment
// (bare record and array frames, after a checkpoint at 48) and a
// version-2 segment.
func FuzzReplay(f *testing.F) {
	legacy, err := filepath.Glob("../../testdata/v1/durable/wal-*.seg")
	if err != nil || len(legacy) == 0 {
		f.Fatalf("version-1 fixture segment: %v %v", legacy, err)
	}
	for _, seg := range legacy {
		b, err := os.ReadFile(seg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, uint64(48))
	}
	dir := f.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := l.Replay(nil); err != nil {
		f.Fatal(err)
	}
	for i, n := range []int{1, 3, 1, 5} {
		batch := make([]*Record, n)
		for j := range batch {
			batch[j] = testRecord(10*i + j)
		}
		if _, err := l.AppendBatch(batch); err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	v2, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2, uint64(0))
	f.Add(v2, uint64(4))

	f.Fuzz(checkReplay)
}

// checkReplay is FuzzReplay's property for one input.
func checkReplay(t *testing.T, seg []byte, cpSeq uint64) {
	{
		cpSeq %= 1 << 20 // a sequence a real log can reach
		dir := t.TempDir()
		if cpSeq > 0 {
			cp := append(appendCheckpointHead(nil, cpSeq, []byte(`{}`)), `{}}`...)
			if err := os.WriteFile(filepath.Join(dir, checkpointName), cp, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		replay := func() (*Log, []Record) {
			l, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			var got []Record
			if _, err := l.Replay(func(r *Record) error {
				got = append(got, *r)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return l, got
		}
		l, got := replay()
		l.Close()
		for i, r := range got {
			if r.Seq != cpSeq+uint64(i)+1 {
				t.Fatalf("record %d has seq %d after a checkpoint at %d", i, r.Seq, cpSeq)
			}
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(seg, kept) {
			t.Fatalf("the kept %d bytes are not a prefix of the segment", len(kept))
		}
		framed, ok := segmentRecords(kept)
		if !ok {
			t.Fatal("the kept segment does not end on a frame boundary")
		}
		var live []Record
		for _, r := range framed {
			if r.Seq > cpSeq {
				live = append(live, r)
			}
		}
		if !sameRecords(live, got) {
			t.Fatalf("delivered %d records, but the kept frames hold %d past the checkpoint", len(got), len(live))
		}

		re, again := replay()
		defer re.Close()
		if !sameRecords(again, got) {
			t.Fatalf("second recovery delivered %d records, first %d", len(again), len(got))
		}
		if b, _ := os.ReadFile(path); !bytes.Equal(b, kept) {
			t.Fatal("second recovery changed the segment")
		}
		next := &Record{Now: time.Unix(0, 0), Kind: testKind, Body: []byte(fmt.Sprint(len(got)))}
		if seq, err := re.Append(next); err != nil || seq != cpSeq+uint64(len(got))+1 {
			t.Fatalf("append after recovery: seq %d, %v", seq, err)
		}
	}
}
