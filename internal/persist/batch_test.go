package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"
)

// appendBatch appends records from..from+n-1 as one batch.
func appendBatch(t *testing.T, l *Log, from, n int) {
	t.Helper()
	batch := make([]*Record, n)
	for i := range batch {
		batch[i] = testRecord(from + i)
	}
	if _, err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
}

// frameEnds returns the end offset of every frame in a segment.
func frameEnds(t *testing.T, seg string) []int64 {
	t.Helper()
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(bytes.NewReader(b))
	var ends []int64
	var off int64
	for {
		payload, err := readFrame(r)
		if err != nil {
			break
		}
		off += frameHeader + int64(len(payload))
		ends = append(ends, off)
	}
	if off != int64(len(b)) {
		t.Fatalf("%s: %d unframed bytes", seg, int64(len(b))-off)
	}
	return ends
}

// checkSeqs asserts recs are exactly seqs 1..n.
func checkSeqs(t *testing.T, recs []Record, n int) {
	t.Helper()
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Store == nil || r.Store.Version != uint64(i+1) {
			t.Fatalf("record %d: seq %d, body %+v", i, r.Seq, r.Store)
		}
	}
}

// TestDamagedBatchDropsWholeBatch: a multi-record frame is all or
// nothing. Any torn cut or bit flip inside it ends the clean prefix at
// the batch before it, and nothing after it survives.
func TestDamagedBatchDropsWholeBatch(t *testing.T) {
	// Frames: three single records (seqs 1–3), a batch of five (4–8),
	// a batch of four (9–12).
	build := func(t *testing.T) (string, string, []int64) {
		dir := t.TempDir()
		l := openReplayed(t, dir, Options{NoSync: true})
		appendN(t, l, 1, 3)
		appendBatch(t, l, 4, 5)
		appendBatch(t, l, 9, 4)
		l.Close()
		segs, _ := l.segments()
		if len(segs) != 1 {
			t.Fatalf("%d segments, want 1", len(segs))
		}
		ends := frameEnds(t, segs[0])
		if len(ends) != 5 {
			t.Fatalf("%d frames, want 5", len(ends))
		}
		return dir, segs[0], ends
	}
	_, _, ends := build(t)
	start, end := ends[2], ends[3] // the five-record batch

	for cut := start + 1; cut < end; cut += 7 {
		dir, seg, _ := build(t)
		b, _ := os.ReadFile(seg)
		if err := os.WriteFile(seg, b[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, recs := replayAll(t, dir, Options{NoSync: true})
		checkSeqs(t, recs, 3)
		// The torn batch is gone from disk: the next append continues at 4.
		appendBatch(t, re, 4, 2)
		re.Close()
		_, recs = replayAll(t, dir, Options{NoSync: true})
		checkSeqs(t, recs, 5)
	}

	for pos := start; pos < end; pos += 5 {
		dir, seg, _ := build(t)
		b, _ := os.ReadFile(seg)
		b[pos] ^= 0x10
		if err := os.WriteFile(seg, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, recs := replayAll(t, dir, Options{NoSync: true})
		checkSeqs(t, recs, 3)
	}
}

// TestLegacyFramesThenBatches: single-record frames are byte-for-byte
// the frames logs held before batching, and a segment holding them
// followed by batch frames replays in order.
func TestLegacyFramesThenBatches(t *testing.T) {
	dir := t.TempDir()
	l := openReplayed(t, dir, Options{NoSync: true})
	appendN(t, l, 1, 3)
	appendBatch(t, l, 4, 6)
	appendN(t, l, 10, 1)
	appendBatch(t, l, 11, 2)
	l.Close()
	segs, _ := l.segments()
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1", len(segs))
	}

	// The legacy frame: the bare JSON record under the 8-byte header.
	var legacy bytes.Buffer
	w := bufio.NewWriter(&legacy)
	for i := 1; i <= 3; i++ {
		r := testRecord(i)
		r.Seq = uint64(i)
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(w, payload); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, legacy.Bytes()) {
		t.Fatal("single-record frames differ from the legacy frame format")
	}
	if got := len(frameEnds(t, segs[0])); got != 6 {
		t.Fatalf("%d frames, want 6", got)
	}

	re, recs := replayAll(t, dir, Options{NoSync: true})
	checkSeqs(t, recs, 12)
	if re.Seq() != 12 || re.SinceCheckpoint() != 12 {
		t.Fatalf("seq %d, since checkpoint %d; want 12, 12", re.Seq(), re.SinceCheckpoint())
	}
	re.Close()
}

// TestOversizedBatchFailsBeforeWriting: a batch whose frame would
// exceed maxFrame fails before any byte reaches the segment, and — as
// an oversized single record does — poisons the log, so recovery holds
// exactly the batches acknowledged before it.
func TestOversizedBatchFailsBeforeWriting(t *testing.T) {
	defer func(n int) { maxFrame = n }(maxFrame)
	for _, size := range []int{1, 8} {
		dir := t.TempDir()
		l := openReplayed(t, dir, Options{NoSync: true})
		appendN(t, l, 1, 2)
		appendBatch(t, l, 3, 2)
		segs, _ := l.segments()
		before, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}

		batch := make([]*Record, size)
		for i := range batch {
			batch[i] = testRecord(5 + i)
			batch[i].Store.Payload = json.RawMessage(`"` + string(bytes.Repeat([]byte("x"), 400)) + `"`)
		}
		maxFrame = 256
		_, err = l.AppendBatch(batch)
		maxFrame = 64 << 20
		if err == nil {
			t.Fatalf("batch of %d over the frame limit accepted", size)
		}
		if errors.Is(err, ErrLogFailed) || l.Failed() == nil {
			t.Fatalf("batch of %d: err %v, Failed %v; want the size error, then a sticky failure", size, err, l.Failed())
		}
		if l.Seq() != 4 {
			t.Fatalf("batch of %d: seq advanced to %d", size, l.Seq())
		}
		after, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("batch of %d: segment changed from %d to %d bytes", size, len(before), len(after))
		}
		if _, err := l.Append(testRecord(5)); !errors.Is(err, ErrLogFailed) {
			t.Fatalf("append after an oversized batch = %v, want ErrLogFailed", err)
		}
		l.Close()
		_, recs := replayAll(t, dir, Options{NoSync: true})
		checkSeqs(t, recs, 4)
	}
}
