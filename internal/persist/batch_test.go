package persist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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
		if r.Seq != uint64(i+1) || r.Kind != testKind || string(r.Body) != string(testRecord(i+1).Body) {
			t.Fatalf("record %d: seq %d, kind %d, body %s", i, r.Seq, r.Kind, r.Body)
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

// TestLegacyFramesThenBatches: a segment the version-1 log wrote — bare
// JSON record frames, then a JSON array batch frame — replays as KindV1
// records carrying each JSON object, and version-2 batches appended
// after it replay in order behind them.
func TestLegacyFramesThenBatches(t *testing.T) {
	v1 := func(i int) string {
		return fmt.Sprintf(`{"seq":%d,"now":"%s","kind":"store","store":{"Kind":"touch","Version":%d}}`,
			i, t0.Add(time.Duration(i)*time.Minute).Format(time.RFC3339Nano), i)
	}
	var seg bytes.Buffer
	w := bufio.NewWriter(&seg)
	var batch []string
	for i := 1; i <= 9; i++ {
		if i <= 3 {
			if err := writeFrame(w, []byte(v1(i))); err != nil {
				t.Fatal(err)
			}
		} else {
			batch = append(batch, v1(i))
		}
	}
	if err := writeFrame(w, []byte("["+strings.Join(batch, ",")+"]")); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	dir := t.TempDir()
	legacy := filepath.Join(dir, segmentName(1))
	if err := os.WriteFile(legacy, seg.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := len(frameEnds(t, legacy)); got != 4 {
		t.Fatalf("%d legacy frames, want 4", got)
	}

	check := func(recs []Record, n int) {
		t.Helper()
		if len(recs) != n {
			t.Fatalf("replayed %d records, want %d", len(recs), n)
		}
		for i, r := range recs[:9] {
			if r.Seq != uint64(i+1) || r.Kind != KindV1 || string(r.Body) != v1(i+1) ||
				!r.Now.Equal(t0.Add(time.Duration(i+1)*time.Minute)) {
				t.Fatalf("legacy record %d: seq %d, kind %d, now %v, body %s", i, r.Seq, r.Kind, r.Now, r.Body)
			}
		}
		for i, r := range recs[9:] {
			if want := testRecord(10 + i); r.Seq != uint64(10+i) || r.Kind != testKind ||
				string(r.Body) != string(want.Body) || !r.Now.Equal(want.Now) {
				t.Fatalf("record %d: seq %d, kind %d, body %s", 10+i, r.Seq, r.Kind, r.Body)
			}
		}
	}
	l, recs := replayAll(t, dir, Options{NoSync: true})
	check(recs, 9)
	appendN(t, l, 10, 1)
	appendBatch(t, l, 11, 2)
	l.Close()

	re, recs := replayAll(t, dir, Options{NoSync: true})
	check(recs, 12)
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
			batch[i].Body = bytes.Repeat([]byte("x"), 400)
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
