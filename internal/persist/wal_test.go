package persist

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var t0 = time.Date(1995, time.June, 5, 9, 0, 0, 0, time.UTC)

// testKind is the record kind the tests append; the log never reads it.
const testKind RecordKind = 7

func testRecord(i int) *Record {
	return &Record{
		Now:  t0.Add(time.Duration(i) * time.Minute),
		Kind: testKind,
		Body: []byte(fmt.Sprintf(`{"id":"netlist/%d","i":%d}`, i, i)),
	}
}

func openReplayed(t *testing.T, dir string, opt Options) *Log {
	t.Helper()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	return l
}

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func replayAll(t *testing.T, dir string, opt Options) (*Log, []Record) {
	t.Helper()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if _, err := l.Replay(func(r *Record) error {
		recs = append(recs, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openReplayed(t, dir, Options{NoSync: true})
	appendN(t, l, 1, 25)
	if l.Seq() != 25 {
		t.Fatalf("seq = %d, want 25", l.Seq())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, recs := replayAll(t, dir, Options{NoSync: true})
	if len(recs) != 25 {
		t.Fatalf("replayed %d records, want 25", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.Kind != testKind || string(r.Body) != string(testRecord(i+1).Body) {
			t.Fatalf("record %d body mismatch: kind %d, %s", i, r.Kind, r.Body)
		}
		if !r.Now.Equal(t0.Add(time.Duration(i+1) * time.Minute)) {
			t.Fatalf("record %d Now = %v", i, r.Now)
		}
	}
	// Appends continue the sequence after a reopen.
	appendN(t, re, 26, 5)
	if re.Seq() != 30 {
		t.Fatalf("seq after reopen-append = %d, want 30", re.Seq())
	}
	re.Close()
}

func TestSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	l := openReplayed(t, dir, Options{NoSync: true, SegmentBytes: 256})
	appendN(t, l, 1, 40)
	l.Close()
	segs, err := l.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments with a 256-byte roll threshold", len(segs))
	}
	_, recs := replayAll(t, dir, Options{NoSync: true})
	if len(recs) != 40 {
		t.Fatalf("replayed %d records across segments, want 40", len(recs))
	}
}

func TestTornTailDiscarded(t *testing.T) {
	for cut := 1; cut <= 12; cut++ {
		dir := t.TempDir()
		l := openReplayed(t, dir, Options{NoSync: true})
		appendN(t, l, 1, 3)
		l.Close()
		segs, _ := l.segments()
		if len(segs) != 1 {
			t.Fatal("expected a single segment")
		}
		// Emulate a crash mid-write: chop `cut` bytes off the tail.
		b, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		if cut >= len(b) {
			break
		}
		if err := os.WriteFile(segs[0], b[:len(b)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, recs := replayAll(t, dir, Options{NoSync: true})
		if len(recs) != 2 {
			t.Fatalf("cut %d: replayed %d records, want clean prefix of 2", cut, len(recs))
		}
		// The torn tail is discarded: new appends extend the clean prefix.
		appendN(t, re, 3, 1)
		re.Close()
		_, recs2 := replayAll(t, dir, Options{NoSync: true})
		if len(recs2) != 3 || recs2[2].Seq != 3 {
			t.Fatalf("cut %d: after repair got %d records", cut, len(recs2))
		}
	}
}

func TestBitFlipEndsCleanPrefix(t *testing.T) {
	dir := t.TempDir()
	l := openReplayed(t, dir, Options{NoSync: true})
	appendN(t, l, 1, 5)
	l.Close()
	segs, _ := l.segments()
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit two-thirds in: some record's payload or header no
	// longer checksums; everything after it is discarded.
	pos := 2 * len(b) / 3
	b[pos] ^= 0x40
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs := replayAll(t, dir, Options{NoSync: true})
	if len(recs) >= 5 {
		t.Fatalf("bit flip survived: %d records", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("recovered prefix not clean: record %d has seq %d", i, r.Seq)
		}
	}
}

func TestSequenceGapEndsCleanPrefix(t *testing.T) {
	dir := t.TempDir()
	l := openReplayed(t, dir, Options{NoSync: true, SegmentBytes: 128})
	appendN(t, l, 1, 10)
	l.Close()
	segs, _ := l.segments()
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}
	// Lose a middle segment: the records after the hole must not replay.
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	_, recs := replayAll(t, dir, Options{NoSync: true})
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("gap leaked: record %d has seq %d", i, r.Seq)
		}
	}
	if len(recs) >= 10 {
		t.Fatal("records past a sequence gap were replayed")
	}
	// The segments past the gap were dropped from disk.
	left, _ := l.segments()
	if len(left) >= len(segs)-1 {
		t.Fatalf("%d segments remain after gap repair", len(left))
	}
}

func TestCheckpointTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	l := openReplayed(t, dir, Options{NoSync: true, SegmentBytes: 128})
	appendN(t, l, 1, 10)
	state := []byte(`{"projected":"state","records":10}`)
	if err := l.WriteCheckpoint(state); err != nil {
		t.Fatal(err)
	}
	segs, _ := l.segments()
	if len(segs) != 0 {
		t.Fatalf("%d segments survive a covering checkpoint", len(segs))
	}
	if l.SinceCheckpoint() != 0 {
		t.Fatalf("SinceCheckpoint = %d after checkpoint", l.SinceCheckpoint())
	}
	appendN(t, l, 11, 4)
	if l.SinceCheckpoint() != 4 {
		t.Fatalf("SinceCheckpoint = %d, want 4", l.SinceCheckpoint())
	}
	l.Close()

	re, recs := replayAll(t, dir, Options{NoSync: true})
	cp, seq, ok := re.Checkpoint()
	if !ok || seq != 10 || string(cp) != string(state) {
		t.Fatalf("checkpoint = %q @%d ok=%v", cp, seq, ok)
	}
	if len(recs) != 4 || recs[0].Seq != 11 {
		t.Fatalf("replayed %d records after checkpoint", len(recs))
	}
	if re.Seq() != 14 {
		t.Fatalf("seq = %d, want 14", re.Seq())
	}
	re.Close()
}

func TestCrashBetweenCheckpointAndTruncation(t *testing.T) {
	dir := t.TempDir()
	l := openReplayed(t, dir, Options{NoSync: true})
	appendN(t, l, 1, 6)
	l.Close()
	segs, _ := l.segments()
	seg := segs[0]
	kept, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint, then resurrect the covered segment — as if the process
	// died after the rename but before the unlink.
	l2 := openReplayed(t, dir, Options{NoSync: true})
	if err := l2.WriteCheckpoint([]byte(`"cp"`)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if err := os.WriteFile(seg, kept, 0o644); err != nil {
		t.Fatal(err)
	}
	re, recs := replayAll(t, dir, Options{NoSync: true})
	if len(recs) != 0 {
		t.Fatalf("covered records replayed: %d", len(recs))
	}
	if re.Seq() != 6 {
		t.Fatalf("seq = %d, want 6 from checkpoint", re.Seq())
	}
	appendN(t, re, 7, 1)
	re.Close()
	_, recs2 := replayAll(t, dir, Options{NoSync: true})
	if len(recs2) != 1 || recs2[0].Seq != 7 {
		t.Fatalf("post-crash append not recovered: %+v", recs2)
	}
}

func TestStaleCheckpointTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	l := openReplayed(t, dir, Options{NoSync: true})
	appendN(t, l, 1, 3)
	l.Close()
	// A crash mid-checkpoint leaves a tmp file; it was never installed.
	if err := os.WriteFile(filepath.Join(dir, checkpointName+".tmp"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, recs := replayAll(t, dir, Options{NoSync: true})
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if _, _, ok := re.Checkpoint(); ok {
		t.Fatal("uninstalled checkpoint surfaced")
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointName+".tmp")); !os.IsNotExist(err) {
		t.Fatal("stale checkpoint tmp not cleaned up")
	}
	re.Close()
}

func TestCorruptCheckpointRefusesRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openReplayed(t, dir, Options{NoSync: true})
	appendN(t, l, 1, 3)
	if err := l.WriteCheckpoint([]byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(dir, checkpointName)
	b, _ := os.ReadFile(path)
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

func TestLifecycleGuards(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testRecord(1)); err == nil {
		t.Fatal("append before Replay accepted")
	}
	if err := l.WriteCheckpoint(nil); err == nil {
		t.Fatal("checkpoint before Replay accepted")
	}
	if _, err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Replay(nil); err == nil {
		t.Fatal("second Replay accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testRecord(1)); err == nil {
		t.Fatal("append after Close accepted")
	}
}

func TestFootprintBytes(t *testing.T) {
	dir := t.TempDir()
	l := openReplayed(t, dir, Options{NoSync: true})
	appendN(t, l, 1, 8)
	n, err := l.FootprintBytes()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("zero footprint with live segments")
	}
	l.Close()
}

// TestCheckpointWrapperLayout: WriteCheckpoint writes exactly the
// wrapper encoding/json gives the struct the log used to marshal,
// without re-encoding the payload, and Open reads it back.
func TestCheckpointWrapperLayout(t *testing.T) {
	dir := t.TempDir()
	l := openReplayed(t, dir, Options{NoSync: true})
	appendN(t, l, 1, 3)
	payload := []byte(`{"store":{"version":3},"events":[["a","b",1]]}`)
	if err := l.WriteCheckpoint(payload); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(struct {
		Seq     uint64          `json:"seq"`
		CRC     uint32          `json:"crc"`
		Payload json.RawMessage `json:"payload"`
	}{3, crc32.ChecksumIEEE(payload), payload})
	if string(got) != string(want) {
		t.Fatalf("checkpoint file\n %s\nwant\n %s", got, want)
	}
	re, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if cp, seq, ok := re.Checkpoint(); !ok || seq != 3 || string(cp) != string(payload) {
		t.Fatalf("checkpoint %s @%d ok=%v", cp, seq, ok)
	}
}

// TestCheckpointNotPinnedAfterReplay: the log hands the payload Open read
// to recovery and drops it at Replay; Checkpoint reads the file after
// that, also for a checkpoint the log installed itself.
func TestCheckpointNotPinnedAfterReplay(t *testing.T) {
	dir := t.TempDir()
	l := openReplayed(t, dir, Options{NoSync: true})
	appendN(t, l, 1, 2)
	if err := l.WriteCheckpoint([]byte(`{"n":2}`)); err != nil {
		t.Fatal(err)
	}
	if l.cp != nil {
		t.Fatal("WriteCheckpoint kept a copy of the payload")
	}
	if cp, seq, ok := l.Checkpoint(); !ok || seq != 2 || string(cp) != `{"n":2}` {
		t.Fatalf("checkpoint %s @%d ok=%v", cp, seq, ok)
	}
	l.Close()
	re, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.cp == nil {
		t.Fatal("Open did not hold the payload for recovery")
	}
	if _, err := re.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if re.cp != nil {
		t.Fatal("the payload is still pinned after Replay")
	}
	if cp, seq, ok := re.Checkpoint(); !ok || seq != 2 || string(cp) != `{"n":2}` {
		t.Fatalf("checkpoint after Replay %s @%d ok=%v", cp, seq, ok)
	}
}
