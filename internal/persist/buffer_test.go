package persist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAppendBatchFramesMatchFreshEncoding drives AppendBatch's reused
// frame buffer through a batch over MaxReusedBuffer (dropped after its
// batch), smaller batches (kept and reused), and a batch whose write
// fails. The caller reuses its own records and body buffer between
// batches, as the durable project does. Every frame on disk must be
// byte-identical to encodeBatch on a fresh buffer.
func TestAppendBatchFramesMatchFreshEncoding(t *testing.T) {
	sizes := [][]int{{MaxReusedBuffer + 1024}, {40, 300, 7}, {1}, {2000, 2000, 2000}, {5, 5}}
	run := func(dir string, fs FS) (want [][]byte, frameCaps []int, err error) {
		l, err := Open(dir, Options{NoSync: true, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Replay(nil); err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var body []byte
		var recs []Record
		var batch []*Record
		for b, lens := range sizes {
			body, recs, batch = body[:0], recs[:0], batch[:0]
			for i, n := range lens {
				start := len(body)
				body = append(body, bytes.Repeat([]byte{byte('a' + (b+i)%26)}, n)...)
				recs = append(recs, Record{
					Now:  t0.Add(time.Duration(b*10+i) * time.Second),
					Kind: testKind, Body: body[start:len(body):len(body)],
				})
			}
			for i := range recs {
				batch = append(batch, &recs[i])
			}
			if _, err := l.AppendBatch(batch); err != nil {
				return want, frameCaps, err
			}
			fresh, err := encodeBatch(nil, batch)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, fresh)
			frameCaps = append(frameCaps, cap(l.frame))
			// The log keeps no body: scribbling over the caller's buffer
			// must not reach a later frame.
			for i := range body {
				body[i] = '#'
			}
		}
		return want, frameCaps, nil
	}

	cleanDir := t.TempDir()
	count := NewFaultFS(OSFS{}, 3)
	want, caps, err := run(cleanDir, count)
	if err != nil {
		t.Fatal(err)
	}
	if caps[0] != 0 {
		t.Fatalf("frame buffer of %d bytes kept after a batch over MaxReusedBuffer", caps[0])
	}
	for i, c := range caps[1:] {
		if c == 0 || c > MaxReusedBuffer {
			t.Fatalf("batch %d: kept frame buffer cap %d, want 1..%d", i+1, c, MaxReusedBuffer)
		}
	}
	checkFrames(t, cleanDir, want)

	// The same batches with the last one's frame write failing: the
	// frames before it are intact and the log is poisoned.
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{}, 3)
	ffs.FailAt(count.Ops() - 1) // NoSync: the last batch is one Write
	got, _, err := run(dir, ffs)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("last append = %v, want the injected fault", err)
	}
	if len(got) != len(sizes)-1 {
		t.Fatalf("%d batches acknowledged before the fault, want %d", len(got), len(sizes)-1)
	}
	checkFrames(t, dir, got)
}

// checkFrames asserts that the clean frames of dir's one segment start
// with want.
func checkFrames(t *testing.T, dir string, want [][]byte) {
	t.Helper()
	frames := segmentFrames(t, segPath(t, dir))
	if len(frames) < len(want) {
		t.Fatalf("%d clean frames on disk, want %d", len(frames), len(want))
	}
	for i, w := range want {
		if !bytes.Equal(frames[i], w) {
			t.Fatalf("frame %d differs from a fresh encoding (%d vs %d bytes)", i, len(frames[i]), len(w))
		}
	}
}

// segPath returns the one segment in dir.
func segPath(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments in %s: %v (%v)", dir, segs, err)
	}
	return segs[0]
}

// segmentFrames returns the payloads of a segment's clean frames.
func segmentFrames(t *testing.T, seg string) [][]byte {
	t.Helper()
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(bytes.NewReader(b))
	var frames [][]byte
	for {
		payload, err := readFrame(r)
		if err != nil {
			return frames
		}
		frames = append(frames, payload)
	}
}

// TestAppendTimeBinaryMatchesMarshalBinary: the in-place UTC encoding
// writes exactly MarshalBinary's bytes, and other locations fall back
// to it.
func TestAppendTimeBinaryMatchesMarshalBinary(t *testing.T) {
	times := []time.Time{
		t0, {}, time.Unix(0, 0).UTC(), time.Unix(-1, 999_999_999).UTC(),
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC), time.Date(-4000, 2, 29, 23, 59, 59, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC), time.Date(292277026596, 12, 4, 15, 30, 7, 0, time.UTC),
		time.Unix(1<<62, 5).UTC(), time.Unix(-1<<62, 5).UTC(),
		t0.In(time.FixedZone("EST", -5*3600)), t0.In(time.FixedZone("LMT", 3600+17)),
		t0.In(time.FixedZone("UTC", 0)), t0.Local(),
	}
	for _, tm := range times {
		want, err := tm.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendTimeBinary([]byte{0xee}, tm)
		if err != nil {
			t.Fatal(err)
		}
		if want = append([]byte{0xee, byte(len(want))}, want...); !bytes.Equal(got, want) {
			t.Errorf("%v: got % x, want % x", tm, got, want)
		}
	}
}

// opFS wraps an FS and records, in order, the operations the log
// issues: "create <file>" for every OpenFile with O_CREATE, "write
// <file>", "sync <file>" (the directory syncs as "sync dir"), "rename
// <from>" and "remove <file>". Names are base names.
type opFS struct {
	FS
	dir string
	mu  sync.Mutex
	ops []string
}

func (o *opFS) log(op, name string) {
	if name == o.dir {
		name = "dir"
	}
	o.mu.Lock()
	o.ops = append(o.ops, op+" "+filepath.Base(name))
	o.mu.Unlock()
}

// take returns the operations recorded since the last take.
func (o *opFS) take() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	ops := o.ops
	o.ops = nil
	return ops
}

func (o *opFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&os.O_CREATE != 0 {
		o.log("create", name)
	}
	f, err := o.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &opFile{File: f, fs: o, name: name}, nil
}

func (o *opFS) Open(name string) (File, error) {
	f, err := o.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &opFile{File: f, fs: o, name: name}, nil
}

func (o *opFS) Rename(oldpath, newpath string) error {
	o.log("rename", oldpath)
	return o.FS.Rename(oldpath, newpath)
}

func (o *opFS) Remove(name string) error {
	o.log("remove", name)
	return o.FS.Remove(name)
}

type opFile struct {
	File
	fs   *opFS
	name string
}

func (f *opFile) Write(p []byte) (int, error) {
	f.fs.log("write", f.name)
	return f.File.Write(p)
}

func (f *opFile) Sync() error {
	f.fs.log("sync", f.name)
	return f.File.Sync()
}

// TestAppendAndCheckpointSyncOrder pins the fsync sequence: a new
// segment's directory entry is synced after its creation and before its
// first batch is written; a batch is one write and one fsync; closing a
// segment, at a roll or a checkpoint, syncs nothing; a checkpoint syncs
// its file, renames it and syncs the directory before it removes the
// covered segments, and does not sync the removals.
func TestAppendAndCheckpointSyncOrder(t *testing.T) {
	dir := t.TempDir()
	ofs := &opFS{FS: OSFS{}, dir: dir}
	l := openReplayed(t, dir, Options{SegmentBytes: 200, FS: ofs})
	defer l.Close()
	ofs.take() // Open's stale-tmp removal
	seg := segmentName
	steps := []struct {
		name string
		do   func() error
		want []string
	}{
		{"first append", func() error { _, err := l.Append(testRecord(1)); return err },
			[]string{"create " + seg(1), "sync dir", "write " + seg(1), "sync " + seg(1)}},
		{"second append", func() error { _, err := l.Append(testRecord(2)); return err },
			[]string{"write " + seg(1), "sync " + seg(1)}},
		{"append that fills the segment", func() error { return appendSized(l, 3, 200) },
			[]string{"write " + seg(1), "sync " + seg(1)}},
		{"append after the roll", func() error { _, err := l.Append(testRecord(4)); return err },
			[]string{"create " + seg(4), "sync dir", "write " + seg(4), "sync " + seg(4)}},
		{"checkpoint", func() error { return l.WriteCheckpoint([]byte(`{"cp":4}`)) },
			[]string{"create " + checkpointName + ".tmp", "write " + checkpointName + ".tmp",
				"write " + checkpointName + ".tmp", "write " + checkpointName + ".tmp",
				"sync " + checkpointName + ".tmp", "rename " + checkpointName + ".tmp", "sync dir",
				"remove " + seg(1), "remove " + seg(4)}},
		{"append after the checkpoint", func() error { _, err := l.Append(testRecord(5)); return err },
			[]string{"create " + seg(5), "sync dir", "write " + seg(5), "sync " + seg(5)}},
	}
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got := ofs.take(); !slices.Equal(got, s.want) {
			t.Fatalf("%s: ops\n  %s\nwant\n  %s", s.name, strings.Join(got, ", "), strings.Join(s.want, ", "))
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ofs.take(); len(got) != 0 {
		t.Fatalf("Close issued %v, want nothing: every batch is already synced", got)
	}
}

// appendSized appends record i with its body padded to at least n bytes.
func appendSized(l *Log, i, n int) error {
	r := testRecord(i)
	r.Body = append(r.Body[:len(r.Body)-1], fmt.Sprintf(`,"pad":"%s"}`, strings.Repeat("x", n))...)
	_, err := l.Append(r)
	return err
}

// TestSegmentDirSyncFaultLeavesBatchUnacknowledged: when the directory
// sync that makes a new segment's entry durable fails — for the first
// segment, a rolled one, or the first after a checkpoint — the batch is
// not acknowledged, the log is poisoned, and recovery holds exactly the
// batches acknowledged before it.
func TestSegmentDirSyncFaultLeavesBatchUnacknowledged(t *testing.T) {
	for _, c := range []struct {
		name    string
		acked   int // appends acknowledged before the one that opens the faulted segment
		prepare func(t *testing.T, l *Log)
	}{
		{"first segment", 0, func(t *testing.T, l *Log) {}},
		{"segment roll", 2, func(t *testing.T, l *Log) {
			appendN(t, l, 1, 1)
			if err := appendSized(l, 2, 200); err != nil {
				t.Fatal(err)
			}
		}},
		{"after checkpoint", 2, func(t *testing.T, l *Log) {
			appendN(t, l, 1, 2)
			if err := l.WriteCheckpoint([]byte(`{"cp":2}`)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			// A counting pass finds the faulted directory sync's op index.
			dir := t.TempDir()
			ofs := &opFS{FS: NewFaultFS(OSFS{}, 1), dir: dir}
			l := openReplayed(t, dir, Options{SegmentBytes: 200, FS: ofs})
			c.prepare(t, l)
			before := len(mutating(ofs.take()))
			l.Close()

			dir = t.TempDir()
			ffs := NewFaultFS(OSFS{}, 1)
			ffs.FailAt(int64(before)) // the append's first op: the directory sync
			ofs = &opFS{FS: ffs, dir: dir}
			l = openReplayed(t, dir, Options{SegmentBytes: 200, FS: ofs})
			c.prepare(t, l)
			ofs.take()
			_, err := l.Append(testRecord(c.acked + 1))
			if !errors.Is(err, ErrInjected) || ffs.InjectedKind() != "sync-fail" {
				t.Fatalf("append = %v (injected %q), want the injected directory sync failure", err, ffs.InjectedKind())
			}
			if ops := ofs.take(); len(ops) != 2 || !strings.HasPrefix(ops[0], "create wal-") || ops[1] != "sync dir" {
				t.Fatalf("ops of the failed append = %v, want create then the directory sync, and no write", ops)
			}
			if l.Seq() != uint64(c.acked) || l.Failed() == nil {
				t.Fatalf("after the fault: seq %d (want %d), failed %v", l.Seq(), c.acked, l.Failed())
			}
			if _, err := l.Append(testRecord(c.acked + 1)); !errors.Is(err, ErrLogFailed) {
				t.Fatalf("append after the fault = %v, want ErrLogFailed", err)
			}
			crash(l)
			re, recs := replayAll(t, dir, Options{NoSync: true})
			defer re.Close()
			if re.Seq() != uint64(c.acked) {
				t.Fatalf("recovered through seq %d (%d records replayed), want %d", re.Seq(), len(recs), c.acked)
			}
		})
	}
}

// TestCheckpointDirSyncFaultKeepsSegments: a failed directory sync after
// the checkpoint's rename poisons the log before any covered segment is
// removed, and recovery still yields every acknowledged record.
func TestCheckpointDirSyncFaultKeepsSegments(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{}, 1)
	// Ops: 0 = stale-tmp Remove; 1..3 = the first append's directory
	// sync, write and fsync; 4..5 = the second's write and fsync;
	// 6..8 = the checkpoint's tmp writes, 9 = its fsync, 10 = rename,
	// 11 = the directory sync.
	ffs.FailAt(11)
	ofs := &opFS{FS: ffs, dir: dir}
	l := openReplayed(t, dir, Options{FS: ofs})
	appendN(t, l, 1, 2)
	ofs.take()
	err := l.WriteCheckpoint([]byte(`{"cp":2}`))
	if !errors.Is(err, ErrInjected) || ffs.InjectedKind() != "sync-fail" {
		t.Fatalf("checkpoint = %v (injected %q), want the injected directory sync failure", err, ffs.InjectedKind())
	}
	if ops := ofs.take(); ops[len(ops)-1] != "sync dir" || slices.ContainsFunc(ops, func(op string) bool {
		return strings.HasPrefix(op, "remove")
	}) {
		t.Fatalf("checkpoint ops = %v, want them to end at the directory sync with no segment removed", ops)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); err != nil {
		t.Fatalf("covered segment removed before the directory sync succeeded: %v", err)
	}
	if err := l.WriteCheckpoint([]byte(`{"cp":2}`)); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("checkpoint after the fault = %v, want ErrLogFailed", err)
	}
	crash(l)
	re, recs := replayAll(t, dir, Options{NoSync: true})
	defer re.Close()
	if _, cpSeq, _ := re.Checkpoint(); re.Seq() != 2 || cpSeq+uint64(len(recs)) != 2 {
		t.Fatalf("recovered seq %d from checkpoint seq %d + %d records, want 2", re.Seq(), cpSeq, len(recs))
	}
}

// mutating drops opFS's "create" entries, leaving the operations
// FaultFS counts.
func mutating(ops []string) []string {
	return slices.DeleteFunc(ops, func(op string) bool { return strings.HasPrefix(op, "create ") })
}
