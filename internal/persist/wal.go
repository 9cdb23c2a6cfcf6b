package persist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Options tunes a Log. The zero value is production-ready.
type Options struct {
	// SegmentBytes is the roll threshold: when a segment grows past it,
	// the next append starts a new segment. Default 4 MiB.
	SegmentBytes int64
	// NoSync skips the fsync after each appended batch, and the
	// directory and file fsyncs of segment creation and checkpoint
	// installation. Recovery correctness is unaffected — the
	// clean prefix is still detected — but a power loss may lose
	// recently acknowledged batches. For tests and benchmarks.
	NoSync bool
	// FS is the filesystem the log writes through. Nil selects the real
	// one (OSFS); tests inject FaultFS to exercise the disk-fault
	// contract.
	FS FS
}

const defaultSegmentBytes = 4 << 20

// checkpointName is the atomically-installed checkpoint file.
const checkpointName = "checkpoint.json"

// ErrLogFailed marks a log that has gone sticky-failed: a write-path
// disk operation failed, so the bytes on disk past the last
// acknowledged record are indeterminate and the log refuses to write
// another byte. Reads (Checkpoint, Seq, FootprintBytes) keep working;
// recovery is a fresh Open + Replay, which truncates to the clean
// prefix. Every error returned from a failed log wraps this sentinel.
var ErrLogFailed = errors.New("persist: log failed; no further writes accepted")

// The checkpoint file wraps the payload (opaque to the log, but a JSON
// value) with the sequence number it covers and a CRC over the payload:
//
//	{"seq":N,"crc":C,"payload":<payload bytes>}
//
// — the layout encoding/json gives such a struct, so checkpoints of
// version-1 logs, which were written that way, load unchanged.
// WriteCheckpoint writes the head, the payload and the closing brace
// without re-encoding or copying the multi-megabyte payload, and Open
// slices the payload back out after checking its CRC.
const (
	cpSeqKey     = `{"seq":`
	cpCRCKey     = `,"crc":`
	cpPayloadKey = `,"payload":`
)

// appendCheckpointHead appends the checkpoint wrapper's head, all of it
// that comes before payload; a closing '}' follows the payload.
func appendCheckpointHead(b []byte, seq uint64, payload []byte) []byte {
	b = append(b, cpSeqKey...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, cpCRCKey...)
	b = strconv.AppendUint(b, uint64(crc32.ChecksumIEEE(payload)), 10)
	return append(b, cpPayloadKey...)
}

// parseCheckpoint checks a checkpoint file and returns the payload it
// wraps (aliasing b) and the sequence number it covers.
func parseCheckpoint(b []byte) (payload []byte, seq uint64, err error) {
	number := func(key string, bits int) (uint64, bool) {
		rest, found := bytes.CutPrefix(b, []byte(key))
		n := 0
		for n < len(rest) && n < 20 && rest[n] >= '0' && rest[n] <= '9' {
			n++
		}
		if !found || n == 0 {
			return 0, false
		}
		v, err := strconv.ParseUint(string(rest[:n]), 10, bits)
		b = rest[n:]
		return v, err == nil
	}
	seq, okSeq := number(cpSeqKey, 64)
	crc, okCRC := number(cpCRCKey, 32)
	rest, found := bytes.CutPrefix(b, []byte(cpPayloadKey))
	if !okSeq || !okCRC || !found || len(rest) < 2 || rest[len(rest)-1] != '}' {
		return nil, 0, errors.New("not a checkpoint wrapper")
	}
	payload = rest[: len(rest)-1 : len(rest)-1]
	if crc32.ChecksumIEEE(payload) != uint32(crc) {
		return nil, 0, errors.New("failed its checksum")
	}
	return payload, seq, nil
}

// readCheckpoint reads and checks the installed checkpoint; ok is false
// when none is installed.
func (l *Log) readCheckpoint() (payload []byte, seq uint64, ok bool, err error) {
	path := filepath.Join(l.dir, checkpointName)
	b, err := l.fs.ReadFile(path)
	if errors.Is(err, iofs.ErrNotExist) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("persist: open %s: %w", l.dir, err)
	}
	if payload, seq, err = parseCheckpoint(b); err != nil {
		return nil, 0, false, fmt.Errorf("persist: checkpoint %s corrupt: %w", path, err)
	}
	return payload, seq, true, nil
}

// Log is a segmented write-ahead log in one directory. Methods are safe
// for concurrent use, though the intended discipline is a single writer:
// appends happen from the owning project's executing goroutine.
//
// Lifecycle: Open, then Replay exactly once (it establishes the live
// sequence and discards any torn tail), then Append/WriteCheckpoint
// freely, then Close.
//
// Failure is sticky: the first failed append, sync, or checkpoint
// operation poisons the log (see ErrLogFailed). This is not caution for
// its own sake — after a failed frame write or fsync the on-disk state
// is indeterminate, and a subsequent append would either interleave
// bytes into a torn frame or reuse the unacknowledged sequence number,
// both of which can make recovery silently drop a record that *was*
// acknowledged. A failed log never writes another byte.
type Log struct {
	dir string
	opt Options
	fs  FS

	mu       sync.Mutex
	replayed bool
	closed   bool
	failed   error  // first write-path failure; sticky
	seq      uint64 // last assigned or recovered sequence
	cpSeq    uint64 // sequence covered by the installed checkpoint
	hasCP    bool   // a checkpoint is installed
	cp       []byte // the payload Open read, held for recovery until Replay
	f        File   // open tail segment, nil until first append
	w        *bufio.Writer
	segBytes int64
	frame    []byte // AppendBatch's encode buffer, kept between batches (see MaxReusedBuffer)
}

// Open opens or creates the log directory and loads the checkpoint if
// one is installed. It does not read the record stream — call Replay.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = defaultSegmentBytes
	}
	if opt.FS == nil {
		opt.FS = OSFS{}
	}
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: open %s: %w", dir, err)
	}
	l := &Log{dir: dir, opt: opt, fs: opt.FS}
	cp, seq, ok, err := l.readCheckpoint()
	if err != nil {
		return nil, err
	}
	if ok { // otherwise a fresh log, or a crash before the first checkpoint
		l.cp, l.cpSeq, l.seq, l.hasCP = cp, seq, seq, true
	}
	// A crash between writing checkpoint.json.tmp and the rename leaves
	// the tmp behind; it was never installed, so discard it.
	l.fs.Remove(filepath.Join(dir, checkpointName+".tmp"))
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Checkpoint returns the installed checkpoint payload and the sequence
// number it covers; ok is false if no checkpoint is installed. Until
// Replay it returns the payload Open read — recovery decodes it from
// there — and the log keeps no copy of it after that: later calls read
// the file again, and payload is nil if that read fails.
func (l *Log) Checkpoint() (payload []byte, seq uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.hasCP {
		return nil, 0, false
	}
	if l.cp != nil {
		return l.cp, l.cpSeq, true
	}
	payload, _, _, _ = l.readCheckpoint()
	return payload, l.cpSeq, true
}

// Seq returns the last assigned (or recovered) record sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Failed returns the sticky failure, or nil while the log is healthy.
func (l *Log) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// failLocked records the first write-path failure and drops the open
// segment without flushing: the buffered tail bytes must never reach
// the disk after an indeterminate frame. Returns err for convenience.
func (l *Log) failLocked(err error) error {
	if l.failed == nil {
		l.failed = err
		if l.f != nil {
			l.f.Close()
			l.f, l.w, l.segBytes = nil, nil, 0
		}
	}
	return err
}

// errFailedLocked is the error every write on a failed log returns.
func (l *Log) errFailedLocked() error {
	return fmt.Errorf("%w (%s: %v)", ErrLogFailed, l.dir, l.failed)
}

// segments lists the segment files in ascending first-sequence order
// (names are zero-padded, so lexical order is numeric order).
func (l *Log) segments() ([]string, error) {
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range ents {
		n := e.Name()
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg") {
			segs = append(segs, filepath.Join(l.dir, n))
		}
	}
	sort.Strings(segs)
	return segs, nil
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016d.seg", firstSeq)
}

// Replay streams the clean record prefix to fn, in sequence order,
// establishing the live sequence number for subsequent appends. It must
// be called exactly once, after Open and before the first Append.
//
// Recovery semantics: records covered by the checkpoint (seq ≤ its
// covered sequence, possible after a crash between checkpoint
// installation and segment deletion) are skipped silently. The first
// unreadable frame — torn tail, checksum mismatch, undecodable batch,
// or sequence gap — ends the stream: the damaged segment is truncated at
// the last clean frame, later segments are deleted, and Replay returns
// the number of records delivered. A batch is delivered only after its
// whole frame has checked out, so the stream always ends on a batch
// boundary. A non-nil error from fn aborts replay and is returned
// verbatim; the log is then unusable.
func (l *Log) Replay(fn func(*Record) error) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.replayed {
		return 0, fmt.Errorf("persist: Replay called twice on %s", l.dir)
	}
	segs, err := l.segments()
	if err != nil {
		return 0, fmt.Errorf("persist: replay %s: %w", l.dir, err)
	}
	delivered := 0
	for i, seg := range segs {
		clean, n, err := l.replaySegment(seg, fn)
		delivered += n
		if err != nil {
			return delivered, err
		}
		if clean >= 0 {
			// Damage inside this segment: discard the tail and every
			// later segment — they are past the clean prefix.
			if err := l.fs.Truncate(seg, clean); err != nil {
				return delivered, fmt.Errorf("persist: truncate torn tail of %s: %w", seg, err)
			}
			for _, later := range segs[i+1:] {
				if err := l.fs.Remove(later); err != nil {
					return delivered, fmt.Errorf("persist: drop %s past torn tail: %w", later, err)
				}
			}
			break
		}
	}
	l.replayed = true
	l.cp = nil // recovery has decoded it; do not pin it for the log's life
	return delivered, nil
}

// replaySegment reads one segment. It returns clean = -1 if the segment
// was fully readable, or the byte offset of the first damaged frame. A
// non-nil error is a callback or I/O failure, not corruption.
func (l *Log) replaySegment(path string, fn func(*Record) error) (clean int64, n int, err error) {
	f, err := l.fs.Open(path)
	if err != nil {
		return -1, 0, fmt.Errorf("persist: replay %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var off int64
	for {
		payload, err := readFrame(r)
		if err == io.EOF {
			return -1, n, nil
		}
		if err != nil {
			return off, n, nil
		}
		recs, ok := decodeBatch(payload)
		if !ok {
			return off, n, nil
		}
		// Records the checkpoint covers (crash between checkpoint
		// installation and segment deletion) are already durable.
		for len(recs) > 0 && recs[0].Seq <= l.cpSeq {
			recs = recs[1:]
		}
		if len(recs) > 0 && recs[0].Seq != l.seq+1 {
			// Sequence gap — a lost or reordered batch; everything
			// from here on is past the clean prefix.
			return off, n, nil
		}
		for i := range recs {
			l.seq = recs[i].Seq
			if fn != nil {
				if err := fn(&recs[i]); err != nil {
					return -1, n, err
				}
			}
			n++
		}
		off += frameHeader + int64(len(payload))
	}
}

// Append logs one record: AppendBatch of a single-record batch.
func (l *Log) Append(r *Record) (uint64, error) { return l.AppendBatch([]*Record{r}) }

// AppendBatch assigns the next dense sequence numbers to recs, frames
// them as one unit, writes the frame to the tail segment, and — unless
// Options.NoSync — fsyncs once before returning. Returns the last
// assigned sequence. An empty batch writes nothing.
//
// The batch is one frame under one CRC, so recovery restores all of it
// or none of it: a durable facade operation logs its mutations as one
// batch and a crash never leaves half of it on disk.
//
// A batch is acknowledged only after every byte is on disk (and
// synced); any failure before that poisons the log (ErrLogFailed)
// without advancing the sequence, so a recovered log's clean prefix
// always contains exactly the acknowledged batches and never a later
// one. The first batch of a segment is acknowledged only after the
// segment's directory entry is synced too (see openSegmentLocked).
//
// AppendBatch sets each record's Seq and reads the records' bodies
// before it returns; it retains neither the records nor their bodies,
// so the caller may reuse both for its next batch. The frame is encoded
// into a buffer the log keeps between batches (up to MaxReusedBuffer),
// so a steady-state append allocates nothing.
func (l *Log) AppendBatch(recs []*Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("persist: append to closed log %s", l.dir)
	}
	if l.failed != nil {
		return 0, l.errFailedLocked()
	}
	if !l.replayed {
		return 0, fmt.Errorf("persist: append to %s before Replay", l.dir)
	}
	if len(recs) == 0 {
		return l.seq, nil
	}
	for i, r := range recs {
		r.Seq = l.seq + 1 + uint64(i)
	}
	first, last := recs[0].Seq, recs[len(recs)-1].Seq
	size := 32
	for _, r := range recs {
		size += 16 + len(r.Body)
	}
	payload, err := encodeBatch(slices.Grow(l.frame[:0], size), recs)
	if err != nil {
		return 0, fmt.Errorf("persist: encode records %d..%d: %w", first, last, err)
	}
	l.frame = payload
	if cap(payload) > MaxReusedBuffer {
		l.frame = nil
	}
	if l.f == nil {
		if err := l.openSegmentLocked(first); err != nil {
			return 0, l.failLocked(err)
		}
	}
	if err := writeFrame(l.w, payload); err != nil {
		return 0, l.failLocked(fmt.Errorf("persist: append records %d..%d: %w", first, last, err))
	}
	if err := l.w.Flush(); err != nil {
		return 0, l.failLocked(fmt.Errorf("persist: append records %d..%d: %w", first, last, err))
	}
	if !l.opt.NoSync {
		if err := l.f.Sync(); err != nil {
			return 0, l.failLocked(fmt.Errorf("persist: sync records %d..%d: %w", first, last, err))
		}
	}
	l.seq = last
	l.segBytes += frameHeader + int64(len(payload))
	if l.segBytes >= l.opt.SegmentBytes {
		if err := l.closeSegmentLocked(); err != nil {
			// The batch itself is durable; only the segment roll
			// failed. The append is acknowledged, the log is poisoned.
			l.failLocked(err)
		}
	}
	return last, nil
}

// MaxReusedBuffer bounds the encode buffers the write path keeps between
// batches: a buffer whose backing array has grown past it (a batch that
// carries a large design-data blob) is dropped after its batch rather
// than kept for the log's life, so a rare large batch does not raise
// the live heap.
const MaxReusedBuffer = 64 << 10

// openSegmentLocked starts a fresh segment whose name carries the first
// sequence it will hold, and syncs the directory so the segment's entry
// is durable before its first batch is acknowledged: otherwise a crash
// could lose the whole file, acknowledged batches and all, even though
// each batch's own fsync succeeded. Appends after a reopen start a new
// segment rather than extending the recovered tail — simpler, and the
// recovered tail stays exactly as replay validated it.
func (l *Log) openSegmentLocked(firstSeq uint64) error {
	path := filepath.Join(l.dir, segmentName(firstSeq))
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: open segment: %w", err)
	}
	st, err := f.Stat()
	if err == nil {
		err = l.syncDir()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("persist: open segment: %w", err)
	}
	l.f, l.w, l.segBytes = f, bufio.NewWriter(f), st.Size()
	return nil
}

// closeSegmentLocked closes the tail segment. It issues no fsync: every
// batch in it was synced when it was appended (or the log runs NoSync),
// and a failed append poisons the log before a segment is closed.
func (l *Log) closeSegmentLocked() error {
	if l.f == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	err := l.f.Close()
	l.f, l.w, l.segBytes = nil, nil, 0
	return err
}

// WriteCheckpoint atomically installs payload as a checkpoint covering
// every record appended so far, then deletes the covered segments.
// payload must be a JSON value: the wrapper embeds it verbatim. The
// caller guarantees payload captures the project state as of the last
// append — writers must be quiesced across the state capture and this
// call (the host's per-project lock provides exactly that).
//
// Crash safety: the checkpoint is written to a temporary file, fsynced,
// renamed into place, and the rename made durable by a directory fsync
// before any segment is deleted. A crash before that sync recovers from
// the old checkpoint plus the full record stream; a crash after it
// recovers from the new checkpoint, skipping any not-yet-deleted
// segments' covered records by sequence number. The unlinks are
// therefore not synced: a deletion lost in a crash only leaves covered
// records that replay skips.
//
// Failure safety: any disk failure poisons the log (ErrLogFailed). A
// failure before the directory sync leaves every segment intact (the
// temporary file is removed if the rename did not happen), so a fresh
// Open recovers everything from whichever checkpoint survives; a failure
// after it leaves the new checkpoint installed with possibly-undeleted
// covered segments, which replay skips by sequence number.
func (l *Log) WriteCheckpoint(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("persist: checkpoint on closed log %s", l.dir)
	}
	if l.failed != nil {
		return l.errFailedLocked()
	}
	if !l.replayed {
		return fmt.Errorf("persist: checkpoint on %s before Replay", l.dir)
	}
	if err := l.closeSegmentLocked(); err != nil {
		return l.failLocked(fmt.Errorf("persist: checkpoint %s: %w", l.dir, err))
	}
	head := appendCheckpointHead(make([]byte, 0, 64), l.seq, payload)
	final := filepath.Join(l.dir, checkpointName)
	tmp := final + ".tmp"
	if err := l.writeTmpLocked(tmp, head, payload, []byte{'}'}); err != nil {
		// The temporary file was never installed; clean it up so a
		// later recovery does not have to.
		l.fs.Remove(tmp)
		return l.failLocked(err)
	}
	if err := l.fs.Rename(tmp, final); err != nil {
		l.fs.Remove(tmp)
		return l.failLocked(fmt.Errorf("persist: install checkpoint %s: %w", l.dir, err))
	}
	if err := l.syncDir(); err != nil {
		return l.failLocked(fmt.Errorf("persist: install checkpoint %s: %w", l.dir, err))
	}
	l.cpSeq, l.hasCP, l.cp = l.seq, true, nil
	// Every existing segment is now covered; drop them all. The next
	// append starts a fresh segment at seq+1.
	segs, err := l.segments()
	if err != nil {
		return l.failLocked(fmt.Errorf("persist: checkpoint %s: %w", l.dir, err))
	}
	for _, seg := range segs {
		if err := l.fs.Remove(seg); err != nil {
			return l.failLocked(fmt.Errorf("persist: drop covered segment %s: %w", seg, err))
		}
	}
	return nil
}

// writeTmpLocked writes parts, in order, to the checkpoint's temporary
// file and fsyncs it.
func (l *Log) writeTmpLocked(tmp string, parts ...[]byte) error {
	f, err := l.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: checkpoint %s: %w", l.dir, err)
	}
	for _, b := range parts {
		if _, err := f.Write(b); err != nil {
			f.Close()
			return fmt.Errorf("persist: checkpoint %s: %w", l.dir, err)
		}
	}
	if !l.opt.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("persist: checkpoint %s: %w", l.dir, err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: checkpoint %s: %w", l.dir, err)
	}
	return nil
}

// syncDir fsyncs the log directory so that the entries created, renamed
// or removed in it so far are durable. It returns the failure, which the
// caller treats like any failed write-path operation.
func (l *Log) syncDir() error {
	if l.opt.NoSync {
		return nil
	}
	d, err := l.fs.Open(l.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// SinceCheckpoint reports how many records the log holds past the
// installed checkpoint — the replay debt a recovery would pay.
func (l *Log) SinceCheckpoint() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq - l.cpSeq
}

// FootprintBytes reports the log's on-disk size: checkpoint plus live
// segments.
func (l *Log) FootprintBytes() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total, nil
}

// Close flushes and closes the tail segment. The log cannot be used
// afterwards. Closing a failed log releases the file handle without
// flushing (the sticky contract: no byte is ever written after a
// failure) and reports success — the failure already surfaced.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.failed != nil {
		if l.f != nil {
			l.f.Close()
			l.f, l.w, l.segBytes = nil, nil, 0
		}
		return nil
	}
	if err := l.closeSegmentLocked(); err != nil {
		return fmt.Errorf("persist: close %s: %w", l.dir, err)
	}
	return nil
}
