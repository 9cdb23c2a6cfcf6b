package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
	"time"
)

// chaosRecord is the deterministic record content for append i of a
// seeded chaos workload. Bit-identity of recovered records is checked
// against its marshaled form.
func chaosRecord(seed int64, i int) *Record {
	return &Record{
		Now:  t0.Add(time.Duration(seed*1000+int64(i)) * time.Second),
		Kind: testKind,
		Body: []byte(fmt.Sprintf(`{"id":"chaos/%d/%d","seed":%d,"i":%d}`, seed, i, seed, i)),
	}
}

func chaosCheckpointPayload(seed int64, seq uint64) []byte {
	return []byte(fmt.Sprintf(`{"seed":%d,"seq":%d}`, seed, seq))
}

// chaosPlan is a deterministic workload: appended batches interleaved
// with checkpoints, derived from the seed with the package's own mixer.
// A step with batch > 0 appends that many records; batch == 0 is a
// checkpoint. About half the batches hold one record (written with
// Append, as a bare-record frame); the rest hold 1–64 (AppendBatch).
type chaosOp struct{ batch int }

var opCheckpoint = chaosOp{}

func chaosPlan(seed int64) []chaosOp {
	h := mixFault(uint64(seed) * 0x9e3779b97f4a7c15)
	n := 8 + int(h%9) // 8..16 batches
	var plan []chaosOp
	for i := 0; i < n; i++ {
		h = mixFault(h)
		size := 1
		if h&1 == 1 {
			size = 1 + int(h>>1%64)
		}
		plan = append(plan, chaosOp{batch: size})
		if h>>8%5 == 0 { // ~1 in 5 batches is followed by a checkpoint
			plan = append(plan, opCheckpoint)
		}
	}
	return plan
}

// chaosResult captures what a workload execution acknowledged.
type chaosResult struct {
	ackedAppends int      // records in batches that returned nil (always a prefix)
	bounds       []uint64 // last seq of every attempted batch, acked or not
	cpSeqs       []uint64 // seqs of checkpoint attempts, acked or not
	firstErr     error    // first error any Log call returned
	stickyViol   string   // non-empty if a post-failure call did not fail
}

// execChaos runs the seeded plan against a log on fs. After the first
// error every subsequent call must fail with ErrLogFailed — anything
// else is a sticky-contract violation, reported rather than fatal so
// the caller can attribute it to the (seed, op-index) under test.
func execChaos(dir string, fs FS, seed int64, sync bool) chaosResult {
	var res chaosResult
	opt := Options{SegmentBytes: 256, NoSync: !sync, FS: fs}
	l, err := Open(dir, opt)
	if err != nil {
		res.firstErr = err
		return res
	}
	if _, err := l.Replay(nil); err != nil {
		res.firstErr = err
		return res
	}
	next := 0
	for _, op := range planOps(seed) {
		var err error
		switch {
		case op.batch == 1:
			res.bounds = append(res.bounds, uint64(next+1))
			_, err = l.Append(chaosRecord(seed, next))
		case op.batch > 1:
			batch := make([]*Record, op.batch)
			for i := range batch {
				batch[i] = chaosRecord(seed, next+i)
			}
			res.bounds = append(res.bounds, uint64(next+op.batch))
			_, err = l.AppendBatch(batch)
		default:
			seq := l.Seq()
			res.cpSeqs = append(res.cpSeqs, seq)
			err = l.WriteCheckpoint(chaosCheckpointPayload(seed, seq))
		}
		if err == nil && op.batch > 0 {
			next += op.batch
			res.ackedAppends = next
		}
		if res.firstErr == nil {
			res.firstErr = err
		} else if err == nil || !errors.Is(err, ErrLogFailed) {
			res.stickyViol = fmt.Sprintf("op after failure %v returned %v, want ErrLogFailed", res.firstErr, err)
		}
	}
	crash(l)
	return res
}

func planOps(seed int64) []chaosOp { return chaosPlan(seed) }

// crash abandons a log the way a process death would: the file handle
// goes away with no flush, no sync, no checkpoint. (Appends flush per
// batch, so closing the raw handle writes nothing extra.)
func crash(l *Log) {
	l.mu.Lock()
	if l.f != nil {
		l.f.Close()
		l.f, l.w = nil, nil
	}
	l.closed = true
	l.mu.Unlock()
}

// verifyRecovery reopens dir with the real filesystem and checks the
// chaos invariants: every acked append survives bit-identically (via
// replay or checkpoint coverage), the recovered tail ends on a batch
// boundary and holds at most one trailing unacknowledged batch, and an
// installed checkpoint matches a checkpoint the workload actually
// attempted.
func verifyRecovery(t *testing.T, dir string, seed int64, res chaosResult) {
	t.Helper()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer l.Close()
	cp, cpSeq, hasCP := l.Checkpoint()
	if hasCP {
		ok := false
		for _, s := range res.cpSeqs {
			if s == cpSeq {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("recovered checkpoint covers seq %d, but no checkpoint was attempted there (%v)", cpSeq, res.cpSeqs)
		}
		if want := chaosCheckpointPayload(seed, cpSeq); string(cp) != string(want) {
			t.Fatalf("checkpoint payload = %s, want %s", cp, want)
		}
		if cpSeq > uint64(res.ackedAppends) {
			t.Fatalf("checkpoint covers seq %d beyond %d acked appends", cpSeq, res.ackedAppends)
		}
	}
	var recs []Record
	if _, err := l.Replay(func(r *Record) error {
		recs = append(recs, *r)
		return nil
	}); err != nil {
		t.Fatalf("recovery replay: %v", err)
	}
	// Replay yields the contiguous range cpSeq+1 .. lastSeq. Everything
	// acked must be covered; at most one trailing unacked batch (a
	// fully-written frame whose fsync failed) may also survive, and
	// never part of one.
	last := cpSeq + uint64(len(recs))
	acked := uint64(res.ackedAppends)
	if last < acked {
		t.Fatalf("recovered through seq %d, but %d records were acknowledged — an acked write was dropped", last, acked)
	}
	if last > acked {
		i := slices.IndexFunc(res.bounds, func(b uint64) bool { return b > acked })
		if i < 0 || last != res.bounds[i] {
			t.Fatalf("recovered through seq %d, but only %d records acked — not the end of the next batch (batch ends %v)", last, acked, res.bounds)
		}
	}
	for i, r := range recs {
		wantSeq := cpSeq + uint64(i) + 1
		if r.Seq != wantSeq {
			t.Fatalf("replayed record %d has seq %d, want %d", i, r.Seq, wantSeq)
		}
		want := chaosRecord(seed, int(wantSeq)-1)
		want.Seq = wantSeq
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(&r)
		if string(gb) != string(wb) {
			t.Fatalf("record seq %d not bit-identical:\n got %s\nwant %s", wantSeq, gb, wb)
		}
	}
	// Post-recovery the log is healthy again: it accepts appends.
	if _, err := l.Append(chaosRecord(seed, int(last))); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// TestDiskChaos is the disk-fault property harness: 100 seeded
// workloads, each re-run with a single injected fault at op indexes
// striding across the workload's mutating operations (collectively
// covering every index), then crashed and recovered. The workloads
// append batches of 1–64 records. Recovery must equal the clean prefix
// bit-identically, end on a batch boundary, never drop an acknowledged
// batch, and the faulted log must honor the sticky-failure contract.
func TestDiskChaos(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 12
	}
	for s := 0; s < seeds; s++ {
		seed := int64(s)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			// Clean counting pass measures the workload's op budget.
			count := NewFaultFS(OSFS{}, seed)
			clean := execChaos(t.TempDir(), count, seed, false)
			if clean.firstErr != nil {
				t.Fatalf("clean pass failed: %v", clean.firstErr)
			}
			ops := count.Ops()
			const stride = 3
			for idx := int64(s % stride); idx < ops; idx += stride {
				dir := t.TempDir()
				ffs := NewFaultFS(OSFS{}, seed)
				ffs.FailAt(idx)
				res := execChaos(dir, ffs, seed, false)
				if res.stickyViol != "" {
					t.Fatalf("fault@%d (%s): %s", idx, ffs.InjectedKind(), res.stickyViol)
				}
				if !ffs.Injected() {
					t.Fatalf("fault@%d never fired (ops=%d)", idx, ffs.Ops())
				}
				verifyRecovery(t, dir, seed, res)
			}
		})
	}
}

// TestDiskChaosSyncFaults runs the harness with fsync enabled so
// sync-fail faults (indeterminate durability — the poisonous case) are
// exercised too. Fewer seeds: every op here costs a real fsync.
func TestDiskChaosSyncFaults(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for s := 0; s < seeds; s++ {
		seed := int64(s)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			count := NewFaultFS(OSFS{}, seed)
			clean := execChaos(t.TempDir(), count, seed, true)
			if clean.firstErr != nil {
				t.Fatalf("clean pass failed: %v", clean.firstErr)
			}
			ops := count.Ops()
			const stride = 5
			for idx := int64(s % stride); idx < ops; idx += stride {
				dir := t.TempDir()
				ffs := NewFaultFS(OSFS{}, seed)
				ffs.FailAt(idx)
				res := execChaos(dir, ffs, seed, true)
				if res.stickyViol != "" {
					t.Fatalf("fault@%d (%s): %s", idx, ffs.InjectedKind(), res.stickyViol)
				}
				verifyRecovery(t, dir, seed, res)
			}
		})
	}
}

// TestAppendFailureIsSticky pins the regression the fault model exposed:
// a failed append must poison the log. Before the fix, Append returned
// the error but left the log writable with an unadvanced sequence
// number, so the next append wrote a duplicate-sequence frame after the
// indeterminate one — recovery then treated the duplicate as a gap and
// silently dropped writes that had been acknowledged.
func TestAppendFailureIsSticky(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			ffs := NewFaultFS(OSFS{}, seed)
			// Op 0 is Open's stale-tmp Remove; with NoSync each append
			// is one Write. Fault append #2's frame write.
			ffs.FailAt(2)
			l, err := Open(dir, Options{NoSync: true, FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Replay(nil); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(testRecord(1)); err != nil {
				t.Fatalf("append 1: %v", err)
			}
			_, err = l.Append(testRecord(2))
			if err == nil {
				t.Fatal("append 2 succeeded despite injected write fault")
			}
			if errors.Is(err, ErrLogFailed) {
				t.Fatal("first failure should carry the injected error, not the sticky sentinel")
			}
			if l.Failed() == nil {
				t.Fatal("Failed() = nil after a write fault")
			}
			// The log must refuse every further write.
			if _, err := l.Append(testRecord(3)); !errors.Is(err, ErrLogFailed) {
				t.Fatalf("append after failure = %v, want ErrLogFailed", err)
			}
			if err := l.WriteCheckpoint([]byte(`{}`)); !errors.Is(err, ErrLogFailed) {
				t.Fatalf("checkpoint after failure = %v, want ErrLogFailed", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("close of failed log: %v", err)
			}
			// Recovery: append 1 survives, nothing after it, and the log
			// is writable again.
			re, recs := replayAll(t, dir, Options{NoSync: true})
			defer re.Close()
			if len(recs) != 1 || recs[0].Seq != 1 {
				t.Fatalf("recovered %d records, want exactly seq 1", len(recs))
			}
			if _, err := re.Append(testRecord(2)); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
		})
	}
}

// TestCheckpointENOSPCMidWrite drives WriteCheckpoint into an ENOSPC
// while writing the temporary checkpoint file: the tmp must be cleaned
// up, the previously installed checkpoint must still load, and the
// covered segments must not have been truncated — a fresh open recovers
// every acknowledged record.
func TestCheckpointENOSPCMidWrite(t *testing.T) {
	// Find a seed whose write-fault kind at the tmp-write op index is
	// ENOSPC. Op layout with NoSync: 0 = stale-tmp Remove, 1..6 =
	// appends, 7 = checkpoint tmp write (first checkpoint: 8 = rename).
	const tmpWriteOp = 7
	opIdx := uint64(tmpWriteOp)
	seed := int64(-1)
	for s := int64(0); s < 64; s++ {
		h := mixFault(uint64(s) ^ opIdx*0x9e3779b97f4a7c15)
		if [3]int32{faultEIO, faultShortWrite, faultENOSPC}[h%3] == faultENOSPC {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed yields ENOSPC at the tmp-write op; widen the search")
	}

	dir := t.TempDir()
	// First, install a good checkpoint covering 3 records, then append
	// 3 more — all on the real filesystem.
	l := openReplayed(t, dir, Options{NoSync: true})
	appendN(t, l, 1, 3)
	if err := l.WriteCheckpoint([]byte(`{"good":1}`)); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen under the fault FS and attempt a second checkpoint.
	ffs := NewFaultFS(OSFS{}, seed)
	ffs.FailAt(tmpWriteOp)
	fl, err := Open(dir, Options{NoSync: true, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := fl.Replay(func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d records past checkpoint, want 3", n)
	}
	appendN(t, fl, 7, 6) // ops 1..6
	err = fl.WriteCheckpoint([]byte(`{"bad":1}`))
	if err == nil {
		t.Fatal("checkpoint succeeded despite injected ENOSPC")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("checkpoint error = %v, want ENOSPC (injected kind %s)", err, ffs.InjectedKind())
	}
	if err := fl.WriteCheckpoint([]byte(`{"bad":2}`)); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("checkpoint after failure = %v, want ErrLogFailed", err)
	}
	crash(fl)

	// The aborted tmp must not linger.
	if _, err := os.Stat(filepath.Join(dir, checkpointName+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint tmp still present after failed write (stat err %v)", err)
	}
	// The old checkpoint still loads and the segments were not touched:
	// recovery yields every acknowledged record (seq 4..12 past the
	// checkpoint's coverage of 1..3).
	re, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	cp, cpSeq, ok := re.Checkpoint()
	if !ok || string(cp) != `{"good":1}` || cpSeq != 3 {
		t.Fatalf("recovered checkpoint = %q seq %d ok %v, want {\"good\":1} seq 3", cp, cpSeq, ok)
	}
	n = 0
	if _, err := re.Replay(func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("recovered %d records past checkpoint, want 9", n)
	}
	if re.Seq() != 12 {
		t.Fatalf("recovered seq = %d, want 12", re.Seq())
	}
}

// TestCheckpointRenameFaultKeepsOldCheckpoint: a failed rename must
// leave the old checkpoint installed and the tmp cleaned up.
func TestCheckpointRenameFaultKeepsOldCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l := openReplayed(t, dir, Options{NoSync: true})
	appendN(t, l, 1, 2)
	if err := l.WriteCheckpoint([]byte(`{"good":1}`)); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	ffs := NewFaultFS(OSFS{}, 1)
	// Ops: 0 = stale-tmp Remove, 1..2 = appends, 3..5 = tmp writes (the
	// wrapper's head, the payload, the closing brace), 6 = rename.
	ffs.FailAt(6)
	fl, err := Open(dir, Options{NoSync: true, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Replay(nil); err != nil {
		t.Fatal(err)
	}
	appendN(t, fl, 5, 2)
	if err := fl.WriteCheckpoint([]byte(`{"bad":1}`)); !errors.Is(err, ErrInjected) {
		t.Fatalf("checkpoint = %v, want injected rename fault", err)
	}
	if ffs.InjectedKind() != "rename-fail" {
		t.Fatalf("injected kind = %s, want rename-fail", ffs.InjectedKind())
	}
	crash(fl)

	if _, err := os.Stat(filepath.Join(dir, checkpointName+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint tmp still present after failed rename (stat err %v)", err)
	}
	re, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if cp, cpSeq, ok := re.Checkpoint(); !ok || string(cp) != `{"good":1}` || cpSeq != 2 {
		t.Fatalf("recovered checkpoint = %q seq %d ok %v, want old checkpoint at seq 2", cp, cpSeq, ok)
	}
	n := 0
	if _, err := re.Replay(func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("recovered %d records past checkpoint, want 4", n)
	}
}
