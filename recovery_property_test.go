package flowsched

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"flowsched/internal/persist"
)

// The crash-recovery property harness: drive a randomized workload
// against a durable project, then simulate kill -9 at every WAL frame
// boundary — plus torn, truncated, and bit-flipped tails — and require
// that recovery always lands on a prefix of whole facade operations: a
// consistent project equal to the state right after one of the
// operations the workload completed, equal to replaying exactly the
// surviving records, and bit-identical across repeated recoveries.

// frameSpan locates one WAL frame's bytes — one appended batch —
// (segment file and [start,end)) and counts the records it holds.
type frameSpan struct {
	seg        string
	start, end int64
	records    int
}

// scanSpans parses the segment files' framing (4-byte BE length,
// 4-byte CRC, payload) and returns every frame's byte span in log
// order. It is deliberately an independent reimplementation of the
// reader, so the harness does not trust the code under test to locate
// its own frame boundaries or to count the records in a batch (a
// version-2 payload: 0x02, uvarint first seq, uvarint count, …; a
// version-1 JSON array payload; any other payload is one record).
func scanSpans(t *testing.T, dir string) []frameSpan {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	var spans []frameSpan
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		off := int64(0)
		for off+8 <= int64(len(b)) {
			n := int64(binary.BigEndian.Uint32(b[off:]))
			if off+8+n > int64(len(b)) {
				t.Fatalf("%s: torn frame in a cleanly written log", seg)
			}
			span := frameSpan{seg: seg, start: off, end: off + 8 + n, records: 1}
			if payload := b[off+8 : off+8+n]; n > 0 && payload[0] == 0x02 {
				_, k := binary.Uvarint(payload[1:])
				count, c := binary.Uvarint(payload[1+max(k, 0):])
				if k <= 0 || c <= 0 {
					t.Fatalf("%s@%d: batch frame header does not decode", seg, off)
				}
				span.records = int(count)
			} else if n > 0 && payload[0] == '[' {
				var batch []json.RawMessage
				if err := json.Unmarshal(payload, &batch); err != nil {
					t.Fatalf("%s@%d: batch frame does not decode: %v", seg, off, err)
				}
				span.records = len(batch)
			}
			spans = append(spans, span)
			off += 8 + n
		}
		if off != int64(len(b)) {
			t.Fatalf("%s: %d trailing bytes", seg, int64(len(b))-off)
		}
	}
	return spans
}

// copyDir clones a project directory (manifest + segments + checkpoint).
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// truncateToFrames cuts the cloned directory to exactly k surviving
// frames (+extra garbage bytes beyond the boundary, for torn tails):
// the k-th boundary's segment is truncated and every later segment
// removed — byte-for-byte what a crash at that instant leaves behind.
func truncateToFrames(t *testing.T, dir string, spans []frameSpan, k int, extra []byte) {
	t.Helper()
	var keepSeg string
	var cutOff int64
	if k == 0 {
		keepSeg, cutOff = spans[0].seg, 0
	} else {
		keepSeg, cutOff = spans[k-1].seg, spans[k-1].end
	}
	keep := filepath.Join(dir, filepath.Base(keepSeg))
	b, err := os.ReadFile(keep)
	if err != nil {
		t.Fatal(err)
	}
	b = append(b[:cutOff:cutOff], extra...)
	if err := os.WriteFile(keep, b, 0o644); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	for _, seg := range segs {
		if filepath.Base(seg) > filepath.Base(keepSeg) {
			if err := os.Remove(seg); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// readRecords decodes the full record stream from a clone of dir.
func readRecords(t *testing.T, dir string) []persist.Record {
	t.Helper()
	l, err := persist.Open(copyDir(t, dir), persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var recs []persist.Record
	if _, err := l.Replay(func(r *persist.Record) error {
		recs = append(recs, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// crashIdentity is the recovery comparison key: everything two
// recoveries of the same byte prefix must agree on.
type crashIdentity struct {
	version uint64
	dump    string
	events  int
	now     time.Time
}

func crashIdentityOf(p *Project) crashIdentity {
	return crashIdentity{
		version: p.mgr.DB.Version(),
		dump:    p.DatabaseDump(),
		events:  p.EventCount(),
		now:     p.Now(),
	}
}

// recoverAt clones the master directory, cuts it to k frames (with
// optional garbage tail), and recovers. It returns the recovered
// identity after verifying stability: an immediate second crash and
// recovery of the same directory must reproduce the identity exactly.
func recoverAt(t *testing.T, master string, spans []frameSpan, k int, extra []byte) crashIdentity {
	t.Helper()
	dir := copyDir(t, master)
	truncateToFrames(t, dir, spans, k, extra)
	p, err := Open(dir, "", Options{}, PersistOptions{NoSync: true, CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("recovery at frame %d (+%d garbage bytes): %v", k, len(extra), err)
	}
	id := crashIdentityOf(p)
	// No Close: crash again right after recovering, then recover again.
	re, err := Open(dir, "", Options{}, PersistOptions{NoSync: true, CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("re-recovery at frame %d: %v", k, err)
	}
	if got := crashIdentityOf(re); got != id {
		t.Fatalf("recovery at frame %d not stable:\n%+v\nvs\n%+v", k, id, got)
	}
	return id
}

// opState is the state a completed facade operation left behind; a
// crash must recover exactly one of them.
type opState struct {
	version uint64
	events  int
	now     time.Time
}

func (id crashIdentity) opState() opState {
	return opState{version: id.version, events: id.events, now: id.now}
}

// driveRandom applies a seed-determined workload to a durable project
// and returns the state after Open and after every facade call.
func driveRandom(t *testing.T, p *Project, rng *rand.Rand) []opState {
	t.Helper()
	states := []opState{crashIdentityOf(p).opState()}
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, crashIdentityOf(p).opState())
	}
	step(p.UseSimulatedTools())
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		_, err := p.Import("stimuli", []byte(fmt.Sprintf("pulse %d", rng.Int63())))
		step(err)
	}
	est := Fixed{Default: time.Duration(4+rng.Intn(12)) * time.Hour}
	_, err := p.Plan([]string{"performance"}, est, PlanOptions{})
	step(err)
	if rng.Intn(2) == 0 {
		step(p.SetMilestone("tapeout", "performance", p.Now().Add(time.Duration(10+rng.Intn(50))*24*time.Hour)))
	}
	_, err = p.Run([]string{"performance"}, true)
	step(err)
	if rng.Intn(2) == 0 {
		_, err := p.Import("stimuli", []byte(fmt.Sprintf("rerun %d", rng.Int63())))
		step(err)
		_, err = p.Run([]string{"performance"}, false)
		step(err)
	}
	return states
}

// master is a driven durable project's crash image: its directory,
// frame spans, decoded records, and the state after every operation.
type master struct {
	dir    string
	spans  []frameSpan
	recs   []persist.Record
	states []opState
}

// buildMaster creates a driven durable project. Small segments force
// multi-segment logs; auto-checkpointing is off so the whole history
// is in the segments and "prefix" is exact.
func buildMaster(t *testing.T, rng *rand.Rand) master {
	t.Helper()
	dir := t.TempDir()
	p, err := Open(dir, Fig4Schema, Options{Designer: "ewj"},
		PersistOptions{NoSync: true, CheckpointEvery: -1, SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	states := driveRandom(t, p, rng)
	// No Close: the master itself is a crash image.
	m := master{dir: dir, spans: scanSpans(t, dir), recs: readRecords(t, dir), states: states}
	framed := 0
	for _, s := range m.spans {
		framed += s.records
	}
	if framed != len(m.recs) {
		t.Fatalf("%d records in %d frames vs %d records replayed", framed, len(m.spans), len(m.recs))
	}
	return m
}

// expectAt computes what a clean prefix of k frames must recover to,
// from the records alone: the store version, the event count, and the
// clock of the last surviving record. ok is false for k = 0, where no
// record survives and recovery re-creates the bootstrap containers.
func (m master) expectAt(k int) (want opState, ok bool) {
	n := 0
	for _, s := range m.spans[:k] {
		n += s.records
	}
	for _, r := range m.recs[:n] {
		w, err := decodeRecord(&r, nil)
		if err != nil {
			panic(err) // every record of the master replayed cleanly once
		}
		if w.mut != nil && w.mut.Version > want.version {
			want.version = w.mut.Version
		}
		if w.event != nil {
			want.events++
		}
	}
	if n == 0 {
		return want, false
	}
	want.now = m.recs[n-1].Now
	return want, true
}

// checkCut recovers at frame k and validates it: the recovered state
// is the state after one of the workload's operations, and it matches
// what the surviving records alone imply.
func (m master) checkCut(t *testing.T, k int, extra []byte) crashIdentity {
	t.Helper()
	id := recoverAt(t, m.dir, m.spans, k, extra)
	got := id.opState()
	if !slices.ContainsFunc(m.states, func(s opState) bool {
		return s.version == got.version && s.events == got.events && s.now.Equal(got.now)
	}) {
		t.Fatalf("cut at frame %d: recovered %+v, the state after no completed operation", k, got)
	}
	if want, ok := m.expectAt(k); ok && (got.version != want.version || got.events != want.events || !got.now.Equal(want.now)) {
		t.Fatalf("cut at frame %d: recovered %+v, surviving records imply %+v", k, got, want)
	}
	return id
}

// TestCrashAtEveryRecordBoundary is the exhaustive sweep on one seed:
// kill -9 after every WAL frame (and before the first) must recover
// exactly the operations those frames hold.
func TestCrashAtEveryRecordBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	m := buildMaster(t, rng)
	if len(m.recs) < 20 {
		t.Fatalf("workload produced only %d records", len(m.recs))
	}
	for k := 0; k <= len(m.spans); k++ {
		m.checkCut(t, k, nil)
	}
}

// TestCrashRecoveryPropertyHundredSeeds fuzzes the contract across 100
// randomized workloads: for each seed, random frame-boundary kills,
// a torn tail (partial frame bytes), and a bit-flipped frame — every
// one must recover to the clean prefix of whole operations the damage
// leaves behind, bit-identically to recovering that prefix directly.
func TestCrashRecoveryPropertyHundredSeeds(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)))
			m := buildMaster(t, rng)
			spans := m.spans
			n := len(spans)

			// Three random clean boundary kills.
			for i := 0; i < 3; i++ {
				m.checkCut(t, rng.Intn(n+1), nil)
			}

			// A torn tail: a partial frame after boundary k must be
			// discarded, recovering exactly k frames — bit-identical to
			// the clean cut at k.
			k := rng.Intn(n)
			frameLen := spans[k].end - spans[k].start
			garbage := make([]byte, 1+rng.Int63n(frameLen-1))
			rng.Read(garbage)
			// A torn frame, not a valid one: a random length prefix of
			// the next frame's real bytes.
			next, err := os.ReadFile(spans[k].seg)
			if err != nil {
				t.Fatal(err)
			}
			copy(garbage, next[spans[k].start:spans[k].end])
			torn := m.checkCut(t, k, garbage)
			clean := m.checkCut(t, k, nil)
			if torn != clean {
				t.Fatalf("torn tail at %d diverged from clean prefix:\n%+v\nvs\n%+v", k, torn, clean)
			}

			// A bit flip inside frame j ends the clean prefix at j.
			j := rng.Intn(n)
			dir := copyDir(t, m.dir)
			seg := filepath.Join(dir, filepath.Base(spans[j].seg))
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			off := spans[j].start + rng.Int63n(spans[j].end-spans[j].start)
			b[off] ^= 1 << uint(rng.Intn(8))
			if err := os.WriteFile(seg, b, 0o644); err != nil {
				t.Fatal(err)
			}
			p, err := Open(dir, "", Options{}, PersistOptions{NoSync: true, CheckpointEvery: -1})
			if err != nil {
				t.Fatalf("seed %d: bit flip in frame %d: recovery failed: %v", seed, j, err)
			}
			got := crashIdentityOf(p)
			want := m.checkCut(t, j, nil)
			if got != want {
				t.Fatalf("bit flip in frame %d diverged from clean prefix %d:\n%+v\nvs\n%+v", j, j, got, want)
			}
		})
	}
}
