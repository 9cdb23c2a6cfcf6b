package flowsched

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
	"unsafe"

	"flowsched/internal/design"
	"flowsched/internal/engine"
	"flowsched/internal/persist"
	"flowsched/internal/sched"
	"flowsched/internal/schema"
	"flowsched/internal/store"
	"flowsched/internal/vclock"
)

// PersistOptions configures a durable project opened with Open.
type PersistOptions struct {
	// SegmentBytes is the WAL segment roll threshold (default 4 MiB).
	SegmentBytes int64
	// NoSync skips the fsync that ends each mutating facade operation
	// (one per operation, not per record). A crash may then lose recently
	// acknowledged operations, but recovery still yields a prefix of
	// whole operations. For tests and benchmarks.
	NoSync bool
	// CheckpointEvery bounds replay debt: after a mutating facade
	// operation leaves more than this many records past the installed
	// checkpoint, a checkpoint is taken automatically. 0 selects the
	// default (4096); negative disables auto-checkpointing (Checkpoint
	// remains available).
	CheckpointEvery int
	// FS is the filesystem the WAL writes through. Nil selects the real
	// one; tests inject persist.FaultFS to drive the project into
	// quarantine deterministically.
	FS persist.FS
}

const defaultCheckpointEvery = 4096

// manifestName is the per-project identity file, written once at create.
const manifestName = "manifest.json"

// durableManifest pins what the WAL alone cannot reconstruct: the schema
// the containers were created from, the designer, and the virtual start
// time. The calendar is configuration, not state — it comes from Options
// on every Open, exactly as with Load.
type durableManifest struct {
	Schema   string    `json:"schema"`
	Designer string    `json:"designer"`
	Start    time.Time `json:"start"`
}

// restore builds a Project from persisted state — the one path Load and
// Open's recovery share: the engine over the store and design data, the
// event stream and observability (the tracked plan is in the store).
func (st *projectState) restore(sch *schema.Schema, designer string, opt Options) (*Project, error) {
	if opt.Calendar == nil {
		opt.Calendar = vclock.Standard()
	}
	m, err := engine.Restore(sch, opt.Calendar, st.db, st.data, st.now, designer)
	if err != nil {
		return nil, err
	}
	m.RestoreEvents(st.events)
	return fromManager(m, opt.Obs), nil
}

// ErrQuarantined marks a durable project whose write-ahead log has
// failed: the project is read-only quarantined. Reads keep answering
// from the last committed in-memory state; every mutating facade
// operation fails with an error wrapping this sentinel until a host
// Reopen (a fresh flowsched.Open) re-runs clean-prefix recovery.
var ErrQuarantined = fmt.Errorf("flowsched: project quarantined (write-ahead log failed; read-only)")

// QuarantineError is the typed error mutating operations return from a
// quarantined project. It wraps both ErrQuarantined (for errors.Is
// dispatch) and the underlying disk failure.
type QuarantineError struct {
	// Cause is the WAL failure that triggered quarantine.
	Cause error
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("%v: %v", ErrQuarantined, e.Cause)
}
func (e *QuarantineError) Unwrap() error { return e.Cause }
func (e *QuarantineError) Is(target error) bool {
	return target == ErrQuarantined
}

// quarantineName is the on-disk quarantine marker: written beside the
// WAL when the project wedges so operators (hercules projects) and
// post-crash inspection see the degraded state without attaching to the
// process; removed by the next successful Open.
const quarantineName = "quarantined.json"

// quarantineMarker is the marker file's payload.
type quarantineMarker struct {
	Error string    `json:"error"`
	Time  time.Time `json:"time"` // wall clock; operator-facing
}

// Health describes a project's serving state.
type Health struct {
	// Durable reports whether the project has a write-ahead log.
	Durable bool `json:"durable"`
	// Quarantined is true once the WAL has failed: the project is
	// read-only until recovered by a fresh Open.
	Quarantined bool `json:"quarantined"`
	// Err is the failure that triggered quarantine ("" while healthy).
	Err string `json:"error,omitempty"`
	// WALSeq is the last durable record sequence number.
	WALSeq uint64 `json:"walSeq,omitempty"`
}

// Health reports the project's serving state: healthy, or read-only
// quarantined after a WAL failure. Non-durable projects are always
// healthy (there is no disk to fail).
func (p *Project) Health() Health {
	if p.rec == nil {
		return Health{}
	}
	h := Health{Durable: true, WALSeq: p.rec.log.Seq()}
	if err := p.rec.Err(); err != nil {
		h.Quarantined = true
		h.Err = err.Error()
	}
	return h
}

// recorder bridges the in-memory change feeds to the WAL. Hooks fire
// from the project's executing goroutine in commit order; each record is
// stamped with the virtual clock when it is buffered, and a batch's last
// record with the clock when the operation ends, which is how recovery
// restores the clock (the clock is monotonic, so the last record's Now
// is the crashed process's Now). Records are buffered, not written: the
// facade operation that produced them flushes them as one WAL batch —
// one frame, one fsync — so recovery restores whole operations (see
// Project.commit).
//
// A failed flush wedges the recorder: in-memory state has advanced past
// what is durable, so further records are dropped and the error
// surfaces — typed as *QuarantineError — from the flushing operation and
// every later mutating facade operation (and from Checkpoint and Close).
// Wedging also drops the quarantine marker file beside the WAL.
type recorder struct {
	log   *persist.Log
	clock *vclock.Clock
	mu    sync.Mutex
	// The operation's records in commit order: recs[i] carries the clock
	// when record i was buffered (flush sets its Kind and Body), and
	// srcs[i] says which of muts, events and objs holds its value, the
	// next one not yet read. Mutations and events are held by value and
	// design objects (immutable) by their pointer, so buffering a record
	// copies nothing to the heap.
	recs   []persist.Record
	srcs   []recordSource
	muts   []store.Mutation
	events []engine.Event
	objs   []*design.Object
	err    error
	// logged is the clock the log last carried: the last appended
	// record's Now, or the clock the project was opened at.
	logged time.Time
	// body and batch are flush's encode buffers: the records' bodies
	// back to back, and the records AppendBatch takes.
	body  []byte
	batch []*persist.Record
}

type recordSource uint8

const (
	srcMut recordSource = iota
	srcEvent
	srcObject
)

// addMut, addEvent and addObject buffer a record for the operation in
// flight.
func (r *recorder) addMut(m store.Mutation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pushLocked(srcMut) {
		r.muts = push(r.muts, m)
	}
}

func (r *recorder) addEvent(e engine.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pushLocked(srcEvent) {
		r.events = push(r.events, e)
	}
}

func (r *recorder) addObject(o *design.Object) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pushLocked(srcObject) {
		r.objs = push(r.objs, o)
	}
}

// pushLocked appends a record whose value src's slice holds next,
// stamped with the clock, and reports whether it did: a wedged recorder
// drops records.
func (r *recorder) pushLocked(src recordSource) bool {
	if r.err != nil {
		return false
	}
	r.recs = push(r.recs, persist.Record{Now: r.clock.Now()})
	r.srcs = push(r.srcs, src)
	return true
}

// push appends v to s, growing a full s by a quarter where append would
// double it: the recorder keeps its slices between operations, so
// capacity past the largest operation is heap held for the project's
// life.
func push[S ~[]E, E any](s S, v E) S {
	if len(s) == cap(s) {
		s = append(make(S, 0, len(s)+len(s)/4+8), s...)
	}
	return append(s, v)
}

// reuse clears s, so that it keeps no design-data blob or entry alive,
// and returns it emptied for the next operation, or nil when its backing
// array holds more than persist.MaxReusedBuffer bytes: a rare large
// operation (an RTL import) must not pin its buffer for the project's
// life.
func reuse[S ~[]E, E any](s S) S {
	var e E
	if uintptr(cap(s))*unsafe.Sizeof(e) > persist.MaxReusedBuffer {
		return nil
	}
	clear(s)
	return s[:0]
}

// clockOnly reports whether the clock has moved past what the log
// carries while no record is buffered to carry it.
func (r *recorder) clockOnly() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err == nil && len(r.recs) == 0 && !r.clock.Now().Equal(r.logged)
}

// flush stamps the last buffered record with the clock, encodes the
// records and appends them as one batch, and returns the wedging error,
// if any. The buffers are kept for the next operation (reuse).
func (r *recorder) flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.recs); r.err == nil && n > 0 {
		now := r.clock.Now()
		r.recs[n-1].Now = now
		if err := r.appendLocked(); err != nil {
			r.wedgeLocked(err)
		} else {
			r.logged = now
		}
	}
	r.recs, r.srcs, r.batch = reuse(r.recs), reuse(r.srcs), reuse(r.batch)
	r.muts, r.events, r.objs = reuse(r.muts), reuse(r.events), reuse(r.objs)
	return r.err
}

// appendLocked encodes the buffered records' bodies into the body buffer
// and appends them as one batch. Each body slices the buffer as it was
// when the body was appended: a later append may move the buffer, but
// never rewrites bytes already written, so every body stays valid.
// AppendBatch keeps neither records nor bodies.
func (r *recorder) appendLocked() error {
	body, batch := r.body[:0], r.batch[:0]
	var mi, ei, oi int
	for i, src := range r.srcs {
		var w walRecord
		switch src {
		case srcMut:
			w.mut, mi = &r.muts[mi], mi+1
		case srcEvent:
			w.event, ei = &r.events[ei], ei+1
		case srcObject:
			o := r.objs[oi]
			oi++
			w.data = &dataPut{Class: o.Ref.Class, Producer: o.Producer, Created: o.Created, Bytes: o.Bytes}
		}
		start := len(body)
		kind, b, err := appendRecord(body, w)
		if err != nil {
			return err
		}
		body = b
		rec := &r.recs[i]
		rec.Kind, rec.Body = kind, body[start:len(body):len(body)]
		batch = push(batch, rec)
	}
	_, err := r.log.AppendBatch(batch)
	r.body, r.batch = reuse(body), batch
	return err
}

// wedge records the first WAL failure and writes the quarantine marker.
func (r *recorder) wedge(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wedgeLocked(err)
}

func (r *recorder) wedgeLocked(err error) {
	if r.err != nil || err == nil {
		return
	}
	r.err = err
	// Marker write is best-effort and bypasses the WAL's FS seam: on a
	// genuinely failed disk it fails silently (Health still reports the
	// quarantine in-process), and under fault injection it must not
	// perturb the deterministic op count.
	if b, merr := json.Marshal(quarantineMarker{Error: err.Error(), Time: time.Now()}); merr == nil {
		os.WriteFile(filepath.Join(r.log.Dir(), quarantineName), b, 0o644)
	}
}

// Err returns the wedging error, if any.
func (r *recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Open creates or recovers a durable project rooted at dir. On first
// open the directory is initialized: a manifest pins schema, designer,
// and start time, and every subsequent committed mutation — task-database
// commits, design-data inserts, engine events — is appended to a
// write-ahead log before the call that caused it returns, each call's
// mutations as one atomic batch. On later opens the project is rebuilt
// by loading the latest checkpoint and replaying the log's clean prefix;
// the recovered project is bit-identical to the crashed one after its
// last durable operation: same store version, same container
// watermarks, same event stream, same virtual clock.
//
// schemaSrc is required on first open and ignored afterwards (the
// manifest wins — a project's schema is fixed at creation). As with
// Load, tool bindings are not persisted; rebind before executing.
func Open(dir, schemaSrc string, opt Options, po PersistOptions) (*Project, error) {
	log, err := persist.Open(dir, persist.Options{
		SegmentBytes: po.SegmentBytes, NoSync: po.NoSync, FS: po.FS,
	})
	if err != nil {
		return nil, err
	}
	manPath := filepath.Join(dir, manifestName)
	manBytes, err := os.ReadFile(manPath)
	var p *Project
	covered := map[string]bool{} // containers whose creation is already logged
	switch {
	case os.IsNotExist(err):
		p, err = createDurable(dir, manPath, schemaSrc, opt, log)
	case err == nil:
		p, covered, err = recoverDurable(manBytes, opt, log)
	default:
		return nil, fmt.Errorf("flowsched: open %s: %w", manPath, err)
	}
	if err != nil {
		log.Close()
		return nil, err
	}

	rec := &recorder{log: log, clock: p.mgr.Clock, logged: p.mgr.Clock.Now()}
	p.rec = rec
	p.checkpointEvery = uint64(defaultCheckpointEvery)
	switch {
	case po.CheckpointEvery > 0:
		p.checkpointEvery = uint64(po.CheckpointEvery)
	case po.CheckpointEvery < 0:
		p.checkpointEvery = 0
	}
	p.mgr.DB.SetCommitHook(rec.addMut)
	p.mgr.Data.SetPutHook(rec.addObject)
	p.mgr.SetEventHook(rec.addEvent)

	// Bootstrap: container creations that happened before the hooks were
	// attached (engine.New on a fresh project, or engine.Restore's
	// idempotent space initialization after a crash that preceded full
	// bootstrap) are synthesized into the log now, as one batch. An
	// empty container's watermark is exactly the version its creation
	// committed at, so the synthesized records replay to identical
	// versions.
	for _, c := range p.mgr.DB.Containers() {
		if covered[c.Name] {
			continue
		}
		rec.addMut(store.Mutation{
			Kind: store.MutCreate, Version: c.Watermark(),
			Container: c.Name, Space: c.Space, Class: c.Class,
		})
	}
	if err := rec.flush(); err != nil {
		log.Close()
		return nil, err
	}
	// Recovery succeeded: clear any quarantine marker a previous wedged
	// process left behind. The marker reflects live state, and this
	// process's log is healthy.
	os.Remove(filepath.Join(dir, quarantineName))
	return p, nil
}

// createDurable initializes a fresh durable project directory.
func createDurable(dir, manPath, schemaSrc string, opt Options, log *persist.Log) (*Project, error) {
	if schemaSrc == "" {
		return nil, fmt.Errorf("flowsched: open %s: new project needs a schema", dir)
	}
	sch, err := schema.Parse(schemaSrc)
	if err != nil {
		return nil, err
	}
	if opt.Designer == "" {
		opt.Designer = "designer"
	}
	if opt.Start.IsZero() {
		opt.Start = vclock.Epoch
	}
	man, err := json.Marshal(durableManifest{
		Schema: sch.Format(), Designer: opt.Designer, Start: opt.Start,
	})
	if err != nil {
		return nil, err
	}
	tmp := manPath + ".tmp"
	if err := os.WriteFile(tmp, man, 0o644); err != nil {
		return nil, fmt.Errorf("flowsched: write manifest: %w", err)
	}
	if err := os.Rename(tmp, manPath); err != nil {
		return nil, fmt.Errorf("flowsched: install manifest: %w", err)
	}
	if _, err := log.Replay(nil); err != nil {
		return nil, err
	}
	return NewFromSchema(sch, opt)
}

// recoverDurable rebuilds a project from checkpoint + log. It returns
// the set of containers whose creation is already durable, so Open can
// synthesize bootstrap records for the rest.
func recoverDurable(manBytes []byte, opt Options, log *persist.Log) (*Project, map[string]bool, error) {
	var man durableManifest
	if err := json.Unmarshal(manBytes, &man); err != nil {
		return nil, nil, fmt.Errorf("flowsched: manifest corrupt: %w", err)
	}
	sch, err := schema.Parse(man.Schema)
	if err != nil {
		return nil, nil, fmt.Errorf("flowsched: manifest schema: %w", err)
	}
	covered := map[string]bool{}
	st := &projectState{now: man.Start, db: store.NewDB(), data: design.NewStore()}
	if cpb, _, ok := log.Checkpoint(); ok {
		if st, err = decodeImage(cpb, false); err != nil {
			return nil, nil, fmt.Errorf("flowsched: checkpoint: %w", err)
		}
		for _, c := range st.db.Containers() {
			covered[c.Name] = true
		}
	}
	base := func(id string) (json.RawMessage, bool) {
		if e := st.db.Get(id); e != nil {
			return e.Payload(), true
		}
		return nil, false
	}
	if _, err := log.Replay(func(r *persist.Record) error {
		if !r.Now.IsZero() {
			st.now = r.Now
		}
		w, err := decodeRecord(r, base)
		if err != nil {
			return err
		}
		switch {
		case w.mut != nil:
			if w.mut.Kind == store.MutCreate {
				covered[w.mut.Container] = true
			}
			return applyMutation(st.db, w.mut)
		case w.data != nil:
			// Verbatim: the log holds only actual inserts, in order.
			_, err := st.data.Append(w.data.Class, w.data.Bytes, w.data.Producer, w.data.Created)
			return err
		case w.event != nil:
			st.events = append(st.events, *w.event)
			return nil
		default:
			return checkPlanVersion(st.db, w.plan)
		}
	}); err != nil {
		return nil, nil, err
	}
	p, err := st.restore(sch, man.Designer, opt)
	if err != nil {
		return nil, nil, err
	}
	return p, covered, nil
}

// applyMutation replays one recorded store mutation and asserts the
// resulting version counter matches the one committed in the original
// process — the bit-identity check that catches any replay divergence at
// the exact record that introduced it.
func applyMutation(db *store.DB, m *store.Mutation) error {
	var err error
	switch m.Kind {
	case store.MutCreate:
		_, err = db.CreateContainer(m.Container, m.Space, m.Class)
	case store.MutPut:
		if m.Entry == nil {
			return fmt.Errorf("flowsched: put record without entry")
		}
		var payload any
		if raw := m.Entry.Payload(); raw != nil {
			payload = raw
		}
		var e *store.Entry
		if e, err = db.Put(m.Entry.Container, m.Entry.Created, payload, m.Entry.Deps...); err == nil && e.ID != m.Entry.ID {
			err = fmt.Errorf("flowsched: replay diverged: put created %s, record holds %s", e.ID, m.Entry.ID)
		}
	case store.MutPayload:
		err = db.SetPayload(m.ID, m.Payload)
	case store.MutLink:
		err = db.Link(m.A, m.B)
	case store.MutTouch:
		db.Touch()
	default:
		err = fmt.Errorf("flowsched: unknown mutation kind %q", m.Kind)
	}
	if err != nil {
		return err
	}
	if got := db.Version(); got != m.Version {
		return fmt.Errorf("flowsched: replay diverged: store at version %d, record %s committed at %d",
			got, m.Kind, m.Version)
	}
	return nil
}

// checkPlanVersion checks a legacy plan record or image "planVersion":
// the tracked plan was always the newest plan, so it must name that.
func checkPlanVersion(db *store.DB, version int) error {
	if c := db.Container(sched.PlanContainer); c != nil && c.Len() == version {
		return nil
	}
	return fmt.Errorf("flowsched: replay diverged: plan record names plan %d, not the newest plan", version)
}

// Durable reports whether the project persists its mutations to a
// write-ahead log (it was opened with Open).
func (p *Project) Durable() bool { return p.rec != nil }

// WALSeq returns the last durable record sequence number (0 on
// non-durable projects).
func (p *Project) WALSeq() uint64 {
	if p.rec == nil {
		return 0
	}
	return p.rec.log.Seq()
}

// Checkpoint captures the full project state — store (exact version and
// watermarks), design data, clock, event stream — and
// installs it atomically in the WAL, deleting the covered segments. The
// caller must guarantee no mutation is in flight (the facade's
// single-writer discipline; the host's per-project lock provides it when
// serving).
func (p *Project) Checkpoint() error {
	if p.rec == nil {
		return fmt.Errorf("flowsched: project is not durable")
	}
	// Flush first: the checkpoint covers every record appended so far,
	// so a record still buffered would be appended after it and replayed
	// on top of the state that already contains it.
	if err := p.rec.flush(); err != nil {
		return &QuarantineError{Cause: err}
	}
	b, err := p.encodeImage("", "")
	if err != nil {
		return err
	}
	if err := p.rec.log.WriteCheckpoint(b); err != nil {
		// A failed checkpoint poisons the log (sticky); quarantine the
		// project so writers learn immediately instead of at their next
		// append.
		p.rec.wedge(err)
		return &QuarantineError{Cause: err}
	}
	return nil
}

// commit finishes one mutating facade operation. Each such operation
// defers it first thing, so it runs on every return path, failures
// included: whatever a failed operation already changed in memory is
// made as durable as a success would be. On a durable project it
// appends the records the operation buffered as one WAL batch, then
// applies the auto-checkpoint policy. An operation that changed nothing
// appends nothing; one that moved only the clock logs a touch to carry
// it. The operation's own error wins; otherwise a WAL failure surfaces
// as *QuarantineError. A no-op on non-durable projects.
func (p *Project) commit(errp *error) {
	if p.rec == nil {
		return
	}
	if p.rec.clockOnly() {
		p.mgr.DB.Touch()
	}
	err := p.rec.flush()
	if err != nil {
		err = &QuarantineError{Cause: err}
	} else if p.checkpointEvery > 0 && p.rec.log.SinceCheckpoint() >= p.checkpointEvery {
		err = p.Checkpoint()
	}
	if *errp == nil {
		*errp = err
	}
}

// DurableFootprint reports the WAL's on-disk size in bytes.
func (p *Project) DurableFootprint() (int64, error) {
	if p.rec == nil {
		return 0, nil
	}
	return p.rec.log.FootprintBytes()
}

// MemoryFootprint estimates the project's resident size in bytes: design
// data content, a per-instance estimate for the task database, and the
// trial streams held by the risk memo. The host registry's byte-budget
// LRU evicts against this estimate.
func (p *Project) MemoryFootprint() int64 {
	const perEntry = 512 // entry struct, ID strings, payload JSON
	_, execInst, _, schedInst := p.Stats()
	return int64(p.mgr.Data.TotalBytes()) + int64(execInst+schedInst)*perEntry +
		p.RiskMemoBytes()
}

// RiskMemoBytes reports the bytes of trial streams held by the risk
// memo, the one part of MemoryFootprint that read-only risk analyses
// grow. It is cheap to read, unlike the full estimate.
func (p *Project) RiskMemoBytes() int64 { return p.riskMemo.Stats().Bytes }

// Close checkpoints a durable project (bounding the next open's replay),
// detaches the change-feed hooks, and closes the WAL. A no-op on
// non-durable projects. The project must not be used afterwards.
func (p *Project) Close() error {
	if p.rec == nil {
		return nil
	}
	cpErr := p.Checkpoint()
	p.mgr.DB.SetCommitHook(nil)
	p.mgr.Data.SetPutHook(nil)
	p.mgr.SetEventHook(nil)
	if err := p.rec.log.Close(); err != nil {
		return err
	}
	return cpErr
}
