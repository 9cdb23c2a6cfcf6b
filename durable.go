package flowsched

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"flowsched/internal/design"
	"flowsched/internal/engine"
	"flowsched/internal/monte"
	"flowsched/internal/persist"
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

// durableCheckpoint is the WAL checkpoint payload: the full-fidelity
// store state (exact version counter and watermarks — see store.State),
// the design data, the virtual clock, the tracked plan, and the event
// stream. Recovering from it is bit-identical to replaying the covered
// records.
type durableCheckpoint struct {
	Now         time.Time       `json:"now"`
	Store       *store.State    `json:"store"`
	Data        json.RawMessage `json:"data"`
	PlanVersion int             `json:"planVersion,omitempty"`
	Events      []engine.Event  `json:"events,omitempty"`
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
// stamped with the virtual clock when it is buffered, which is how
// recovery restores the clock (the clock is monotonic, so the last
// record's Now is the crashed process's Now). Records are buffered, not
// written: the facade operation that produced them flushes them as one
// WAL batch — one frame, one fsync — so recovery restores whole
// operations (see Project.commit).
//
// A failed flush wedges the recorder: in-memory state has advanced past
// what is durable, so further records are dropped and the error
// surfaces — typed as *QuarantineError — from the flushing operation and
// every later mutating facade operation (and from Checkpoint and Close).
// Wedging also drops the quarantine marker file beside the WAL.
type recorder struct {
	log     *persist.Log
	clock   *vclock.Clock
	mu      sync.Mutex
	pending []*persist.Record
	err     error
}

// add buffers rec for the operation in flight.
func (r *recorder) add(rec *persist.Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	rec.Now = r.clock.Now()
	r.pending = append(r.pending, rec)
}

// flush appends the buffered records as one batch and returns the
// wedging error, if any. The flushed slots are cleared so the buffer
// does not keep design-data blobs alive.
func (r *recorder) flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil && len(r.pending) > 0 {
		if _, err := r.log.AppendBatch(r.pending); err != nil {
			r.wedgeLocked(err)
		}
	}
	clear(r.pending)
	r.pending = r.pending[:0]
	return r.err
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
// commits, design-data inserts, engine events, plan selections — is
// appended to a write-ahead log before the call that caused it returns,
// each call's mutations as one atomic batch. On later opens the project
// is rebuilt by loading the latest checkpoint and replaying the log's
// clean prefix; the recovered project is bit-identical to the crashed
// one after its last durable operation: same store version, same
// container watermarks, same event stream, same virtual clock.
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

	rec := &recorder{log: log, clock: p.mgr.Clock}
	p.rec = rec
	p.checkpointEvery = uint64(defaultCheckpointEvery)
	switch {
	case po.CheckpointEvery > 0:
		p.checkpointEvery = uint64(po.CheckpointEvery)
	case po.CheckpointEvery < 0:
		p.checkpointEvery = 0
	}
	p.mgr.DB.SetCommitHook(func(m store.Mutation) {
		rec.add(&persist.Record{Kind: persist.RecStore, Store: &m})
	})
	p.mgr.Data.SetPutHook(func(o *design.Object) {
		rec.add(&persist.Record{Kind: persist.RecData, Data: &persist.DataPut{
			Class: o.Ref.Class, Producer: o.Producer, Created: o.Created, Bytes: o.Bytes,
		}})
	})
	p.mgr.SetEventHook(func(e engine.Event) {
		rec.add(&persist.Record{Kind: persist.RecEvent, Event: &e})
	})

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
		rec.add(&persist.Record{Kind: persist.RecStore, Store: &store.Mutation{
			Kind: store.MutCreate, Version: c.Watermark(),
			Container: c.Name, Space: c.Space, Class: c.Class,
		}})
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
	db := store.NewDB()
	data := design.NewStore()
	now := man.Start
	planVersion := 0
	var events []engine.Event
	if cpb, _, ok := log.Checkpoint(); ok {
		var cp durableCheckpoint
		if err := json.Unmarshal(cpb, &cp); err != nil {
			return nil, nil, fmt.Errorf("flowsched: checkpoint payload: %w", err)
		}
		if db, err = store.FromState(cp.Store); err != nil {
			return nil, nil, fmt.Errorf("flowsched: checkpoint store: %w", err)
		}
		if err := json.Unmarshal(cp.Data, data); err != nil {
			return nil, nil, fmt.Errorf("flowsched: checkpoint data: %w", err)
		}
		now, planVersion, events = cp.Now, cp.PlanVersion, cp.Events
		for _, c := range db.Containers() {
			covered[c.Name] = true
		}
	}
	if _, err := log.Replay(func(r *persist.Record) error {
		if !r.Now.IsZero() {
			now = r.Now
		}
		switch r.Kind {
		case persist.RecStore:
			if r.Store == nil {
				return fmt.Errorf("flowsched: record %d: empty store mutation", r.Seq)
			}
			if r.Store.Kind == store.MutCreate {
				covered[r.Store.Container] = true
			}
			return applyMutation(db, r.Store)
		case persist.RecData:
			if r.Data == nil {
				return fmt.Errorf("flowsched: record %d: empty data insert", r.Seq)
			}
			_, err := data.Put(r.Data.Class, r.Data.Bytes, r.Data.Producer, r.Data.Created)
			return err
		case persist.RecEvent:
			if r.Event == nil {
				return fmt.Errorf("flowsched: record %d: empty event", r.Seq)
			}
			events = append(events, *r.Event)
			return nil
		case persist.RecPlan:
			if r.Plan == nil {
				return fmt.Errorf("flowsched: record %d: empty plan record", r.Seq)
			}
			planVersion = r.Plan.Version
			return nil
		default:
			return fmt.Errorf("flowsched: record %d: unknown kind %q", r.Seq, r.Kind)
		}
	}); err != nil {
		return nil, nil, err
	}
	if opt.Calendar == nil {
		opt.Calendar = vclock.Standard()
	}
	m, err := engine.Restore(sch, opt.Calendar, db, data, now, man.Designer)
	if err != nil {
		return nil, nil, err
	}
	m.RestoreEvents(events)
	p := &Project{mgr: m, riskMemo: monte.NewMemo(0)}
	if opt.Obs.Enabled {
		p.enableObs(opt.Obs)
	}
	if planVersion > 0 {
		_, plan, err := m.Sched.PlanByVersion(planVersion)
		if err != nil {
			return nil, nil, fmt.Errorf("flowsched: recover plan: %w", err)
		}
		p.plan = plan
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
		if m.Entry.Payload != nil {
			payload = m.Entry.Payload
		}
		_, err = db.Put(m.Entry.Container, m.Entry.Created, payload, m.Entry.Deps...)
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
// watermarks), design data, clock, tracked plan, event stream — and
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
	data, err := json.Marshal(p.mgr.Data)
	if err != nil {
		return err
	}
	cp := durableCheckpoint{
		Now: p.Now(), Store: p.mgr.DB.State(), Data: data, Events: p.mgr.Events(),
	}
	if p.plan != nil {
		cp.PlanVersion = p.plan.Version
	}
	b, err := json.Marshal(&cp)
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
// applies the auto-checkpoint policy. The operation's own error wins;
// otherwise a WAL failure surfaces as *QuarantineError. A no-op on
// non-durable projects.
func (p *Project) commit(errp *error) {
	if p.rec == nil {
		return
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
// data content plus a per-instance estimate for the task database. The
// host registry's byte-budget LRU evicts against this estimate.
func (p *Project) MemoryFootprint() int64 {
	const perEntry = 512 // entry struct, ID strings, payload JSON
	_, execInst, _, schedInst := p.Stats()
	return int64(p.mgr.Data.TotalBytes()) + int64(execInst+schedInst)*perEntry
}

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
