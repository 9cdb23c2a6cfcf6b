// Package engine implements the Hercules-like workflow manager: the system
// that formulates, plans, executes, and tracks design tasks over the task
// database.
//
// The manager owns one database with both Level 3 spaces (execution and
// schedule), the Level 4 design-data store, a virtual clock, and the tool
// bindings. Its lifecycle mirrors paper §IV.A:
//
//  1. define a task schema (package schema) — New initializes the
//     containers from it;
//  2. extract a task tree covering the intended scope (ExtractTree);
//  3. bind tools and input data (BindTool / Import);
//  4. plan: simulate the execution to create schedule instances (Plan);
//  5. execute: post-order traversal running each activity until the
//     design goals are met, creating runs and entity instances
//     (ExecuteTask);
//  6. complete: link final entity instances to schedule instances and
//     propagate any slip through the plan (done by ExecuteTask when
//     AutoComplete is set, or explicitly via CompleteActivity).
package engine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"flowsched/internal/design"
	"flowsched/internal/flow"
	"flowsched/internal/meta"
	"flowsched/internal/obs"
	"flowsched/internal/sched"
	"flowsched/internal/schema"
	"flowsched/internal/store"
	"flowsched/internal/tools"
	"flowsched/internal/vclock"
)

// EventKind classifies manager events.
type EventKind string

const (
	EvRunStarted    EventKind = "run-started"
	EvRunFinished   EventKind = "run-finished"
	EvRunFailed     EventKind = "run-failed"
	EvEntityCreated EventKind = "entity-created"
	EvTaskStarted   EventKind = "task-started"
	EvTaskComplete  EventKind = "task-complete"
	EvPlanCreated   EventKind = "plan-created"
	EvSlip          EventKind = "slip"
	// Recovery events (see Recovery): a retried run after virtual-time
	// backoff, a run aborted on the vclock deadline, a rotation to an
	// alternate tool instance, an output rejected by the verifier, an
	// activity blocked (policy exhausted, or fenced behind a blocked
	// producer), and an activity skipped by a checkpoint resume.
	EvRunRetry     EventKind = "run-retry"
	EvRunTimeout   EventKind = "run-timeout"
	EvFailover     EventKind = "tool-failover"
	EvVerifyFailed EventKind = "verify-failed"
	EvBlocked      EventKind = "activity-blocked"
	EvResumed      EventKind = "activity-resumed"
)

// Event is one entry of the manager's event stream, consumed by the UI
// and the experiment reports.
type Event struct {
	Kind     EventKind
	Activity string
	At       time.Time
	Detail   string
}

// eventLog is the manager's append-only event stream behind its own small
// mutex: emit appends from the executing goroutine while pollers read
// Events/EventsSince concurrently (the hercules `events` command, status
// dashboards). It lives behind a pointer so Manager stays copyable
// (AtView) without copying a lock.
type eventLog struct {
	mu   sync.Mutex
	evs  []Event
	hook func(Event)
	wake chan struct{} // closed (and replaced) on append; lazily created
}

func (l *eventLog) append(e Event) {
	l.mu.Lock()
	l.evs = append(l.evs, e)
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
	hook := l.hook
	l.mu.Unlock()
	if hook != nil {
		hook(e)
	}
}

func (l *eventLog) since(seq int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < 0 {
		seq = 0
	}
	if seq >= len(l.evs) {
		return nil
	}
	return append([]Event(nil), l.evs[seq:]...)
}

// after is since plus a wakeup: when no events past seq exist yet, it
// returns a channel that is closed at the next append, so a streaming
// consumer can block instead of polling. The channel is shared by all
// waiters of the current log length and is only valid for one wait.
func (l *eventLog) after(seq int) ([]Event, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < 0 {
		seq = 0
	}
	if seq < len(l.evs) {
		return append([]Event(nil), l.evs[seq:]...), nil
	}
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	return nil, l.wake
}

func (l *eventLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.evs)
}

// Manager is the workflow manager.
type Manager struct {
	Schema   *schema.Schema
	Graph    *flow.Graph
	DB       *store.DB
	Data     *design.Store
	Exec     *meta.Space
	Sched    *sched.Space
	Tools    *tools.Registry
	Clock    *vclock.Clock
	Calendar *vclock.Calendar
	Designer string

	ev *eventLog

	// Observability (nil until Instrument): the tracer carries
	// dual-clock spans for plan/execute/activity/run, the registry the
	// event and duration metrics. Execution is single-goroutine (the
	// Parallel exec mode composes virtual timelines, not goroutines), so
	// the handles and the lazily-grown event-counter map need no lock;
	// the event stream itself is lock-guarded because pollers read it
	// from other goroutines.
	tr         *obs.Tracer
	reg        *obs.Registry
	mEvents    *obs.CounterVec
	hActivity  *obs.Histogram
	hSlip      *obs.Histogram
	hBackoff   *obs.Histogram
	evCounters map[EventKind]*obs.Counter
}

// New builds a manager for a schema: it creates the task database with
// both Level 3 spaces initialized from the schema, an empty design-data
// store, and a clock at the given start time.
func New(sch *schema.Schema, cal *vclock.Calendar, start time.Time, designer string) (*Manager, error) {
	if cal == nil {
		return nil, fmt.Errorf("engine: nil calendar")
	}
	if designer == "" {
		return nil, fmt.Errorf("engine: empty designer")
	}
	g, err := flow.FromSchema(sch)
	if err != nil {
		return nil, err
	}
	db := store.NewDB()
	exec, err := meta.NewSpace(db, sch)
	if err != nil {
		return nil, err
	}
	sc, err := sched.NewSpace(db, sch, cal)
	if err != nil {
		return nil, err
	}
	return &Manager{
		Schema: sch, Graph: g, DB: db, Data: design.NewStore(),
		Exec: exec, Sched: sc, Tools: tools.NewRegistry(),
		Clock: vclock.NewAt(start), Calendar: cal, Designer: designer,
		ev: &eventLog{},
	}, nil
}

// Restore builds a manager over an existing task database and design-data
// store — the resume path after loading a persisted session. The schema
// must be the one the database was created from (container initialization
// is idempotent and verifies space/class agreement). Tool bindings are
// not persisted; rebind before executing.
func Restore(sch *schema.Schema, cal *vclock.Calendar, db *store.DB,
	data *design.Store, now time.Time, designer string) (*Manager, error) {
	if cal == nil {
		return nil, fmt.Errorf("engine: nil calendar")
	}
	if db == nil || data == nil {
		return nil, fmt.Errorf("engine: nil database or data store")
	}
	if designer == "" {
		return nil, fmt.Errorf("engine: empty designer")
	}
	g, err := flow.FromSchema(sch)
	if err != nil {
		return nil, err
	}
	exec, err := meta.NewSpace(db, sch)
	if err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	sc, err := sched.NewSpace(db, sch, cal)
	if err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	return &Manager{
		Schema: sch, Graph: g, DB: db, Data: data,
		Exec: exec, Sched: sc, Tools: tools.NewRegistry(),
		Clock: vclock.NewAt(now), Calendar: cal, Designer: designer,
		ev: &eventLog{},
	}, nil
}

// Instrument attaches an observability bundle: manager events and
// durations feed the metrics registry, plan/execute/activity/run work
// is traced as dual-clock spans, and the task database counts its
// container operations. Instrumenting is optional — an uninstrumented
// manager pays only nil checks. Returns m for chaining.
func (m *Manager) Instrument(o *obs.Obs) *Manager {
	if o == nil {
		return m
	}
	m.tr = o.Tracer()
	if reg := o.Metrics(); reg != nil {
		m.reg = reg
		// One labeled family carries every event kind; the old flat
		// engine_event_<kind>_total counters are the kind= dimension now.
		m.mEvents = reg.BoundedCounterVec("engine_events_total", 32, "kind")
		m.hActivity = reg.Histogram("engine_activity_virtual_seconds", nil)
		m.hSlip = reg.Histogram("engine_slip_seconds", nil)
		m.hBackoff = reg.Histogram("engine_backoff_virtual_seconds", nil)
		m.evCounters = make(map[EventKind]*obs.Counter)
	}
	m.DB.Instrument(o)
	return m
}

// Events returns a copy of the whole event stream. Pollers that only
// need the tail should use EventsSince. Safe to call while the manager
// executes on another goroutine.
func (m *Manager) Events() []Event { return m.ev.since(0) }

// EventsSince returns a copy of the events from sequence number seq on
// (seq counts events already seen; 0 means all). The stream is
// append-only, so a poller can resume with seq += len(returned) without
// re-copying the full history each time. Safe to call while the manager
// executes on another goroutine.
func (m *Manager) EventsSince(seq int) []Event { return m.ev.since(seq) }

// EventsAfter is EventsSince for push consumers: when events past seq
// already exist they are returned immediately (wake is nil); otherwise
// the returned channel is closed at the next append (or stream
// restore), after which the caller re-reads. One goroutine per stream
// can ride this without ever polling.
func (m *Manager) EventsAfter(seq int) ([]Event, <-chan struct{}) { return m.ev.after(seq) }

// EventCount reports the current length of the event stream — the
// cursor at which a new push consumer should start following.
func (m *Manager) EventCount() int { return m.ev.count() }

// SetEventHook installs fn to observe every event as it is emitted, after
// it is appended to the stream — the change feed a write-ahead log
// subscribes to. Events are emitted from the executing goroutine in
// order; fn must not call back into the manager. One hook at most; nil
// removes it. Forked children do not inherit the hook.
func (m *Manager) SetEventHook(fn func(Event)) {
	m.ev.mu.Lock()
	m.ev.hook = fn
	m.ev.mu.Unlock()
}

// RestoreEvents replaces the event stream with a recovered history — the
// resume path after write-ahead-log replay, so EventsSince cursors and
// event-log renderings pick up exactly where the crashed process left
// off. Only call on a freshly restored manager, before execution.
func (m *Manager) RestoreEvents(evs []Event) {
	m.ev.mu.Lock()
	m.ev.evs = append([]Event(nil), evs...)
	if m.ev.wake != nil {
		close(m.ev.wake)
		m.ev.wake = nil
	}
	m.ev.mu.Unlock()
}

func (m *Manager) emit(kind EventKind, activity string, at time.Time, format string, args ...any) {
	m.ev.append(Event{
		Kind: kind, Activity: activity, At: at, Detail: fmt.Sprintf(format, args...),
	})
	if m.reg != nil {
		m.eventCounter(kind).Inc()
	}
}

// eventCounter returns the cached engine_events_total{kind=...} series
// handle (dashes folded to underscores), creating it on first use.
func (m *Manager) eventCounter(kind EventKind) *obs.Counter {
	c, ok := m.evCounters[kind]
	if !ok {
		c = m.mEvents.With(strings.ReplaceAll(string(kind), "-", "_"))
		m.evCounters[kind] = c
	}
	return c
}

// ExtractTree extracts the task tree covering the targets.
func (m *Manager) ExtractTree(targets ...string) (*flow.Tree, error) {
	return m.Graph.Extract(targets...)
}

// BindTool binds a tool instance to an activity for subsequent executions.
func (m *Manager) BindTool(activity string, t tools.Tool) error {
	if m.Schema.RuleByActivity(activity) == nil {
		return fmt.Errorf("engine: unknown activity %q", activity)
	}
	return m.Tools.Bind(activity, t)
}

// BindDefaults binds a default simulated tool instance to every activity
// that lacks one, named "<toolclass>#1".
func (m *Manager) BindDefaults() error {
	for _, r := range m.Schema.Rules() {
		if m.Tools.For(r.Activity) != nil {
			continue
		}
		t, err := tools.DefaultFor(r.Tool, r.Tool+"#1")
		if err != nil {
			return err
		}
		if err := m.Tools.Bind(r.Activity, t); err != nil {
			return err
		}
	}
	return nil
}

// Import files external design data for a primary-input class: the bytes
// go to Level 4, an entity instance records them at Level 3.
func (m *Manager) Import(class string, data []byte) (*store.Entry, error) {
	now := m.Clock.Now()
	ref, err := m.Data.Put(class, data, "", now)
	if err != nil {
		return nil, err
	}
	e, err := m.Exec.ImportEntity(class, ref, m.Designer, now)
	if err != nil {
		return nil, err
	}
	m.emit(EvEntityCreated, "", now, "imported %s as %s", ref, e.ID)
	return e, nil
}

// Plan simulates the execution of the tree from the current virtual time,
// creating a new plan version (see sched.Space.Plan).
func (m *Manager) Plan(tree *flow.Tree, est sched.Estimator, opt sched.PlanOptions) (*sched.PlanResult, error) {
	// The plan span's virtual interval covers the simulated horizon:
	// from now to the projected project finish.
	sp := m.tr.Start(nil, "engine.plan", m.Clock.Now())
	res, err := m.Sched.Plan(tree, m.Clock.Now(), est, opt)
	if err != nil {
		sp.End(m.Clock.Now())
		return nil, err
	}
	sp.SetDetail("plan v" + strconv.Itoa(res.Plan.Version))
	sp.End(res.Plan.Finish)
	m.emit(EvPlanCreated, "", m.Clock.Now(), "plan v%d: finish %s",
		res.Plan.Version, res.Plan.Finish.Format("2006-01-02 15:04"))
	return res, nil
}

// ExecOptions tunes a task execution.
type ExecOptions struct {
	// Plan, when non-nil, is tracked: actual starts are recorded, final
	// entities linked (with AutoComplete), and slips propagated.
	Plan *sched.Plan
	// AutoComplete marks each activity complete and links its final
	// entity instance once the design goals are met. Without it the
	// designer calls CompleteActivity explicitly.
	AutoComplete bool
	// MaxIterations bounds re-running one activity (default 10).
	MaxIterations int
	// MaxFailures bounds consecutive failed runs per activity (default 3).
	MaxFailures int
	// Constraints are acceptance conditions on activity outputs; a
	// violating version is filed as metadata but does not complete the
	// task, forcing another iteration.
	Constraints []Constraint
	// Parallel executes independent branches concurrently on the virtual
	// timeline, matching the plan's semantics: an activity starts when its
	// in-tree producers finish, not when the previous traversal step does.
	// Serial (default) models a single designer working the post order.
	// In parallel mode the event stream is ordered per activity, not
	// globally.
	Parallel bool
	// Recovery is the fault-tolerance policy: retry backoff, run
	// deadlines, tool failover, output verification, and graceful
	// degradation. The zero value reproduces the historical behaviour
	// (abort on the first exhausted activity, no backoff).
	Recovery Recovery
	// TraceParent, when non-nil, nests the execution's root span under
	// an enclosing span on the same tracer (a request or scenario-run
	// span). Nil keeps engine.execute a trace root.
	TraceParent *obs.Span
	// Commit, when non-nil, finishes every execution of these options —
	// ExecuteTask and each ExecError.Resume — whether it succeeded or
	// not, and its result replaces the execution's error. The durable
	// facade uses it to write what the run committed as one WAL batch.
	Commit func(error) error
}

func (o *ExecOptions) defaults() {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 10
	}
	if o.MaxFailures <= 0 {
		o.MaxFailures = 3
	}
}

// ActivityOutcome summarizes one activity's execution.
type ActivityOutcome struct {
	Activity   string
	Iterations int
	Failures   int
	// FinalEntity is the entity instance holding the accepted version.
	FinalEntity *store.Entry
	Started     time.Time
	Finished    time.Time
}

// ExecResult summarizes a task execution.
type ExecResult struct {
	Outcomes []ActivityOutcome
	Started  time.Time
	Finished time.Time
	// Blocked lists activities fenced off by graceful degradation
	// (Recovery.ContinueOnBlock): the activity that exhausted its
	// policy plus every dependent behind it, in traversal order. Empty
	// on a clean execution.
	Blocked []string
	// Resumed lists activities a checkpoint resume skipped because
	// their accepted final data already existed.
	Resumed []string
}

// ExecuteTask runs the task tree: a post-order traversal in which each
// activity is iterated until the design goals are met (the simulated
// designer's accept decision), creating a run and an entity instance per
// iteration. Time advances on the virtual clock through the working
// calendar. Leaf data classes must have imported entity instances and
// every in-scope activity a bound tool.
//
// Failure semantics: an activity that exhausts its recovery policy
// either blocks (Recovery.ContinueOnBlock — the dependent subtree is
// fenced, the rest keeps running, ExecResult.Blocked reports the fence)
// or aborts the execution with a typed *ExecError carrying the last
// consistent store snapshot and a Resume path that re-runs zero
// already-completed activities. Completed work is durable either way.
func (m *Manager) ExecuteTask(tree *flow.Tree, opt ExecOptions) (*ExecResult, error) {
	return opt.commit(m.execute(tree, opt, nil))
}

// commit applies the Commit hook to an execution's outcome.
func (o *ExecOptions) commit(res *ExecResult, err error) (*ExecResult, error) {
	if o.Commit != nil {
		err = o.Commit(err)
	}
	return res, err
}

// execute is ExecuteTask plus the checkpoint-resume skip set: skipped
// activities are rehydrated from their accepted entity instances in the
// task database instead of being re-run.
func (m *Manager) execute(tree *flow.Tree, opt ExecOptions, skip map[string]bool) (*ExecResult, error) {
	opt.defaults()
	for _, c := range opt.Constraints {
		if err := c.validate(); err != nil {
			return nil, err
		}
		if m.Schema.RuleByActivity(c.Activity) == nil {
			return nil, fmt.Errorf("engine: constraint %s on unknown activity %q", c.Name, c.Activity)
		}
	}
	if err := m.checkReady(tree); err != nil {
		return nil, err
	}
	res := &ExecResult{Started: m.Clock.Now()}
	root := m.tr.Start(opt.TraceParent, "engine.execute", res.Started)
	root.SetDetail("activities=" + strconv.Itoa(len(tree.Activities())))
	// Deferred so error paths publish too; a child activity whose local
	// cursor ran past the global clock stretches the root (see
	// obs.Span.End), keeping virtual containment intact.
	defer func() { root.End(m.Clock.Now()) }()
	// latest accepted bytes + entity per data class, seeded from imports.
	bytesOf := make(map[string][]byte)
	entityOf := make(map[string]*store.Entry)
	for _, leaf := range tree.Leaves() {
		e, ent, err := m.Exec.LatestEntity(leaf)
		if err != nil {
			return nil, err
		}
		obj, err := m.Data.Get(ent.Data)
		if err != nil {
			return nil, fmt.Errorf("engine: leaf %s: %w", leaf, err)
		}
		bytesOf[leaf] = obj.Bytes
		entityOf[leaf] = e
	}

	finishOf := make(map[string]time.Time) // activity -> actual finish
	blocked := make(map[string]string)     // activity -> blockage cause
	var completed []string                 // accepted activities, execution order
	for _, act := range tree.Activities() {
		if skip[act] {
			// Checkpoint resume: the accepted final data already exists
			// in the task database; rehydrate it to feed dependents and
			// re-run nothing.
			if err := m.rehydrate(act, bytesOf, entityOf, finishOf); err != nil {
				return res, err
			}
			completed = append(completed, act)
			res.Resumed = append(res.Resumed, act)
			m.emit(EvResumed, act, m.Clock.Now(), "checkpoint: accepted data reused, 0 runs")
			continue
		}
		// Graceful degradation: an activity behind a blocked producer
		// can never get its inputs — fence it rather than fail it.
		if cause := m.fencedBy(tree, act, blocked); cause != "" {
			m.blockActivity(act, "fenced: "+cause, blocked, res, opt)
			continue
		}
		startAt := res.Started
		if opt.Parallel {
			// Plan semantics: start when the in-tree producers finish.
			for _, pred := range tree.Graph.Predecessors(act) {
				if tree.Contains(pred) && finishOf[pred].After(startAt) {
					startAt = finishOf[pred]
				}
			}
		} else {
			startAt = m.Clock.Now()
		}
		out, err := m.runActivity(tree, act, startAt, bytesOf, entityOf, opt, root)
		if err != nil {
			if out != nil && !out.Finished.IsZero() {
				// The failed attempts consumed real virtual time.
				m.Clock.AdvanceTo(out.Finished)
			}
			var afe *ActivityFailedError
			if !errors.As(err, &afe) {
				return res, err // infrastructure error: abort as before
			}
			if opt.Recovery.ContinueOnBlock {
				m.blockActivity(act, afe.Error(), blocked, res, opt)
				continue
			}
			afe.Completed = append([]string(nil), completed...)
			res.Finished = m.Clock.Now()
			return res, &ExecError{
				Failed: afe, Partial: res, Snapshot: m.DB.Snapshot(),
				mgr: m, tree: tree, opt: opt,
			}
		}
		finishOf[act] = out.Finished
		m.hActivity.Observe(out.Finished.Sub(out.Started).Seconds())
		m.Clock.AdvanceTo(out.Finished)
		res.Outcomes = append(res.Outcomes, *out)
		completed = append(completed, act)
	}
	res.Finished = m.Clock.Now()
	if opt.Plan != nil {
		// Propagation consumes no virtual time: a point-interval span
		// whose detail carries the projected finish.
		psp := m.tr.Start(root, "engine.propagate", m.Clock.Now())
		before := opt.Plan.Finish
		projected, err := m.Sched.Propagate(opt.Plan, m.Clock.Now())
		if err != nil {
			psp.End(m.Clock.Now())
			return res, err
		}
		psp.SetDetail("projected finish " + projected.Format("2006-01-02"))
		psp.End(m.Clock.Now())
		if projected.After(before) {
			m.hSlip.Observe(projected.Sub(before).Seconds())
			m.emit(EvSlip, "", m.Clock.Now(), "project finish slipped %s -> %s",
				before.Format("2006-01-02"), projected.Format("2006-01-02"))
		}
	}
	return res, nil
}

// checkReady verifies bindings: tool per activity, imported data per leaf.
func (m *Manager) checkReady(tree *flow.Tree) error {
	for _, act := range tree.Activities() {
		if m.Tools.For(act) == nil {
			return fmt.Errorf("engine: no tool bound to activity %q", act)
		}
	}
	for _, leaf := range tree.Leaves() {
		_, ent, err := m.Exec.LatestEntity(leaf)
		if err != nil {
			return err
		}
		if ent == nil {
			return fmt.Errorf("engine: leaf class %q has no imported data", leaf)
		}
	}
	return nil
}

// rehydrate reloads an already-completed activity's accepted output
// from the task database: bytes from Level 4, the entity instance, and
// the recorded finish — the checkpoint a resume continues from.
func (m *Manager) rehydrate(act string, bytesOf map[string][]byte,
	entityOf map[string]*store.Entry, finishOf map[string]time.Time) error {
	rule := m.Schema.RuleByActivity(act)
	if rule == nil {
		return fmt.Errorf("engine: resume: unknown activity %q", act)
	}
	e, ent, err := m.Exec.LatestEntity(rule.Output)
	if err != nil {
		return err
	}
	if ent == nil {
		return fmt.Errorf("engine: resume: activity %s marked completed but no %s entity exists",
			act, rule.Output)
	}
	obj, err := m.Data.Get(ent.Data)
	if err != nil {
		return fmt.Errorf("engine: resume %s: %w", act, err)
	}
	bytesOf[rule.Output] = obj.Bytes
	entityOf[rule.Output] = e
	finishOf[act] = ent.Finished
	return nil
}

// fencedBy reports why act cannot run: the first in-tree producer found
// in the blocked set, or "" when all producers delivered.
func (m *Manager) fencedBy(tree *flow.Tree, act string, blocked map[string]string) string {
	for _, pred := range tree.Graph.Predecessors(act) {
		if !tree.Contains(pred) {
			continue
		}
		if _, isBlocked := blocked[pred]; isBlocked {
			return "producer " + pred + " is blocked"
		}
	}
	return ""
}

// blockActivity fences one activity off: the event stream, the metrics,
// the result, and (under a tracked plan) the schedule instance all
// record the blockage, and execution continues past it.
func (m *Manager) blockActivity(act, cause string, blocked map[string]string,
	res *ExecResult, opt ExecOptions) {
	blocked[act] = cause
	res.Blocked = append(res.Blocked, act)
	now := m.Clock.Now()
	m.emit(EvBlocked, act, now, "%s", cause)
	if opt.Plan != nil {
		// MarkBlocked fails only for already-complete activities, which
		// cannot be in the blocked set.
		_ = m.Sched.MarkBlocked(opt.Plan, act, cause, now)
	}
}

// runActivity iterates one activity until its goals are met, starting
// its first run no earlier than startAt. It advances a local time cursor
// rather than the global clock, so the caller decides how activity
// timelines compose (serial or parallel).
func (m *Manager) runActivity(tree *flow.Tree, act string, startAt time.Time,
	bytesOf map[string][]byte, entityOf map[string]*store.Entry, opt ExecOptions,
	parent *obs.Span) (*ActivityOutcome, error) {

	rule := m.Schema.RuleByActivity(act)
	out := &ActivityOutcome{Activity: act}
	rec := opt.Recovery
	failStreak := 0
	goalReached := false
	now := startAt

	asp := m.tr.Start(parent, "engine.activity", startAt)
	asp.SetDetail(act)
	defer func() { asp.End(now) }()

	for iter := 1; iter <= opt.MaxIterations; iter++ {
		// Resolved per iteration: failover may have rotated the binding.
		tool := m.Tools.For(act)
		inputs := make(map[string][]byte, len(rule.Inputs))
		var deps []string
		for _, in := range rule.Inputs {
			b, ok := bytesOf[in]
			if !ok {
				return nil, fmt.Errorf("engine: activity %s: input %s not yet produced", act, in)
			}
			inputs[in] = b
			deps = append(deps, entityOf[in].ID)
		}

		start := m.Calendar.NextWorkInstant(now)
		if out.Started.IsZero() {
			out.Started = start
		}
		runEntry, err := m.Exec.BeginRun(act, tool.Instance(), m.Designer, start)
		if err != nil {
			return nil, err
		}
		m.emit(EvRunStarted, act, start, "run %s (iteration %d)", runEntry.ID, iter)

		rsp := m.tr.Start(asp, "engine.run", start)
		rsp.SetDetail(runEntry.ID + " iter=" + strconv.Itoa(iter))
		result, runErr := tool.Run(inputs, iter)
		if runErr == nil && rec.RunDeadline > 0 && result.Work > rec.RunDeadline {
			// A hung tool: abort the run on the virtual clock. The
			// activity is charged exactly the deadline of working time.
			runErr = fmt.Errorf("engine: run %s exceeded deadline %v (tool reported %v)",
				runEntry.ID, rec.RunDeadline, result.Work)
			result.Work = rec.RunDeadline
			m.emit(EvRunTimeout, act, m.Calendar.AddWork(start, rec.RunDeadline),
				"run %s aborted at deadline %v", runEntry.ID, rec.RunDeadline)
		}
		finish := m.Calendar.AddWork(start, result.Work)
		now = finish
		rsp.End(finish)

		if runErr != nil {
			if err := m.Exec.FinishRun(runEntry.ID, finish, meta.RunFailed); err != nil {
				return nil, err
			}
			out.Failures++
			failStreak++
			m.emit(EvRunFailed, act, finish, "%v", runErr)
			if failStreak >= opt.MaxFailures {
				out.Finished = now
				return out, &ActivityFailedError{
					Activity: act, Attempts: iter, Failures: out.Failures, Cause: runErr,
				}
			}
			// Retry: exponential virtual-time backoff, stretched to any
			// known recovery instant (a license outage's end), then
			// failover to the next alternate tool instance.
			wait := rec.Backoff.wait(failStreak)
			retryAt := m.Calendar.AddWork(now, wait)
			if ra, ok := runErr.(retryAfter); ok {
				if t := ra.RetryAfter(); t.After(retryAt) {
					retryAt = t
					wait = m.Calendar.WorkBetween(now, t)
				}
			}
			if retryAt.After(now) {
				m.hBackoff.Observe(wait.Seconds())
				now = retryAt
			}
			m.emit(EvRunRetry, act, now, "retry %d after %s backoff", failStreak, wait.Round(time.Minute))
			if rec.Failover {
				if alt, rotated := m.Tools.Rotate(act); rotated {
					m.emit(EvFailover, act, now, "failover %s -> %s", tool.Instance(), alt.Instance())
				}
			}
			continue
		}
		failStreak = 0
		if err := m.Exec.FinishRun(runEntry.ID, finish, meta.RunSucceeded); err != nil {
			return nil, err
		}
		ref, err := m.Data.Put(rule.Output, result.Output, runEntry.ID, finish)
		if err != nil {
			return nil, err
		}
		entity, err := m.Exec.RecordEntity(rule.Output, runEntry.ID, ref, deps...)
		if err != nil {
			return nil, err
		}
		out.Iterations = iter
		out.FinalEntity = entity
		m.emit(EvEntityCreated, act, finish, "%s (%s)", entity.ID, ref)
		m.emit(EvRunFinished, act, finish, "run %s ok, goalMet=%v", runEntry.ID, result.GoalMet)

		if opt.Plan != nil && out.Iterations == iter && entityOf[rule.Output] == nil {
			// The first data instance sets the actual start date (§IV.C);
			// the recorded date is the producing run's start, while the
			// event itself happens when the instance is created.
			if err := m.Sched.MarkStarted(opt.Plan, act, out.Started); err == nil {
				m.emit(EvTaskStarted, act, finish, "actual start recorded as %s",
					out.Started.Format("2006-01-02 15:04"))
			}
		}
		bytesOf[rule.Output] = result.Output
		entityOf[rule.Output] = entity

		goalMet := result.GoalMet
		if goalMet && rec.Verify != nil {
			// The verifier (a checksum, a design-rule check) guards against
			// accepting corrupt output. The version stays filed for the
			// post-mortem, but the goals count as unmet.
			if verr := rec.Verify(act, result.Output); verr != nil {
				m.emit(EvVerifyFailed, act, finish, "%s rejected: %v", entity.ID, verr)
				goalMet = false
			}
		}
		if goalMet {
			// A version the designer would accept must still satisfy the
			// flow's acceptance constraints; a violation forces iteration.
			if err := m.checkConstraints(opt.Constraints, act, result.Output, finish); err != nil {
				goalMet = false
			}
		}
		if goalMet {
			goalReached = true
			break
		}
	}
	if out.FinalEntity == nil || !goalReached {
		out.Finished = now
		return out, &ActivityFailedError{
			Activity: act, Attempts: opt.MaxIterations, Failures: out.Failures,
			Cause: ErrGoalNotMet,
		}
	}
	out.Finished = now
	if opt.Plan != nil && opt.AutoComplete {
		if err := m.Sched.Complete(opt.Plan, act, out.FinalEntity.ID, out.Finished); err != nil {
			return nil, err
		}
		m.emit(EvTaskComplete, act, out.Finished, "linked %s", out.FinalEntity.ID)
	}
	return out, nil
}

// CompleteActivity lets the designer explicitly designate an entity
// instance as the final design data for an activity under a plan,
// creating the schedule<->entity link.
func (m *Manager) CompleteActivity(p *sched.Plan, activity, entityID string) error {
	if err := m.Sched.Complete(p, activity, entityID, m.Clock.Now()); err != nil {
		return err
	}
	m.emit(EvTaskComplete, activity, m.Clock.Now(), "linked %s", entityID)
	return nil
}
