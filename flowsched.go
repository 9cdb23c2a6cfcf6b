// Package flowsched is a design flow management system with integrated
// design schedule management, reproducing Johnson & Brockman,
// "Incorporating Design Schedule Management into a Flow Management
// System", DAC 1995.
//
// A Project owns one design process: a task schema (Level 1 of the
// four-level flow-management architecture), the flow model instantiated
// from it (Level 2), a task database holding both execution metadata and
// schedule instances (Level 3), and the design data itself (Level 4).
// The paper's central idea is available as Plan: a design schedule is
// derived by simulating the execution of the flow, and actual execution
// (Run) is then tracked against it automatically — task starts recorded
// when the first data instance appears, final data linked to schedule
// instances on completion, slips propagated through the remaining plan.
//
// A minimal session:
//
//	p, _ := flowsched.New(flowsched.Fig4Schema, flowsched.Options{Designer: "ewj"})
//	p.UseSimulatedTools()
//	p.Import("stimuli", []byte("pulse 0 5 1ns"))
//	plan, _ := p.Plan([]string{"performance"},
//	    flowsched.Fixed{Default: 8 * time.Hour}, flowsched.PlanOptions{})
//	p.Run([]string{"performance"}, true)
//	fmt.Println(p.Gantt())
//	_ = plan
package flowsched

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"flowsched/internal/design"
	"flowsched/internal/engine"
	"flowsched/internal/export"
	"flowsched/internal/fault"
	"flowsched/internal/flow"
	"flowsched/internal/hier"
	"flowsched/internal/level"
	"flowsched/internal/monte"
	"flowsched/internal/obs"
	"flowsched/internal/persist"
	"flowsched/internal/pert"
	"flowsched/internal/query"
	"flowsched/internal/report"
	"flowsched/internal/scenario"
	"flowsched/internal/sched"
	"flowsched/internal/schema"
	"flowsched/internal/store"
	"flowsched/internal/tools"
	"flowsched/internal/vclock"
	"flowsched/internal/workload"
)

// Re-exported model types. The internal packages implement the four-level
// architecture; these aliases are the library's public vocabulary.
type (
	// Schema is a Level 1 task schema.
	Schema = schema.Schema
	// Tree is an extracted Level 2 task tree.
	Tree = flow.Tree
	// Calendar models working time.
	Calendar = vclock.Calendar
	// Plan is one schedule-planning pass (a versioned proposed schedule).
	Plan = sched.Plan
	// Instance is one Level 3 schedule instance.
	Instance = sched.Instance
	// ActivityStatus is a plan-versus-actual status row.
	ActivityStatus = sched.ActivityStatus
	// PlanOptions tunes planning (resources, lineage, constraints).
	PlanOptions = sched.PlanOptions
	// Estimator supplies activity duration estimates.
	Estimator = sched.Estimator
	// Fixed estimates from a table ("designer's intuition").
	Fixed = sched.Fixed
	// PERT estimates from three-point values.
	PERT = sched.PERT
	// ThreePoint is a PERT (optimistic, likely, pessimistic) triple.
	ThreePoint = sched.ThreePoint
	// Historical estimates from measured prior executions.
	Historical = sched.Historical
	// Tool is a runnable CAD tool instance.
	Tool = tools.Tool
	// ToolProfile parameterizes a simulated tool.
	ToolProfile = tools.Profile
	// Event is one workflow-manager event.
	Event = engine.Event
	// MetricSnapshot is one observability metric's point-in-time value.
	MetricSnapshot = obs.MetricSnapshot
	// Span is one finished dual-clock trace span (wall + virtual time).
	Span = obs.SpanData
	// FlightRecord is one wide flight-recorder record of a completed
	// operation (see Project.FlightRecords).
	FlightRecord = obs.FlightRecord
	// ExecResult summarizes a task execution.
	ExecResult = engine.ExecResult
	// CPMResult is a critical-path analysis of a plan.
	CPMResult = pert.Result
	// Recovery is an execution's fault-tolerance policy: retry backoff,
	// run deadlines, tool failover, output verification, graceful
	// degradation.
	Recovery = engine.Recovery
	// Backoff is an exponential virtual-time retry policy.
	Backoff = engine.Backoff
	// ActivityFailedError is the typed terminal failure of one activity
	// (recovery policy exhausted).
	ActivityFailedError = engine.ActivityFailedError
	// ExecError is the typed failure of an execution: it carries the last
	// consistent store snapshot and a Resume path that re-runs zero
	// completed activities.
	ExecError = engine.ExecError
	// FaultConfig parameterizes a seeded, replayable fault-injection plan.
	FaultConfig = fault.Config
	// FaultInjection is one recorded fault decision (the replay log).
	FaultInjection = fault.Injection
)

// Fig4Schema is the paper's Fig. 4 example schema (see workload package).
const Fig4Schema = workload.Fig4Source

// ASICSchema is a realistic RTL-to-signoff flow.
const ASICSchema = workload.ASICSource

// BoardSchema is a printed-circuit-board design flow.
const BoardSchema = workload.BoardSource

// AnalogSchema is an analog/mixed-signal block flow.
const AnalogSchema = workload.AnalogSource

// StandardCalendar returns the Monday–Friday 09:00–17:00 calendar.
func StandardCalendar() *Calendar { return vclock.Standard() }

// ContinuousCalendar returns a 24×7 calendar.
func ContinuousCalendar() *Calendar { return vclock.Continuous() }

// ParseSchema parses the construction-rule DSL (see internal/schema).
func ParseSchema(src string) (*Schema, error) { return schema.Parse(src) }

// NewSimTool builds a deterministic simulated tool instance.
func NewSimTool(class, instance string, p ToolProfile) (Tool, error) {
	return tools.NewSim(class, instance, p)
}

// ObsOptions controls a project's observability layer.
type ObsOptions struct {
	// Enabled turns on the metrics registry and the dual-clock span
	// tracer. Off by default: an uninstrumented project pays only nil
	// checks on the instrumented paths.
	Enabled bool
	// MaxSpans bounds the retained trace spans; <= 0 selects
	// obs.DefaultMaxSpans (16384). Spans past the bound are dropped and
	// counted (see TraceDropped).
	MaxSpans int
}

// Options configures a new Project.
type Options struct {
	// Designer is recorded on runs and entity instances. Default "designer".
	Designer string
	// Start is the project start on the virtual clock. Default vclock.Epoch
	// (Monday 1995-06-05 09:00 UTC).
	Start time.Time
	// Calendar is the working calendar. Default StandardCalendar.
	Calendar *Calendar
	// Obs enables metrics and tracing (see Metrics, MetricsText,
	// TraceSpans, TraceTree).
	Obs ObsOptions
}

// Project is a design process under integrated flow + schedule management.
type Project struct {
	mgr    *engine.Manager
	plan   *Plan       // current tracked plan, nil before first Plan
	obs    *obs.Obs    // nil unless Options.Obs.Enabled
	faults *fault.Plan // nil unless InjectFaults
	// riskMemo caches per-subtree Monte-Carlo trial streams across the
	// project's risk analyses (and, shared by pointer, its forks' — the
	// memo keys on subtree content, so reuse across forks is sound).
	riskMemo *monte.Memo
	// flight retains wide records of the project's expensive facade
	// operations (risk, what-if) for post-hoc inspection; nil unless
	// Options.Obs.Enabled.
	flight *obs.FlightRecorder
	// rec bridges the change feeds to the write-ahead log; nil unless the
	// project was opened with Open. Forks are never durable.
	rec             *recorder
	checkpointEvery uint64
}

// New creates a project from schema DSL source.
func New(schemaSrc string, opt Options) (*Project, error) {
	sch, err := schema.Parse(schemaSrc)
	if err != nil {
		return nil, err
	}
	return NewFromSchema(sch, opt)
}

// NewFromSchema creates a project from an already-built schema.
func NewFromSchema(sch *Schema, opt Options) (*Project, error) {
	if opt.Designer == "" {
		opt.Designer = "designer"
	}
	if opt.Start.IsZero() {
		opt.Start = vclock.Epoch
	}
	if opt.Calendar == nil {
		opt.Calendar = vclock.Standard()
	}
	m, err := engine.New(sch, opt.Calendar, opt.Start, opt.Designer)
	if err != nil {
		return nil, err
	}
	p := &Project{mgr: m, riskMemo: monte.NewMemo(0)}
	if opt.Obs.Enabled {
		p.enableObs(opt.Obs)
	}
	return p, nil
}

// enableObs wires the project's observability: a metrics registry, a
// span tracer with an explicit capacity (obs.DefaultMaxSpans unless
// overridden), and the flight recorder that retains wide records of
// the facade's expensive operations.
func (p *Project) enableObs(o ObsOptions) {
	maxSpans := o.MaxSpans
	if maxSpans <= 0 {
		maxSpans = obs.DefaultMaxSpans
	}
	p.obs = obs.NewWith(obs.NewRegistry(), obs.NewTracer(maxSpans))
	p.flight = obs.NewFlightRecorder(0, 0)
	p.flight.Instrument(p.obs.Metrics(), "flight")
	p.mgr.Instrument(p.obs)
}

// recordFlight files one completed facade operation with the flight
// recorder (a no-op on uninstrumented projects).
func (p *Project) recordFlight(op string, start time.Time, res *RiskResult, err error) {
	if p.flight == nil {
		return
	}
	rec := obs.FlightRecord{
		TraceID: obs.NewTraceID(), Route: op, Start: start,
		Latency:    time.Since(start),
		VirtualNow: p.Now(), StoreVersion: p.mgr.DB.Version(),
	}
	if res != nil {
		rec.SampledTrials, rec.ReusedTrials = res.SampledActivityTrials, res.ReusedActivityTrials
	}
	if err != nil {
		rec.Error = err.Error()
	}
	p.flight.Record(rec)
}

// FlightRecords returns the project's flight-recorder tiers: the most
// recent facade operations (newest first) and the slowest retained
// ones (slowest first). Both are nil unless observability is enabled.
func (p *Project) FlightRecords() (recent, slowest []FlightRecord) {
	return p.flight.Snapshot()
}

// FlightText renders the flight recorder as an aligned text table.
func (p *Project) FlightText() string {
	recent, slowest := p.flight.Snapshot()
	return obs.RenderFlight(recent, slowest)
}

// Schema returns the project's task schema.
func (p *Project) Schema() *Schema { return p.mgr.Schema }

// Now reports the project's current virtual time.
func (p *Project) Now() time.Time { return p.mgr.Clock.Now() }

// Calendar returns the project's working calendar.
func (p *Project) Calendar() *Calendar { return p.mgr.Calendar }

// Import files external design data for a primary-input class and returns
// the entity instance ID.
func (p *Project) Import(class string, data []byte) (id string, err error) {
	defer p.commit(&err)
	e, err := p.mgr.Import(class, data)
	if err != nil {
		return "", err
	}
	return e.ID, nil
}

// UseSimulatedTools binds a default simulated tool to every activity that
// lacks one.
func (p *Project) UseSimulatedTools() error { return p.mgr.BindDefaults() }

// BindTool binds a tool instance to an activity, replacing any previous
// bindings including failover alternates. With faults injected, the new
// binding is wrapped into the fault plan.
func (p *Project) BindTool(activity string, t Tool) error {
	if p.faults != nil {
		t = p.faults.Wrap(activity, t, p.mgr.Clock.Now)
	}
	return p.mgr.BindTool(activity, t)
}

// AddAlternateTool appends a failover tool instance for an activity. The
// first bound instance stays active; Recovery.Failover rotates to
// alternates when runs keep failing. With faults injected, the alternate
// is wrapped into the fault plan.
func (p *Project) AddAlternateTool(activity string, t Tool) error {
	if p.mgr.Schema.RuleByActivity(activity) == nil {
		return fmt.Errorf("flowsched: unknown activity %q", activity)
	}
	if p.faults != nil {
		t = p.faults.Wrap(activity, t, p.mgr.Clock.Now)
	}
	return p.mgr.Tools.AddAlternate(activity, t)
}

// InjectFaults arms a seeded, replayable fault-injection plan: every
// currently bound tool instance (alternates included) is wrapped so its
// runs can crash, hang, corrupt output, or hit license-loss windows, as
// drawn deterministically from the config's seed. Bind tools first;
// bindings added afterwards through BindTool/AddAlternateTool are wrapped
// automatically. Calling InjectFaults again replaces the plan. With
// project observability enabled, injected faults feed fault_injected_*
// counters.
func (p *Project) InjectFaults(cfg FaultConfig) error {
	fp, err := fault.NewPlan(cfg)
	if err != nil {
		return err
	}
	fp.Instrument(p.obs)
	if err := fp.WrapRegistry(p.mgr.Tools, p.mgr.Clock.Now); err != nil {
		return err
	}
	p.faults = fp
	return nil
}

// FaultHistory returns every fault decision made so far, including
// pass-throughs — the replay log of the armed fault plan. Nil without
// InjectFaults.
func (p *Project) FaultHistory() []FaultInjection {
	if p.faults == nil {
		return nil
	}
	return p.faults.History()
}

// FaultsInjected counts the non-pass-through fault decisions so far.
func (p *Project) FaultsInjected() int {
	if p.faults == nil {
		return 0
	}
	return p.faults.Injected()
}

// ExtractTree extracts the task tree covering the target data classes.
func (p *Project) ExtractTree(targets ...string) (*Tree, error) {
	return p.mgr.ExtractTree(targets...)
}

// Plan derives a schedule for the targets by simulating the flow's
// execution from the current virtual time (paper §III). Each call creates
// a new plan version; the newest plan is tracked by subsequent Run calls.
// When a previous plan exists it is recorded as this plan's ancestor
// (schedule metadata lineage).
func (p *Project) Plan(targets []string, est Estimator, opt PlanOptions) (_ *Plan, err error) {
	defer p.commit(&err)
	tree, err := p.mgr.ExtractTree(targets...)
	if err != nil {
		return nil, err
	}
	if p.plan != nil && len(opt.BasedOn) == 0 {
		if e, _, err := p.mgr.Sched.PlanByVersion(p.plan.Version); err == nil {
			opt.BasedOn = []string{e.ID}
		}
	}
	res, err := p.mgr.Plan(tree, est, opt)
	if err != nil {
		return nil, err
	}
	p.plan = &res.Plan
	if p.rec != nil {
		// The plan's store instances were recorded by the commit feed;
		// this records which version became the *tracked* plan.
		p.rec.add(&persist.Record{Kind: persist.RecPlan,
			Plan: &persist.PlanRecord{Version: res.Plan.Version}})
	}
	return p.plan, nil
}

// CurrentPlan returns the tracked plan, or nil before planning.
func (p *Project) CurrentPlan() *Plan { return p.plan }

// Run executes the task tree covering the targets, tracked against the
// current plan if one exists. With autoComplete, finished activities are
// linked to their final entity instances and the plan is re-propagated.
func (p *Project) Run(targets []string, autoComplete bool) (*ExecResult, error) {
	return p.execute(targets, engine.ExecOptions{AutoComplete: autoComplete})
}

// RunParallel executes like Run but overlaps independent branches on the
// virtual timeline — the team-execution model that matches the plan's
// semantics (an activity starts when its producers finish, not when the
// previous traversal step does).
func (p *Project) RunParallel(targets []string, autoComplete bool) (*ExecResult, error) {
	return p.execute(targets, engine.ExecOptions{AutoComplete: autoComplete, Parallel: true})
}

// execute runs the task tree covering the targets, tracked against the
// current plan. The run — and any ExecError.Resume of it — finishes
// through commit, so a failed run's completed work is durable too.
func (p *Project) execute(targets []string, opt engine.ExecOptions) (*ExecResult, error) {
	tree, err := p.mgr.ExtractTree(targets...)
	if err != nil {
		return nil, err
	}
	opt.Plan = p.plan
	opt.Commit = func(err error) error {
		p.commit(&err)
		return err
	}
	return p.mgr.ExecuteTask(tree, opt)
}

// DefaultRecovery returns the stock fault-tolerance policy: exponential
// virtual-time retry backoff (30m doubling, capped at 24h), a 72h run
// deadline, failover across alternate tool bindings, and graceful
// degradation (a blocked activity fences only its dependent subtree).
func DefaultRecovery() Recovery { return engine.DefaultRecovery() }

// RunOptions tunes RunWith.
type RunOptions struct {
	// AutoComplete links finished activities to their final entity
	// instances and re-propagates the plan (as Run's autoComplete).
	AutoComplete bool
	// Parallel overlaps independent branches on the virtual timeline
	// (as RunParallel).
	Parallel bool
	// MaxIterations bounds goal-seeking iterations per activity
	// (default 10).
	MaxIterations int
	// MaxFailures bounds consecutive failed runs per activity
	// (default 3).
	MaxFailures int
	// Recovery is the fault-tolerance policy. The zero value retries
	// immediately and aborts the execution on the first exhausted
	// activity — the historical behavior; DefaultRecovery() enables
	// the full policy.
	Recovery Recovery
}

// RunWith executes like Run with full control over iteration limits and
// the fault-tolerance policy. When faults are injected and
// Recovery.Verify is nil, the fault detector is installed automatically
// so corrupted outputs force a re-run instead of being accepted.
//
// On failure the returned error is a *flowsched.ExecError wrapping a
// *flowsched.ActivityFailedError: it lists the completed activities,
// carries a consistent store snapshot, and its Resume method re-runs
// zero completed activities once the cause is fixed (e.g. a tool
// rebound).
func (p *Project) RunWith(targets []string, opt RunOptions) (*ExecResult, error) {
	rec := opt.Recovery
	if p.faults != nil && rec.Verify == nil {
		rec.Verify = fault.Check
	}
	return p.execute(targets, engine.ExecOptions{
		AutoComplete: opt.AutoComplete, Parallel: opt.Parallel,
		MaxIterations: opt.MaxIterations, MaxFailures: opt.MaxFailures,
		Recovery: rec,
	})
}

// Complete designates an entity instance as the final design data of an
// activity under the current plan, creating the schedule↔entity link.
func (p *Project) Complete(activity, entityID string) (err error) {
	defer p.commit(&err)
	if p.plan == nil {
		return fmt.Errorf("flowsched: no plan to complete against")
	}
	return p.mgr.CompleteActivity(p.plan, activity, entityID)
}

// Propagate updates the current plan for slips as of the virtual now and
// returns the projected project finish.
func (p *Project) Propagate() (_ time.Time, err error) {
	defer p.commit(&err)
	if p.plan == nil {
		return time.Time{}, fmt.Errorf("flowsched: no plan to propagate")
	}
	return p.mgr.Sched.Propagate(p.plan, p.Now())
}

// readMgr returns a read-only manager bound to a fresh snapshot of the
// task database. Report and query surfaces render against it so each
// answers from one consistent moment of the store, even when another
// goroutine polls while the project executes.
func (p *Project) readMgr() *engine.Manager { return p.mgr.AtView(nil) }

// Status reports plan-versus-actual state per activity as of the virtual
// now.
func (p *Project) Status() ([]ActivityStatus, error) {
	if p.plan == nil {
		return nil, fmt.Errorf("flowsched: no plan")
	}
	return statusOf(p.readMgr(), p.plan, p.Now())
}

// statusOf renders plan-versus-actual rows against one manager snapshot.
func statusOf(m *engine.Manager, plan *Plan, now time.Time) ([]ActivityStatus, error) {
	return m.Sched.Status(plan, now)
}

// Gantt renders the current plan's Gantt chart (planned and accomplished
// schedule, §IV.B).
func (p *Project) Gantt() (string, error) {
	if p.plan == nil {
		return "", fmt.Errorf("flowsched: no plan")
	}
	return report.Chart(p.readMgr(), p.plan, p.Now())
}

// TaskTreeView renders the task tree with per-node schedule state — the
// central feature of the Hercules user interface (Fig. 8).
func (p *Project) TaskTreeView(targets ...string) (string, error) {
	tree, err := p.mgr.ExtractTree(targets...)
	if err != nil {
		return "", err
	}
	return report.TaskTree(p.readMgr(), tree, p.plan), nil
}

// Query answers a textual §IV.B query (see internal/query for the
// grammar).
func (p *Project) Query(text string) (string, error) {
	r := p.readMgr()
	eng, err := query.New(r.Sched, r.Exec)
	if err != nil {
		return "", err
	}
	return eng.Eval(text)
}

// Analyze runs CPM/PERT over the current plan: early/late dates, slack,
// critical path, completion probability.
func (p *Project) Analyze() (*CPMResult, error) {
	if p.plan == nil {
		return nil, fmt.Errorf("flowsched: no plan")
	}
	return analyzeOf(p.readMgr(), p.plan)
}

// analyzeOf runs CPM/PERT over a plan against one manager snapshot.
func analyzeOf(m *engine.Manager, plan *Plan) (*CPMResult, error) {
	_, insts, err := m.Sched.Instances(plan)
	if err != nil {
		return nil, err
	}
	inPlan := make(map[string]bool, len(plan.Activities))
	for _, a := range plan.Activities {
		inPlan[a] = true
	}
	acts := make([]pert.Activity, 0, len(insts))
	for _, in := range insts {
		rule := m.Schema.RuleByActivity(in.Activity)
		var preds []string
		for _, input := range rule.Inputs {
			if prod := m.Schema.Producer(input); prod != nil && inPlan[prod.Activity] {
				preds = append(preds, prod.Activity)
			}
		}
		acts = append(acts, pert.Activity{
			Name: in.Activity, Duration: in.EstWork,
			Optimistic: in.Optimistic, Pessimistic: in.Pessimistic,
			Preds: preds,
		})
	}
	net, err := pert.NewNetwork(acts)
	if err != nil {
		return nil, err
	}
	return net.Analyze()
}

// Events returns the workflow manager's event stream.
func (p *Project) Events() []Event { return p.mgr.Events() }

// EventsSince returns the events from sequence number seq on (seq
// counts events already seen; 0 means all). The stream is append-only,
// so a poller resumes with seq += len(returned) without re-copying the
// full history each time.
func (p *Project) EventsSince(seq int) []Event { return p.mgr.EventsSince(seq) }

// EventsPage returns the events from cursor since on plus the next
// cursor to resume from — the same resume token the HTTP /events route
// returns as "next" (and stamps as SSE event IDs). Negative cursors
// are treated as 0 so next never drifts below the true position.
func (p *Project) EventsPage(since int) ([]Event, int) {
	if since < 0 {
		since = 0
	}
	evs := p.mgr.EventsSince(since)
	return evs, since + len(evs)
}

// EventsAfter is the push-consumer variant of EventsSince: when events
// past seq already exist they return immediately (wake is nil);
// otherwise wake is closed at the next append and the caller re-reads.
// The SSE broadcast hub rides this — one blocked goroutine per stream
// instead of a poll loop.
func (p *Project) EventsAfter(seq int) ([]Event, <-chan struct{}) { return p.mgr.EventsAfter(seq) }

// EventCount is the current event-stream length — the cursor at which
// a new live subscriber starts following.
func (p *Project) EventCount() int { return p.mgr.EventCount() }

// ApplyScenarioEdit commits a what-if edit to the live project: the
// perturbed activities' tools are rebound with scaled/delayed profiles
// (instance names kept, so seeds and output content are unchanged — an
// accepted edit shifts time, not design behaviour). This is the write
// behind `POST /edit`: a designer promotes a scenario from Scenarios
// into the tracked reality. Fault edits are refused; use InjectFaults.
func (p *Project) ApplyScenarioEdit(e ScenarioEdit) (err error) {
	defer p.commit(&err)
	if err := scenario.Apply(p.mgr, e); err != nil {
		return err
	}
	// The rebind changed every future estimate without touching the
	// store; bump the version so snapshot caches drop stale risk and
	// prediction renders and concurrent If-Match writes see the edit.
	p.mgr.DB.Touch()
	return nil
}

// Metrics returns a point-in-time snapshot of every registered metric,
// sorted by name. Empty unless Options.Obs enabled observability.
func (p *Project) Metrics() []MetricSnapshot { return p.obs.Metrics().Snapshot() }

// MetricsText renders the metrics in Prometheus text exposition format.
// Empty unless observability is enabled.
func (p *Project) MetricsText() string { return p.obs.Metrics().PromText() }

// MetricsJSON renders the metrics snapshot as JSON. Empty ("[]") unless
// observability is enabled.
func (p *Project) MetricsJSON() ([]byte, error) { return p.obs.Metrics().JSON() }

// LintMetrics checks every registered metric against the repo's naming
// and cardinality conventions (snake_case names, _total counters, unit
// suffixes on histograms, labeled families within their series bounds).
// Nil on a clean — or uninstrumented — project.
func (p *Project) LintMetrics() []error { return p.obs.Metrics().Lint() }

// TraceSpans returns the finished dual-clock trace spans in end order.
// Empty unless observability is enabled.
func (p *Project) TraceSpans() []Span { return p.obs.Tracer().Spans() }

// TraceTree renders the trace spans as an indented tree showing both
// clocks per span. maxDepth > 0 limits the printed depth (0 =
// unlimited). Empty unless observability is enabled.
func (p *Project) TraceTree(maxDepth int) string {
	return obs.RenderTree(p.obs.Tracer().Spans(), maxDepth)
}

// TraceDropped reports how many spans were discarded over the
// ObsOptions.MaxSpans bound.
func (p *Project) TraceDropped() int64 { return p.obs.Tracer().Dropped() }

// MilestoneStatus is a milestone report row (target vs projected/actual).
type MilestoneStatus = sched.MilestoneStatus

// SetMilestone commits a named target date for a data class under the
// current plan — a "proposed milestone" in the sense of the paper's
// Fig. 1. The milestone is achieved when the producing activity
// completes.
func (p *Project) SetMilestone(name, class string, target time.Time) (err error) {
	defer p.commit(&err)
	if p.plan == nil {
		return fmt.Errorf("flowsched: no plan to set a milestone against")
	}
	_, err = p.mgr.Sched.SetMilestone(p.plan, name, class, target)
	return err
}

// MilestoneReport refreshes and scores the current plan's milestones:
// achieved-at dates for completed ones, projected margins for pending
// ones (negative margin = projected or actual miss).
func (p *Project) MilestoneReport() ([]MilestoneStatus, error) {
	if p.plan == nil {
		return nil, fmt.Errorf("flowsched: no plan")
	}
	return p.readMgr().Sched.MilestoneReport(p.plan)
}

// Grouping organizes activities into hierarchical composite tasks.
type Grouping = hier.Grouping

// CompositeStatus is a rolled-up composite-task status row.
type CompositeStatus = hier.CompositeStatus

// NewGrouping builds a hierarchical task grouping (composite name →
// member activities; composites must be disjoint).
func NewGrouping(groups map[string][]string) (*Grouping, error) {
	return hier.NewGrouping(groups)
}

// OutlineStatus renders the current plan's status rolled up through the
// grouping — the project manager's composite-task view (§IV.C: "viewing
// a portion of the overall schedule").
func (p *Project) OutlineStatus(g *Grouping) (string, error) {
	if p.plan == nil {
		return "", fmt.Errorf("flowsched: no plan")
	}
	if g == nil {
		return "", fmt.Errorf("flowsched: nil grouping")
	}
	if err := g.CheckCovers(p.plan); err != nil {
		return "", err
	}
	rows, err := statusOf(p.readMgr(), p.plan, p.Now())
	if err != nil {
		return "", err
	}
	return g.Outline(rows)
}

// DeadlineMargin reports the working time between the current plan's
// projected finish and the deadline: positive when the project is ahead,
// negative when the projection overruns the deadline.
func (p *Project) DeadlineMargin(deadline time.Time) (time.Duration, error) {
	if p.plan == nil {
		return 0, fmt.Errorf("flowsched: no plan")
	}
	cal := p.mgr.Calendar
	if p.plan.Finish.After(deadline) {
		return -cal.WorkBetween(deadline, p.plan.Finish), nil
	}
	return cal.WorkBetween(p.plan.Finish, deadline), nil
}

// Dashboard renders a one-page project view: plan summary, per-activity
// status, the Gantt chart, and the critical path.
func (p *Project) Dashboard() (string, error) {
	if p.plan == nil {
		return "", fmt.Errorf("flowsched: no plan")
	}
	// One snapshot serves every section, so the dashboard is a
	// consistent moment of the database even mid-execution.
	return dashboardOf(p.readMgr(), p.plan, p.Now())
}

// dashboardOf renders the one-page view against one manager snapshot.
func dashboardOf(m *engine.Manager, plan *Plan, now time.Time) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "project dashboard — plan v%d, targets %v\n",
		plan.Version, plan.Targets)
	fmt.Fprintf(&b, "now %s; projected finish %s\n\n",
		now.Format("2006-01-02 15:04"), plan.Finish.Format("2006-01-02 15:04"))
	rows, err := statusOf(m, plan, now)
	if err != nil {
		return "", err
	}
	done := 0
	for _, r := range rows {
		if r.State == "done" {
			done++
		}
	}
	fmt.Fprintf(&b, "progress: %d/%d activities done\n", done, len(rows))
	for _, r := range rows {
		slip := ""
		if r.Slip > 0 {
			slip = fmt.Sprintf("  slip %s", r.Slip.Round(time.Minute))
		}
		fmt.Fprintf(&b, "  %-12s %-12s%s\n", r.Activity, r.State, slip)
	}
	b.WriteString("\n")
	chart, err := report.Chart(m, plan, now)
	if err != nil {
		return "", err
	}
	b.WriteString(chart)
	cpm, err := analyzeOf(m, plan)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\ncritical path (%s working): %s\n",
		cpm.Duration, strings.Join(cpm.CriticalPath, " -> "))
	return b.String(), nil
}

// StatusReport renders the periodic manager's report for [from, to):
// activity counts, completions, constraint violations, slips, and the
// next period's planned starts.
func (p *Project) StatusReport(from, to time.Time) (string, error) {
	return report.StatusReport(p.readMgr(), p.plan, from, to)
}

// ExportPlanCSV renders the current plan as CSV for spreadsheet or PM
// tooling.
func (p *Project) ExportPlanCSV() (string, error) {
	if p.plan == nil {
		return "", fmt.Errorf("flowsched: no plan to export")
	}
	return export.PlanCSV(p.mgr.Sched, p.plan)
}

// ExportMPX renders the current plan as a minimal MPX-style record stream
// for legacy project-management tools.
func (p *Project) ExportMPX() (string, error) {
	if p.plan == nil {
		return "", fmt.Errorf("flowsched: no plan to export")
	}
	return export.MPX(p.mgr.Sched, p.plan)
}

// ImportActualsCSV applies manually collected actual dates (rows of
// activity,start,finish,done) to the current plan. Completed activities
// are linked to the latest entity instance of their output class, so
// the paper's schedule↔entity link is preserved even for hand-entered
// status. Returns how many rows were applied.
func (p *Project) ImportActualsCSV(r io.Reader) (_ int, err error) {
	defer p.commit(&err)
	if p.plan == nil {
		return 0, fmt.Errorf("flowsched: no plan to apply actuals to")
	}
	actuals, err := export.ParseActualsCSV(r)
	if err != nil {
		return 0, err
	}
	resolve := func(activity string) (string, error) {
		rule := p.mgr.Schema.RuleByActivity(activity)
		if rule == nil {
			return "", fmt.Errorf("flowsched: unknown activity %q", activity)
		}
		e, ent, err := p.mgr.Exec.LatestEntity(rule.Output)
		if err != nil {
			return "", err
		}
		if ent == nil {
			return "", fmt.Errorf("flowsched: no %s entity exists to link %s to", rule.Output, activity)
		}
		return e.ID, nil
	}
	return export.ApplyActuals(p.mgr.Sched, p.plan, actuals, resolve)
}

// RiskResult is the outcome of a Monte-Carlo schedule risk analysis.
type RiskResult = monte.Result

// RiskOptions tunes a Monte-Carlo schedule risk analysis.
type RiskOptions struct {
	// Trials is the number of sampled executions (default 1000).
	Trials int
	// Seed makes the analysis reproducible.
	Seed int64
	// Workers caps the engine's parallelism: 0 uses all cores, 1 forces
	// the serial path. The result is bit-identical for every value —
	// trials are sharded deterministically (see docs/risk.md).
	Workers int
	// Sketch answers percentiles from a mergeable deterministic
	// quantile sketch instead of materializing and sorting every trial
	// — the constant-memory path for very large trial counts, with a
	// versioned bounded-error contract (see docs/risk.md).
	Sketch bool
	// NoReuse disables the project's subtree trial-stream memo for this
	// call, forcing a cold simulation. Results are bit-identical either
	// way; the memo only skips redundant sampling.
	NoReuse bool
}

// SimulateRisk runs a Monte-Carlo schedule risk analysis for the targets:
// planning-by-simulation taken statistically. The stochastic model is
// derived from the *bound simulated tools* — each activity's duration is
// triangular over its tool's Base±Jitter with the tool's expected
// iteration count — so the risk analysis and the actual execution share
// one model. Every in-scope activity must be bound to a simulated tool
// (UseSimulatedTools or a NewSimTool binding).
//
// The engine runs sharded across all cores; use SimulateRiskWith to cap
// the worker count. Results are identical either way.
func (p *Project) SimulateRisk(targets []string, trials int, seed int64) (*RiskResult, error) {
	return p.SimulateRiskWith(targets, RiskOptions{Trials: trials, Seed: seed})
}

// SimulateRiskWith is SimulateRisk with full engine options. Unless
// opt.NoReuse is set, the run shares the project's subtree trial-stream
// memo: re-simulations after an edit re-sample only the subtrees whose
// fingerprint changed, bit-identical to a cold run.
func (p *Project) SimulateRiskWith(targets []string, opt RiskOptions) (*RiskResult, error) {
	start := time.Now()
	res, err := riskOf(nil, p.readMgr(), p.obs, p.Now(), p.riskMemo, nil, targets, opt)
	p.recordFlight("risk", start, res, err)
	return res, err
}

// riskOf runs the Monte-Carlo analysis against one manager snapshot;
// parent, when non-nil, nests the simulation's spans under an
// enclosing (e.g. request) span; ctx, when non-nil, cancels the
// simulation cooperatively.
func riskOf(ctx context.Context, m *engine.Manager, o *obs.Obs, now time.Time, memo *monte.Memo, parent *obs.Span, targets []string, opt RiskOptions) (*RiskResult, error) {
	models, err := riskModelsOf(m, targets)
	if err != nil {
		return nil, err
	}
	if opt.NoReuse {
		memo = nil
	}
	return monte.Simulate(models, monte.Config{
		Trials: opt.Trials, Seed: opt.Seed, Workers: opt.Workers,
		Sketch: opt.Sketch, Memo: memo,
		Obs: o, Parent: parent, VirtNow: now, Ctx: ctx,
	})
}

// riskModelsOf derives the stochastic activity models for the targets
// from the bound simulated tools (see scenario.RiskModels — the sweep's
// risk dimension and the facade share one derivation).
func riskModelsOf(m *engine.Manager, targets []string) ([]monte.ActivityModel, error) {
	tree, err := m.ExtractTree(targets...)
	if err != nil {
		return nil, err
	}
	return scenario.RiskModels(m, tree)
}

// RiskFingerprint returns a canonical fingerprint of everything a
// SimulateRiskWith call's distribution depends on: the derived activity
// models (tool profiles, schema precedence within the tree) plus the
// trials, seed, and sketch settings. Two calls whose fingerprints match
// return bit-identical results, no matter how the underlying store
// version or virtual clock moved in between — which is what lets a
// serving layer reuse rendered risk answers across snapshots.
func (p *Project) RiskFingerprint(targets []string, opt RiskOptions) (string, error) {
	return riskFingerprintOf(p.readMgr(), targets, opt)
}

func riskFingerprintOf(m *engine.Manager, targets []string, opt RiskOptions) (string, error) {
	models, err := riskModelsOf(m, targets)
	if err != nil {
		return "", err
	}
	fp, err := monte.ModelsFingerprint(models)
	if err != nil {
		return "", err
	}
	trials := opt.Trials
	if trials <= 0 {
		trials = 1000
	}
	// Sketch mode carries its contract version: a version bump must
	// never be served from a fingerprint cache of the old contract.
	sk := 0
	if opt.Sketch {
		sk = monte.SketchVersion
	}
	return fmt.Sprintf("risk.%016x.t%d.s%d.sk%d", fp, trials, opt.Seed, sk), nil
}

// What-if scenario types (see internal/scenario).
type (
	// ScenarioEdit is one named what-if perturbation: tool-runtime
	// scale factors and injected delays per activity, plus an optional
	// switch to team-parallel execution.
	ScenarioEdit = scenario.Edit
	// ScenarioOptions tunes a what-if sweep (estimator, worker count).
	ScenarioOptions = scenario.Options
	// ScenarioOutcome is one scenario's simulated result.
	ScenarioOutcome = scenario.Outcome
	// ScenarioReport compares every scenario against the baseline fork.
	ScenarioReport = scenario.Report
)

// ParseScenarioEdit parses one textual what-if spec of the form
// "name=Act*1.5;Act+3h;parallel" — the vocabulary shared by the
// hercules CLI and the HTTP serving layer.
func ParseScenarioEdit(spec string) (ScenarioEdit, error) { return scenario.ParseEdit(spec) }

// Fork branches an independent copy of the project at its current state.
// The task database is forked copy-on-write (O(containers), no per-entry
// copying), the design store shares its immutable objects, tool bindings
// are cloned, and the virtual clock continues from the parent's now.
// Parent and fork never observe each other's subsequent changes — plan,
// execute, and measure in the fork freely, then discard it. The fork is
// uninstrumented regardless of the parent's observability options.
func (p *Project) Fork() (*Project, error) {
	m, err := p.mgr.Fork()
	if err != nil {
		return nil, err
	}
	// The fork shares the parent's trial-stream memo: entries key on
	// subtree content, so an unedited fork's risk analysis is a warm
	// full hit and an edited fork pays only for its dirty subtrees.
	f := &Project{mgr: m, riskMemo: p.riskMemo}
	if p.plan != nil {
		c := *p.plan
		c.Targets = append([]string(nil), p.plan.Targets...)
		c.Activities = append([]string(nil), p.plan.Activities...)
		c.BasedOn = append([]string(nil), p.plan.BasedOn...)
		c.Instances = make(map[string]string, len(p.plan.Instances))
		for a, id := range p.plan.Instances {
			c.Instances[a] = id
		}
		f.plan = &c
	}
	return f, nil
}

// Scenarios runs a parallel what-if sweep toward the targets: one
// copy-on-write fork per edit plus an unedited baseline, each re-planned
// and re-executed concurrently, with outcomes compared against the
// baseline (finish dates, working-time deltas, critical paths, slack).
// The project itself is never modified. Outcomes are bit-identical for
// every worker count. With project observability enabled, the sweep
// records a scenario span tree and a scenario_runs_total counter.
func (p *Project) Scenarios(targets []string, edits []ScenarioEdit, opt ScenarioOptions) (*ScenarioReport, error) {
	if opt.Obs == nil {
		opt.Obs = p.obs
	}
	if opt.Risk != nil && opt.Risk.Memo == nil {
		// Share the project's trial-stream memo so the sweep's baseline
		// simulation is itself warm when /risk ran first (and vice versa).
		spec := *opt.Risk
		spec.Memo = p.riskMemo
		opt.Risk = &spec
	}
	start := time.Now()
	rep, err := scenario.Sweep(p.mgr, targets, edits, opt)
	if p.flight != nil {
		rec := obs.FlightRecord{
			TraceID: obs.NewTraceID(), Route: "whatif", Start: start,
			Latency:    time.Since(start),
			VirtualNow: p.Now(), StoreVersion: p.mgr.DB.Version(),
		}
		if rep != nil {
			rec.SampledTrials, rec.ReusedTrials = rep.RiskSampledTrials, rep.RiskReusedTrials
		}
		if err != nil {
			rec.Error = err.Error()
		}
		p.flight.Record(rec)
	}
	return rep, err
}

// TeamPlan is the result of OptimizeTeam: the smallest interchangeable
// team meeting the tolerance, with its leveled schedule.
type TeamPlan struct {
	// Size is the chosen team size.
	Size int
	// Makespan is the leveled working-time span.
	Makespan time.Duration
	// CriticalPath is the precedence-only lower bound.
	CriticalPath time.Duration
	// Assignments lists who does what when (working-time offsets).
	Assignments []level.Assignment
}

// OptimizeTeam answers the paper's resource-optimization question (§I:
// "optimize the resources associated with future projects"): using the
// estimator, it finds the smallest team of interchangeable designers —
// up to maxTeam — whose list-scheduled makespan for the targets stays
// within tolerance (e.g. 1.05) of the critical-path lower bound.
func (p *Project) OptimizeTeam(targets []string, est Estimator, maxTeam int, tolerance float64) (*TeamPlan, error) {
	tree, err := p.mgr.ExtractTree(targets...)
	if err != nil {
		return nil, err
	}
	var tasks []level.Task
	for _, act := range tree.Activities() {
		rule := p.mgr.Schema.RuleByActivity(act)
		e, err := est.Estimate(act, rule)
		if err != nil {
			return nil, err
		}
		var preds []string
		for _, in := range rule.Inputs {
			if prod := p.mgr.Schema.Producer(in); prod != nil && tree.Contains(prod.Activity) {
				preds = append(preds, prod.Activity)
			}
		}
		tasks = append(tasks, level.Task{Name: act, Duration: e.Work, Preds: preds})
	}
	size, res, err := level.MinimalTeam(tasks, maxTeam, tolerance)
	if err != nil {
		return nil, err
	}
	return &TeamPlan{
		Size: size, Makespan: res.Makespan,
		CriticalPath: res.CriticalPathLength,
		Assignments:  res.Assignments,
	}, nil
}

// HistoricalEstimator returns an estimator that uses this project's
// completed executions, falling back to fb for activities without
// history. Use it to plan a follow-on project from measured data.
func (p *Project) HistoricalEstimator(fb Estimator) Estimator {
	return Historical{Sched: p.mgr.Sched, Exec: p.mgr.Exec, Fallback: fb}
}

// sessionSnapshot is the persisted form of a project session.
type sessionSnapshot struct {
	// Schema is the task schema in DSL form.
	Schema string `json:"schema"`
	// Designer and Now restore the session identity and virtual clock.
	Designer string    `json:"designer"`
	Now      time.Time `json:"now"`
	// DB is the task database (both Level 3 spaces, with links).
	DB json.RawMessage `json:"db"`
	// Data is the Level 4 design-data store (content included).
	Data json.RawMessage `json:"data"`
	// PlanVersion restores the tracked plan (0 = none).
	PlanVersion int `json:"planVersion,omitempty"`
}

// Snapshot serializes the whole session — schema, virtual clock, task
// database (both Level 3 spaces), design data, and the tracked plan —
// as JSON. Restore it with Load. Tool bindings and the in-memory event
// stream are not persisted; rebind tools after loading.
func (p *Project) Snapshot() ([]byte, error) {
	db, err := json.Marshal(p.mgr.DB)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(p.mgr.Data)
	if err != nil {
		return nil, err
	}
	s := sessionSnapshot{
		Schema: p.mgr.Schema.Format(), Designer: p.mgr.Designer,
		Now: p.Now(), DB: db, Data: data,
	}
	if p.plan != nil {
		s.PlanVersion = p.plan.Version
	}
	return json.Marshal(s)
}

// Load restores a project from a Snapshot. The calendar (not persisted)
// comes from opts; rebind tools with UseSimulatedTools or BindTool before
// executing.
func Load(snapshot []byte, opt Options) (*Project, error) {
	var s sessionSnapshot
	if err := json.Unmarshal(snapshot, &s); err != nil {
		return nil, fmt.Errorf("flowsched: load: %w", err)
	}
	sch, err := schema.Parse(s.Schema)
	if err != nil {
		return nil, fmt.Errorf("flowsched: load schema: %w", err)
	}
	db := store.NewDB()
	if err := json.Unmarshal(s.DB, db); err != nil {
		return nil, fmt.Errorf("flowsched: load db: %w", err)
	}
	data := design.NewStore()
	if err := json.Unmarshal(s.Data, data); err != nil {
		return nil, fmt.Errorf("flowsched: load data: %w", err)
	}
	if opt.Calendar == nil {
		opt.Calendar = vclock.Standard()
	}
	designer := s.Designer
	if opt.Designer != "" {
		designer = opt.Designer
	}
	m, err := engine.Restore(sch, opt.Calendar, db, data, s.Now, designer)
	if err != nil {
		return nil, err
	}
	p := &Project{mgr: m, riskMemo: monte.NewMemo(0)}
	if opt.Obs.Enabled {
		p.enableObs(opt.Obs)
	}
	if s.PlanVersion > 0 {
		_, plan, err := m.Sched.PlanByVersion(s.PlanVersion)
		if err != nil {
			return nil, fmt.Errorf("flowsched: load plan: %w", err)
		}
		p.plan = plan
	}
	return p, nil
}

// DatabaseDump renders the task database as text (the Figs. 5–7 view).
func (p *Project) DatabaseDump() string { return p.mgr.DB.Dump() }

// Stats reports container/instance counts per Level 3 space.
func (p *Project) Stats() (execContainers, execInstances, schedContainers, schedInstances int) {
	st := p.mgr.DB.Stats()
	e := st[store.ExecutionSpace]
	s := st[store.ScheduleSpace]
	return e.Containers, e.Instances, s.Containers, s.Instances
}
