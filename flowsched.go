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
//	v, _ := p.View()
//	fmt.Println(v.Gantt())
//	_ = plan
package flowsched

import (
	"fmt"
	"io"
	"time"

	"flowsched/internal/engine"
	"flowsched/internal/export"
	"flowsched/internal/fault"
	"flowsched/internal/flow"
	"flowsched/internal/hier"
	"flowsched/internal/level"
	"flowsched/internal/monte"
	"flowsched/internal/obs"
	"flowsched/internal/pert"
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
	mgr *engine.Manager // mgr.Faults is nil unless InjectFaults
	obs *obs.Obs        // nil unless Options.Obs.Enabled
	// riskMemo caches per-subtree Monte-Carlo trial streams across the
	// project's risk analyses (and, shared by pointer, its forks' — the
	// memo keys on subtree content, so reuse across forks is sound).
	riskMemo *monte.Memo
	// riskModels memoizes the derived risk models and their fingerprint
	// per (tool-binding generation, target set); see ProjectView.riskModels.
	riskModels riskModelMemo
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
	return fromManager(m, opt.Obs), nil
}

// fromManager wraps a manager as a Project — the constructor shared by
// fresh projects and restored ones (see projectState.restore). Enabled
// observability wires a metrics registry, a span tracer with an explicit
// capacity (obs.DefaultMaxSpans unless overridden), and the flight
// recorder that retains wide records of the facade's expensive
// operations.
func fromManager(m *engine.Manager, o ObsOptions) *Project {
	p := &Project{mgr: m, riskMemo: monte.NewMemo(0)}
	if !o.Enabled {
		return p
	}
	maxSpans := o.MaxSpans
	if maxSpans <= 0 {
		maxSpans = obs.DefaultMaxSpans
	}
	p.obs = obs.NewWith(obs.NewRegistry(), obs.NewTracer(maxSpans))
	p.flight = obs.NewFlightRecorder(0, 0)
	p.flight.Instrument(p.obs.Metrics(), "flight")
	m.Instrument(p.obs)
	return p
}

// recordFlight files one completed facade operation and its risk
// engine sampled/reused activity-trial split with the flight recorder
// (a no-op on uninstrumented projects).
func (p *Project) recordFlight(op string, start time.Time, sampled, reused int64, err error) {
	if p.flight == nil {
		return
	}
	rec := obs.FlightRecord{
		TraceID: obs.NewTraceID(), Route: op, Start: start,
		Latency:    time.Since(start),
		VirtualNow: p.Now(), StoreVersion: p.mgr.DB.Version(),
		SampledTrials: sampled, ReusedTrials: reused,
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
	if p.mgr.Faults != nil {
		t = p.mgr.Faults.Wrap(activity, t, p.mgr.Clock.Now)
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
	if p.mgr.Faults != nil {
		t = p.mgr.Faults.Wrap(activity, t, p.mgr.Clock.Now)
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
	p.mgr.Faults = fp
	return nil
}

// FaultHistory returns every fault decision made so far, including
// pass-throughs — the replay log of the armed fault plan. Nil without
// InjectFaults.
func (p *Project) FaultHistory() []FaultInjection {
	if p.mgr.Faults == nil {
		return nil
	}
	return p.mgr.Faults.History()
}

// FaultsInjected counts the non-pass-through fault decisions so far.
func (p *Project) FaultsInjected() int {
	if p.mgr.Faults == nil {
		return 0
	}
	return p.mgr.Faults.Injected()
}

// ExtractTree extracts the task tree covering the target data classes.
func (p *Project) ExtractTree(targets ...string) (*Tree, error) {
	return p.mgr.ExtractTree(targets...)
}

// Plan derives a schedule for the targets by simulating the flow's
// execution from the current virtual time (paper §III). Each call creates
// a new plan version; the newest version is the tracked plan, and the
// returned copy is the caller's. When a previous plan exists it is
// recorded as this plan's ancestor (schedule metadata lineage).
func (p *Project) Plan(targets []string, est Estimator, opt PlanOptions) (_ *Plan, err error) {
	defer p.commit(&err)
	tree, err := p.mgr.ExtractTree(targets...)
	if err != nil {
		return nil, err
	}
	if e, _, err := p.mgr.Sched.CurrentPlan(); err == nil && e != nil && len(opt.BasedOn) == 0 {
		opt.BasedOn = []string{e.ID}
	}
	res, err := p.mgr.Plan(tree, est, opt)
	if err != nil {
		return nil, err
	}
	return &res.Plan, nil
}

// CurrentPlan returns a copy of the tracked plan, or nil before
// planning. It is safe to call while another goroutine writes; reads
// that must agree with each other take one View instead.
func (p *Project) CurrentPlan() *Plan {
	if _, plan, err := p.mgr.Sched.AtView(p.mgr.DB.Snapshot()).CurrentPlan(); err == nil && plan != nil {
		return plan.Clone()
	}
	return nil
}

// trackedPlan decodes the tracked plan for a write.
func (p *Project) trackedPlan(what string) (plan *Plan, err error) {
	if _, plan, err = p.mgr.Sched.CurrentPlan(); err == nil && plan == nil {
		err = fmt.Errorf("flowsched: no plan to %s", what)
	}
	return plan, err
}

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
	if _, opt.Plan, err = p.mgr.Sched.CurrentPlan(); err != nil {
		return nil, err
	}
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
	if p.mgr.Faults != nil && rec.Verify == nil {
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
	plan, err := p.trackedPlan("complete against")
	if err != nil {
		return err
	}
	return p.mgr.CompleteActivity(plan, activity, entityID)
}

// Propagate updates the current plan for slips as of the virtual now and
// returns the projected project finish.
func (p *Project) Propagate() (_ time.Time, err error) {
	defer p.commit(&err)
	plan, err := p.trackedPlan("propagate")
	if err != nil {
		return time.Time{}, err
	}
	return p.mgr.Sched.Propagate(plan, p.Now())
}

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

// EventsAfter is the push-consumer variant of EventsPage: when events
// past seq already exist they return immediately (wake is nil);
// otherwise wake is closed at the next append and the caller re-reads.
// Each HTTP SSE stream is a cursor over this — one blocked goroutine
// per stream instead of a poll loop.
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
	plan, err := p.trackedPlan("set a milestone against")
	if err == nil {
		_, err = p.mgr.Sched.SetMilestone(plan, name, class, target)
	}
	return err
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

// ImportActualsCSV applies manually collected actual dates (rows of
// activity,start,finish,done) to the current plan. Completed activities
// are linked to the latest entity instance of their output class, so
// the paper's schedule↔entity link is preserved even for hand-entered
// status. Returns how many rows were applied.
func (p *Project) ImportActualsCSV(r io.Reader) (_ int, err error) {
	defer p.commit(&err)
	plan, err := p.trackedPlan("apply actuals to")
	if err != nil {
		return 0, err
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
	return export.ApplyActuals(p.mgr.Sched, plan, actuals, resolve)
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

// SimulateRiskWith runs ProjectView.SimulateRiskWith on a fresh View
// and files the run with the project's flight recorder.
func (p *Project) SimulateRiskWith(targets []string, opt RiskOptions) (*RiskResult, error) {
	start := time.Now()
	v, err := p.View()
	if err != nil {
		return nil, err
	}
	res, err := v.SimulateRiskWith(targets, opt)
	var sampled, reused int64
	if res != nil {
		sampled, reused = res.SampledActivityTrials, res.ReusedActivityTrials
	}
	p.recordFlight("risk", start, sampled, reused, err)
	return res, err
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
// copying), the design store shares its immutable objects, the event
// stream is shared rather than copied, tool bindings are cloned, an
// armed fault plan continues in the fork from a copy of its state (the
// fork's faults never show in the parent's FaultHistory), and the
// virtual clock continues from the parent's now.
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
	return &Project{mgr: m, riskMemo: p.riskMemo}, nil
}

// Scenarios runs ProjectView.Scenarios on a fresh View — a parallel
// what-if sweep toward the targets, pinned to the current snapshot —
// and files the sweep with the project's flight recorder. The project
// itself is never modified.
func (p *Project) Scenarios(targets []string, edits []ScenarioEdit, opt ScenarioOptions) (*ScenarioReport, error) {
	start := time.Now()
	v, err := p.View()
	if err != nil {
		return nil, err
	}
	rep, err := v.Scenarios(targets, edits, opt)
	var sampled, reused int64
	if rep != nil {
		sampled, reused = rep.RiskSampledTrials, rep.RiskReusedTrials
	}
	p.recordFlight("whatif", start, sampled, reused, err)
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

// Snapshot serializes the whole session as JSON: the same image a
// durable project's checkpoint holds — the store with its exact version
// and container watermarks (plan versions included), design data,
// virtual clock, and event stream — plus the schema and designer a durable project keeps in
// its manifest. Restore it with Load. Tool bindings are not persisted;
// rebind tools after loading.
func (p *Project) Snapshot() ([]byte, error) {
	return p.encodeImage(p.mgr.Schema.Format(), p.mgr.Designer)
}

// Load restores a project from a Snapshot through the same path as
// Open's recovery: the restored project has the saved store version,
// watermarks, event stream and clock, and tracks the newest plan in the
// restored schedule space. The calendar (not
// persisted) comes from opt, and opt.Designer, when set, overrides the
// saved designer; rebind tools with UseSimulatedTools or BindTool before
// executing. Sessions in the earlier "db" format, which lost the store
// version and the event stream, are rejected.
func Load(snapshot []byte, opt Options) (*Project, error) {
	st, err := decodeImage(snapshot, true)
	if err != nil {
		return nil, fmt.Errorf("flowsched: load: %w", err)
	}
	sch, err := schema.Parse(st.schemaSrc)
	if err != nil {
		return nil, fmt.Errorf("flowsched: load schema: %w", err)
	}
	designer := st.designer
	if opt.Designer != "" {
		designer = opt.Designer
	}
	return st.restore(sch, designer, opt)
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
