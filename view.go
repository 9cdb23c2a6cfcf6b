package flowsched

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowsched/internal/engine"
	"flowsched/internal/export"
	"flowsched/internal/monte"
	"flowsched/internal/obs"
	"flowsched/internal/pert"
	"flowsched/internal/query"
	"flowsched/internal/report"
	"flowsched/internal/scenario"
	"flowsched/internal/store"
	"flowsched/internal/tools"
)

// ProjectView is the facade's read API, pinned to one snapshot of the
// task database: every method answers from the same moment, so a set of
// reads taken through one view is mutually consistent even while the
// project keeps planning and executing on other goroutines. Views are
// cheap (O(containers), no entry copying) and safe for concurrent use;
// take a fresh one whenever "now" should advance.
//
// The view decodes the tracked plan, the newest plan version, from its
// snapshot, so later slip propagation never changes what it reports.
type ProjectView struct {
	m    *engine.Manager
	view *store.View
	plan *Plan // decoded from the snapshot; nil before first Plan
	now  time.Time
	obs  *obs.Obs
	memo *monte.Memo     // the project's shared trial-stream memo
	span *obs.Span       // request root for CaptureTrace'd views; else nil
	ctx  context.Context // cancellation for compute surfaces; nil = never canceled
	// models is the project's risk-model memo; risk pins the set this
	// view (and every copy of it) last answered from.
	models *riskModelMemo
	risk   *atomic.Pointer[riskModelSet]
}

// WithContext returns a copy of the view whose compute surfaces
// (SimulateRiskWith, Scenarios) cancel cooperatively when ctx is done —
// the bridge that lets a serving layer stop a simulation the moment its
// client disconnects or its deadline passes. Cancellation never
// perturbs results: an uncancelled run is bit-identical with or without
// a context. A nil ctx returns the view unchanged; the original view is
// not modified.
func (v *ProjectView) WithContext(ctx context.Context) *ProjectView {
	if ctx == nil {
		return v
	}
	c := *v
	c.ctx = ctx
	return &c
}

// CaptureTrace returns a copy of the view whose span output is
// diverted to tr, nested under parent: risk simulations, what-if
// sweeps, and their engine/monte descendants run through the copy
// record their spans on tr (a request-scoped tracer) instead of the
// project's own, while metric counters keep flowing to the project
// registry. A nil tr returns the view unchanged. The original view is
// not modified.
func (v *ProjectView) CaptureTrace(tr *obs.Tracer, parent *obs.Span) *ProjectView {
	if tr == nil {
		return v
	}
	c := *v
	c.obs = obs.NewWith(v.obs.Metrics(), tr)
	c.span = parent
	return &c
}

// View captures the project's current state as a consistent read-only
// view: one store snapshot, the plan as recorded in that snapshot, and
// the virtual now at capture time.
func (p *Project) View() (*ProjectView, error) {
	v := p.mgr.DB.Snapshot()
	m := p.mgr.AtView(v)
	_, plan, err := m.Sched.CurrentPlan()
	if err != nil {
		return nil, fmt.Errorf("flowsched: view: %w", err)
	}
	return &ProjectView{
		m: m, view: v, plan: plan, now: m.Clock.Now(), obs: p.obs, memo: p.riskMemo,
		models: &p.riskModels, risk: new(atomic.Pointer[riskModelSet]),
	}, nil
}

// Version is the store snapshot version the view is pinned to. It
// increases with every task-database mutation, so two views with equal
// versions observed the identical Level 3 state.
func (v *ProjectView) Version() uint64 { return v.view.Version() }

// Version is the project's current store version — the same number a
// concurrent View (and every HTTP response's X-Flowsched-Version
// header) reports. The HTTP write path compares it against If-Match
// for optimistic concurrency: a client edits against the version it
// read, and a mismatch at write time means someone else got there
// first.
func (p *Project) Version() uint64 { return p.mgr.DB.Version() }

// Now is the virtual time captured with the snapshot.
func (v *ProjectView) Now() time.Time { return v.now }

// HasPlan reports whether the snapshot contains a tracked plan.
func (v *ProjectView) HasPlan() bool { return v.plan != nil }

// PlanVersion is the snapshot's tracked plan version (0 before planning).
func (v *ProjectView) PlanVersion() int {
	if v.plan == nil {
		return 0
	}
	return v.plan.Version
}

// Targets returns the snapshot plan's target data classes (nil before
// planning). The slice is a copy.
func (v *ProjectView) Targets() []string {
	if v.plan == nil {
		return nil
	}
	return append([]string(nil), v.plan.Targets...)
}

// needPlan guards the plan-scoped read surfaces.
func (v *ProjectView) needPlan() error {
	if v.plan == nil {
		return fmt.Errorf("flowsched: no plan")
	}
	return nil
}

// Status reports plan-versus-actual state per activity as of the
// snapshot's virtual now.
func (v *ProjectView) Status() ([]ActivityStatus, error) {
	if err := v.needPlan(); err != nil {
		return nil, err
	}
	return v.m.Sched.Status(v.plan, v.now)
}

// Gantt renders the snapshot plan's Gantt chart (planned and
// accomplished schedule, §IV.B).
func (v *ProjectView) Gantt() (string, error) {
	if err := v.needPlan(); err != nil {
		return "", err
	}
	return report.Chart(v.m, v.plan, v.now)
}

// TaskTreeView renders the task tree with per-node schedule state — the
// central feature of the Hercules user interface (Fig. 8).
func (v *ProjectView) TaskTreeView(targets ...string) (string, error) {
	tree, err := v.m.ExtractTree(targets...)
	if err != nil {
		return "", err
	}
	return report.TaskTree(v.m, tree, v.plan), nil
}

// Dashboard renders a one-page project view from the snapshot: plan
// summary, per-activity status, the Gantt chart, and the critical path.
func (v *ProjectView) Dashboard() (string, error) {
	rows, err := v.Status()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "project dashboard — plan v%d, targets %v\n",
		v.plan.Version, v.plan.Targets)
	fmt.Fprintf(&b, "now %s; projected finish %s\n\n",
		v.now.Format("2006-01-02 15:04"), v.plan.Finish.Format("2006-01-02 15:04"))
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
	chart, err := v.Gantt()
	if err != nil {
		return "", err
	}
	b.WriteString(chart)
	cpm, err := v.Analyze()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\ncritical path (%s working): %s\n",
		cpm.Duration, strings.Join(cpm.CriticalPath, " -> "))
	return b.String(), nil
}

// Analyze runs CPM/PERT over the snapshot plan: early/late dates,
// slack, critical path, completion probability.
func (v *ProjectView) Analyze() (*CPMResult, error) {
	if err := v.needPlan(); err != nil {
		return nil, err
	}
	_, insts, err := v.m.Sched.Instances(v.plan)
	if err != nil {
		return nil, err
	}
	inPlan := make(map[string]bool, len(v.plan.Activities))
	for _, a := range v.plan.Activities {
		inPlan[a] = true
	}
	acts := make([]pert.Activity, 0, len(insts))
	for _, in := range insts {
		rule := v.m.Schema.RuleByActivity(in.Activity)
		var preds []string
		for _, input := range rule.Inputs {
			if prod := v.m.Schema.Producer(input); prod != nil && inPlan[prod.Activity] {
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

// Query answers a textual §IV.B query against the snapshot (see
// internal/query for the grammar).
func (v *ProjectView) Query(text string) (string, error) {
	eng, err := query.New(v.m.Sched, v.m.Exec)
	if err != nil {
		return "", err
	}
	return eng.Eval(text)
}

// MilestoneReport scores the snapshot plan's milestones: achieved-at
// dates for completed ones, projected margins for pending ones
// (negative margin = projected or actual miss).
func (v *ProjectView) MilestoneReport() ([]MilestoneStatus, error) {
	if err := v.needPlan(); err != nil {
		return nil, err
	}
	return v.m.Sched.MilestoneReport(v.plan)
}

// OutlineStatus renders the snapshot plan's status rolled up through
// the grouping — the project manager's composite-task view (§IV.C:
// "viewing a portion of the overall schedule").
func (v *ProjectView) OutlineStatus(g *Grouping) (string, error) {
	if err := v.needPlan(); err != nil {
		return "", err
	}
	if g == nil {
		return "", fmt.Errorf("flowsched: nil grouping")
	}
	if err := g.CheckCovers(v.plan); err != nil {
		return "", err
	}
	rows, err := v.Status()
	if err != nil {
		return "", err
	}
	return g.Outline(rows)
}

// DeadlineMargin reports the working time between the snapshot plan's
// projected finish and the deadline: positive when the project is
// ahead, negative when the projection overruns the deadline.
func (v *ProjectView) DeadlineMargin(deadline time.Time) (time.Duration, error) {
	if err := v.needPlan(); err != nil {
		return 0, err
	}
	cal := v.m.Calendar
	if v.plan.Finish.After(deadline) {
		return -cal.WorkBetween(deadline, v.plan.Finish), nil
	}
	return cal.WorkBetween(v.plan.Finish, deadline), nil
}

// StatusReport renders the periodic manager's report for [from, to)
// against the snapshot: activity counts, completions, constraint
// violations, slips, and the next period's planned starts.
func (v *ProjectView) StatusReport(from, to time.Time) (string, error) {
	return report.StatusReport(v.m, v.plan, from, to)
}

// ExportPlanCSV renders the snapshot plan as CSV for spreadsheet or PM
// tooling.
func (v *ProjectView) ExportPlanCSV() (string, error) {
	if v.plan == nil {
		return "", fmt.Errorf("flowsched: no plan to export")
	}
	return export.PlanCSV(v.m.Sched, v.plan)
}

// ExportMPX renders the snapshot plan as a minimal MPX-style record
// stream for legacy project-management tools.
func (v *ProjectView) ExportMPX() (string, error) {
	if v.plan == nil {
		return "", fmt.Errorf("flowsched: no plan to export")
	}
	return export.MPX(v.m.Sched, v.plan)
}

// SimulateRiskWith runs a Monte-Carlo schedule risk analysis for the
// targets from the snapshot's virtual now: planning-by-simulation taken
// statistically. The stochastic model is derived from the *bound
// simulated tools* — each activity's duration is triangular over its
// tool's Base±Jitter with the tool's expected iteration count — so the
// risk analysis and the actual execution share one model. Every
// in-scope activity must be bound to a simulated tool
// (UseSimulatedTools or a NewSimTool binding); tools are session
// configuration, not Level 3 state, so the live bindings are used. The
// models come from the project's memo (see riskModels), so a call after
// RiskFingerprint on the same view simulates exactly the models that
// fingerprint names and derives nothing.
//
// Unless opt.NoReuse is set, the run shares the project's subtree
// trial-stream memo: re-simulations after an edit re-sample only the
// subtrees whose fingerprint changed, bit-identical to a cold run.
func (v *ProjectView) SimulateRiskWith(targets []string, opt RiskOptions) (*RiskResult, error) {
	set, err := v.riskModels(targets)
	if err != nil {
		return nil, err
	}
	memo := v.memo
	if opt.NoReuse {
		memo = nil
	}
	return monte.Simulate(set.models, monte.Config{
		Trials: opt.Trials, Seed: opt.Seed, Workers: opt.Workers,
		Sketch: opt.Sketch, Memo: memo,
		Obs: v.obs, Parent: v.span, VirtNow: v.now, Ctx: v.ctx,
	})
}

// riskModelSet is one derivation of a target set's stochastic activity
// models and their monte.ModelsFingerprint, made at tool-binding
// generation gen. It is immutable once built: views and the memo share
// it, and monte only reads the models.
type riskModelSet struct {
	targets []string // the target list, a copy
	gen     uint64
	models  []monte.ActivityModel
	fp      uint64
}

// riskModelMemo holds a project's risk model sets for the current
// tool-binding generation, one per target set. The models depend only
// on the schema graph (fixed per project), the bindings and the
// targets — never on the store version — so a warm /risk derives
// nothing. A fork's Project has its own memo, since its registry is a
// clone.
type riskModelMemo struct {
	mu   sync.Mutex
	gen  uint64 // generation of every filed set
	sets map[string]*riskModelSet
}

// maxRiskModelSets bounds the memo's target sets: target lists are
// client input, so when full the memo drops everything, as the serve
// layer's response cache does.
const maxRiskModelSets = 64

// riskTargetsKey is the memo's map key for a target list, order kept
// (the models follow the tree's activity order). A target holding the
// separator could alias another list, so a hit also compares the lists.
func riskTargetsKey(targets []string) string {
	if len(targets) == 1 {
		return targets[0]
	}
	return strings.Join(targets, "\x00")
}

// get returns the target set's models at the registry's current
// generation, deriving them on a miss. The generation is read before
// and after deriving; only a derivation that no binding change
// overlapped is filed. Errors are never filed.
func (c *riskModelMemo) get(m *engine.Manager, targets []string) (*riskModelSet, error) {
	key := riskTargetsKey(targets)
	gen := m.Tools.Generation()
	c.mu.Lock()
	set := c.sets[key]
	c.mu.Unlock()
	if set != nil && set.gen == gen && slices.Equal(set.targets, targets) {
		return set, nil
	}
	tree, err := m.ExtractTree(targets...)
	if err != nil {
		return nil, err
	}
	models, err := scenario.RiskModels(m, tree)
	if err != nil {
		return nil, err
	}
	fp, err := monte.ModelsFingerprint(models)
	if err != nil {
		return nil, err
	}
	set = &riskModelSet{targets: slices.Clone(targets), gen: gen, models: models, fp: fp}
	if m.Tools.Generation() != gen {
		return set, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case gen < c.gen:
		// A newer generation was filed meanwhile: this set is stale.
		return set, nil
	case gen > c.gen || c.sets == nil || len(c.sets) >= maxRiskModelSets:
		c.sets, c.gen = make(map[string]*riskModelSet), gen
	}
	c.sets[key] = set
	return set, nil
}

// riskModels returns the targets' risk model set. The view pins the set
// it last answered from, so RiskFingerprint and SimulateRiskWith on one
// view describe one model set even while tools are rebound
// concurrently; otherwise the set comes from the project's memo, keyed
// by (tool-binding generation, target set), and is derived (tree
// extraction, scenario.RiskModels, monte.ModelsFingerprint) only on a
// miss.
func (v *ProjectView) riskModels(targets []string) (*riskModelSet, error) {
	if set := v.risk.Load(); set != nil && slices.Equal(set.targets, targets) {
		return set, nil
	}
	set, err := v.models.get(v.m, targets)
	if err != nil {
		return nil, err
	}
	v.risk.Store(set)
	return set, nil
}

// RiskFingerprint returns a canonical fingerprint of everything a
// SimulateRiskWith call's distribution depends on: the derived activity
// models (tool profiles, schema precedence within the tree) plus the
// trials, seed, and sketch settings. Two calls whose fingerprints match
// return bit-identical results, no matter how the underlying store
// version or virtual clock moved in between — which is what lets a
// serving layer reuse rendered risk answers across snapshots. The
// fingerprint also names the tool-binding generation the models were
// derived at, so any rebinding retires the keys made before it, even
// one that leaves the models equal (InjectFaults wraps tools without
// changing their profiles).
//
// The models and their hash come from the project's memo (see
// riskModels), so a repeated call at one generation hashes nothing but
// the settings.
func (v *ProjectView) RiskFingerprint(targets []string, opt RiskOptions) (string, error) {
	set, err := v.riskModels(targets)
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
	return fmt.Sprintf("risk.%016x.g%d.t%d.s%d.sk%d", set.fp, set.gen, trials, opt.Seed, sk), nil
}

// WhatIfFingerprint is a canonical hash of everything a Scenarios sweep
// with these arguments depends on: the sweep configuration (targets,
// canonical edits, recovery policy, risk spec), the derived flow
// structure with every bound tool's class/instance/profile chain, the
// virtual now and plan version, and — from the snapshot — the
// watermarks of every schedule-space container plus the
// execution-space containers of the data classes inside the target
// tree. Store writes outside that closure (an import of an unrelated
// data class) leave the fingerprint unchanged, so equal fingerprints
// across different store versions mean Scenarios renders bit-identical
// reports from both.
//
// Sweeps whose behaviour cannot be captured by hashing refuse a
// fingerprint with an error: custom estimators, recovery verifiers,
// non-simulated tools, and edits that arm fault injection (fault plans
// carry arbitrary configuration and per-fork mutable state). Callers
// must treat an error as "do not reuse", never as a failure of the
// sweep itself.
//
// The HTTP server does not key /whatif by this fingerprint: it hashes
// schedule-space watermarks, which nearly every write moves, so such a
// cache never hit on the benchmark workloads. It is kept for callers
// that price the hash itself, such as perfbench's shadow replay.
func (v *ProjectView) WhatIfFingerprint(targets []string, edits []ScenarioEdit, opt ScenarioOptions) (string, error) {
	if opt.Estimator != nil {
		return "", fmt.Errorf("flowsched: whatif fingerprint: custom estimators are not fingerprintable")
	}
	if opt.Recovery.Verify != nil {
		return "", fmt.Errorf("flowsched: whatif fingerprint: recovery verifiers are not fingerprintable")
	}
	for _, e := range edits {
		if e.Faults != nil {
			return "", fmt.Errorf("flowsched: whatif fingerprint: fault-injection edits are not fingerprintable")
		}
	}
	tree, err := v.m.ExtractTree(targets...)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "whatif.v1|designer=%s|now=%d|planv=%d\n", v.m.Designer, v.now.UnixNano(), v.PlanVersion())
	for _, tgt := range targets {
		fmt.Fprintf(h, "target=%s\n", tgt)
	}
	fmt.Fprintf(h, "recovery=%+v|%d|%t|%t\n",
		opt.Recovery.Backoff, opt.Recovery.RunDeadline, opt.Recovery.Failover, opt.Recovery.ContinueOnBlock)
	if opt.Risk != nil {
		fmt.Fprintf(h, "risk=%d|%d|%t|%d\n", opt.Risk.Trials, opt.Risk.Seed, opt.Risk.Sketch, monte.SketchVersion)
	}
	for _, e := range edits {
		fmt.Fprintf(h, "edit=%s|parallel=%t\n", e.Name, e.Parallel)
		for _, k := range sortedKeys(e.Scale) {
			fmt.Fprintf(h, "scale:%s=%g\n", k, e.Scale[k])
		}
		for _, k := range sortedKeys(e.Delay) {
			fmt.Fprintf(h, "delay:%s=%d\n", k, e.Delay[k])
		}
	}
	// Flow structure and tool bindings: every activity in post order with
	// its full rotation chain of simulated-tool profiles. The data
	// classes collected here bound the store closure hashed below.
	classes := make(map[string]bool)
	for _, c := range tree.Leaves() {
		classes[c] = true
	}
	for _, a := range tree.Activities() {
		if rule := v.m.Schema.RuleByActivity(a); rule != nil {
			classes[rule.Output] = true
		}
		fmt.Fprintf(h, "act=%s", a)
		for _, tl := range v.m.Tools.Bound(a) {
			st, ok := tl.(*tools.SimTool)
			if !ok {
				return "", fmt.Errorf("flowsched: whatif fingerprint: tool %s on %s is not a simulated tool",
					tl.Instance(), a)
			}
			p := st.Profile()
			fmt.Fprintf(h, "|tool=%s/%s:%d,%g,%g,%g",
				tl.Class(), tl.Instance(), p.Base, p.Jitter, p.MeanIterations, p.FailureRate)
		}
		fmt.Fprintln(h)
	}
	// Snapshot closure: schedule-space containers (plans, schedule
	// history, milestones) plus execution-space containers whose class
	// is inside the tree. A container's watermark is the store version
	// at its last mutation, so any relevant write changes the hash.
	var names []string
	byName := make(map[string]*store.Container)
	for _, c := range v.view.Containers() {
		if c.Space == store.ScheduleSpace || classes[c.Class] {
			names = append(names, c.Name)
			byName[c.Name] = c
		}
	}
	sort.Strings(names)
	for _, n := range names {
		c := byName[n]
		fmt.Fprintf(h, "container=%s|%s|%s|w%d|n%d\n", c.Name, c.Space, c.Class, c.Watermark(), c.Len())
	}
	return fmt.Sprintf("whatif.%016x", h.Sum64()), nil
}

// sortedKeys returns m's keys in sorted order for canonical hashing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Scenarios runs a parallel what-if sweep toward the targets: one
// copy-on-write fork per edit plus an unedited baseline, each re-planned
// and re-executed concurrently, with outcomes compared against the
// baseline (finish dates, working-time deltas, critical paths, slack).
// Every fork is pinned to the view's snapshot, so the sweep compares
// scenarios against one observed moment even while the project keeps
// executing. Outcomes are bit-identical for every worker count. With
// project observability enabled, the sweep records a scenario span tree
// and a scenario_runs_total counter.
func (v *ProjectView) Scenarios(targets []string, edits []ScenarioEdit, opt ScenarioOptions) (*ScenarioReport, error) {
	if opt.Obs == nil {
		opt.Obs = v.obs
	}
	if opt.Parent == nil {
		opt.Parent = v.span
	}
	opt.BaseView = v.view
	if opt.Ctx == nil {
		opt.Ctx = v.ctx
	}
	if opt.Risk != nil && opt.Risk.Memo == nil {
		// Share the project's trial-stream memo so the sweep's baseline
		// simulation is itself warm when /risk ran first (and vice versa).
		spec := *opt.Risk
		spec.Memo = v.memo
		opt.Risk = &spec
	}
	return scenario.Sweep(v.m, targets, edits, opt)
}
