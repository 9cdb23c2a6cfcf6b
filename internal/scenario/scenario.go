// Package scenario is the what-if engine: it forks a workflow manager
// into N isolated copies, perturbs each copy's tool profiles per a
// scenario edit, re-plans and re-executes every copy concurrently, and
// compares the outcomes against an unedited baseline fork.
//
// The paper's schedule manager answers "when will the design finish?"
// for the plan in force; a what-if sweep answers the manager's next
// question — "and if simulation runs twice as slow?", "and if layout
// slips three days?" — without disturbing the live project. Forks are
// copy-on-write snapshots of the Level 3 task database (store.DB.ForkAt)
// and share the parent's event history and design-data version chains
// rather than copying them, so a fork grows with neither the project's
// entries, events nor design objects: O(containers + classes) per
// scenario. Its writes do not grow with the history
// either: the store keeps entries in 64-entry chunks, so a fork's first
// append to a container copies at most one chunk, and a replacement one
// chunk plus the container's chunk index. A
// fork's task database has no commit hook, so the payloads its re-plan
// and re-execution write stay typed and are never marshalled. A fork of
// a project with an armed fault plan draws its faults from its own fork
// of the plan (fault.Plan.Fork), so it never advances the parent's.
//
// Determinism: forks are created serially from the same parent state and
// each fork's execution is driven entirely by its own virtual clock and
// seeded pseudo-tools, so a sweep's outcomes are bit-identical no matter
// how many workers run it.
package scenario

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"flowsched/internal/engine"
	"flowsched/internal/fault"
	"flowsched/internal/flow"
	"flowsched/internal/monte"
	"flowsched/internal/obs"
	"flowsched/internal/par"
	"flowsched/internal/pert"
	"flowsched/internal/sched"
	"flowsched/internal/schema"
	"flowsched/internal/store"
	"flowsched/internal/tools"
)

// Edit is one scenario: a named set of perturbations applied to a fork
// before it re-plans and re-executes.
type Edit struct {
	// Name labels the scenario in the report. Required, unique per sweep.
	Name string
	// Scale multiplies the named activities' tool base runtimes
	// (e.g. 1.5 = 50% slower, 0.5 = twice as fast). Factors must be > 0.
	Scale map[string]float64
	// Delay adds working time to the named activities' tool base
	// runtimes (a slip injected at the tool level).
	Delay map[string]time.Duration
	// Parallel executes independent branches concurrently on the
	// scenario's virtual timeline (a fully-staffed team) instead of the
	// serial single-designer post order.
	Parallel bool
	// Faults, when non-nil, arms a seeded fault-injection plan over the
	// fork's tool bindings — "and if tools crash, hang, and lose
	// licenses at these rates?" as a what-if. The plan is seeded, so
	// the scenario replays bit-identically. Pair with Options.Recovery
	// (e.g. engine.DefaultRecovery()) so injected faults degrade the
	// schedule instead of aborting the scenario.
	Faults *fault.Config
}

// activities returns the union of the edit's perturbed activities, sorted.
func (e *Edit) activities() []string {
	set := make(map[string]bool, len(e.Scale)+len(e.Delay))
	for a := range e.Scale {
		set[a] = true
	}
	for a := range e.Delay {
		set[a] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Options configure a sweep.
type Options struct {
	// Estimator produces activity estimates for each scenario's plan.
	// Nil selects ProfileEstimator over the scenario's (edited) tool
	// registry, so an edit shifts the plan as well as the execution.
	Estimator sched.Estimator
	// Workers bounds concurrent scenario executions (<= 0: GOMAXPROCS).
	// Outcomes do not depend on it.
	Workers int
	// Obs, when non-nil, records a sweep span with one child span per
	// scenario and a scenario_runs_total counter.
	Obs *obs.Obs
	// Parent, when non-nil, nests the sweep's spans under an enclosing
	// span on Obs's tracer (a request root), and additionally records
	// live per-scenario spans — with the fork's engine and risk spans
	// nested inside — as each fork executes. Nil keeps the sweep's
	// post-hoc summary spans as trace roots and leaves forks untraced.
	Parent *obs.Span
	// Recovery is the fault-tolerance policy every fork executes under.
	// The zero value aborts a scenario on its first exhausted activity;
	// with ContinueOnBlock the blockage is reported in the outcome
	// instead. For edits that inject faults and leave Verify nil, the
	// fault detector is installed automatically.
	Recovery engine.Recovery
	// BaseView, when non-nil, pins every fork to that snapshot of the
	// task database instead of the live head — a sweep stays consistent
	// with one observed moment even while the parent keeps executing.
	BaseView *store.View
	// Risk, when non-nil, adds a Monte-Carlo risk analysis to every
	// scenario. The baseline model is simulated once before the fork
	// pool starts and its per-subtree trial streams are cached in a
	// shared memo, so each edited fork re-samples only the subtrees its
	// edit dirtied — a sweep's total sampling cost scales with the
	// edited subtrees, not the scenario count.
	Risk *RiskSpec
	// Ctx, when non-nil, cancels the sweep cooperatively: no new
	// scenario forks start once it is done, in-flight risk simulations
	// stop at their batch boundaries, and Sweep returns the context's
	// error. Uncancelled sweeps are unaffected (outcomes stay
	// bit-identical with or without a context).
	Ctx context.Context
}

// RiskSpec configures the sweep's risk dimension.
type RiskSpec struct {
	// Trials is the Monte-Carlo sample count per scenario (default 1000).
	Trials int
	// Seed makes every scenario's analysis reproducible. All scenarios
	// share the seed — differences between outcomes are purely the
	// edits, never sampling noise.
	Seed int64
	// Sketch answers percentiles from the mergeable quantile sketch
	// instead of sorting full trial sets (see monte.Config.Sketch).
	Sketch bool
	// Memo, when non-nil, is the shared subtree trial-stream cache —
	// pass a long-lived memo to share baseline streams across sweeps.
	// Nil builds a sweep-local memo.
	Memo *monte.Memo
}

// RiskStats is one scenario's finish-span distribution summary. The
// values are deterministic: bit-identical for any sweep or engine
// worker count.
type RiskStats struct {
	Trials                   int
	Mean, P10, P50, P90, P95 time.Duration
}

// Outcome is one scenario's result.
type Outcome struct {
	// Name is the scenario name ("baseline" for the unedited fork).
	Name string
	// PlanVersion is the plan version the scenario created in its fork.
	PlanVersion int
	// PlanFinish is the planned completion date; Finish the simulated
	// actual completion after executing the whole task tree.
	PlanFinish, Finish time.Time
	// Delta is the working-time difference between this scenario's
	// finish and the baseline's (positive = later than baseline).
	// Zero for the baseline itself.
	Delta time.Duration
	// CriticalPath is the zero-slack chain of the scenario's plan.
	CriticalPath []string
	// Slack maps each activity to its scheduling slack in the
	// scenario's plan.
	Slack map[string]time.Duration
	// Blocked lists activities fenced off by graceful degradation
	// (Options.Recovery.ContinueOnBlock) in this scenario, in the
	// order they blocked. Empty when everything completed.
	Blocked []string
	// FaultsInjected counts the faults the scenario's plan actually
	// injected: the edit's (Edit.Faults), or else the fork of the
	// project's armed plan; zero without either.
	FaultsInjected int
	// Risk is the scenario's Monte-Carlo finish distribution summary
	// (nil unless Options.Risk was set).
	Risk *RiskStats
}

// Report is a full sweep result.
type Report struct {
	// Targets are the data classes the sweep planned toward.
	Targets []string
	// Baseline is the unedited fork's outcome.
	Baseline Outcome
	// Scenarios are the edited forks' outcomes, in edit order.
	Scenarios []Outcome
	// RiskSampledTrials / RiskReusedTrials aggregate the sweep's
	// activity×trial sampling cost across every scenario simulation
	// (zero without Options.Risk). They are advisory observability:
	// the distribution results are always bit-identical, but the
	// sampled/reused split can shift when concurrent scenarios race on
	// an identical edited subtree or the memo budget forces evictions.
	RiskSampledTrials, RiskReusedTrials int64
}

// profiled is implemented by tools that expose simulation parameters
// (tools.SimTool); scenario edits and profile-derived estimates need it.
type profiled interface {
	Profile() tools.Profile
}

// ProfileEstimator derives schedule estimates from the bound simulated
// tools: expected work is one application's base runtime times the
// expected iteration count, with PERT bounds from the runtime jitter and
// the tool's iteration safeguard (iteration >= 2x mean always succeeds).
type ProfileEstimator struct {
	Tools *tools.Registry
}

// Estimate implements sched.Estimator.
func (pe ProfileEstimator) Estimate(activity string, _ *schema.Rule) (sched.Estimate, error) {
	if pe.Tools == nil {
		return sched.Estimate{}, fmt.Errorf("scenario: no tool registry to estimate from")
	}
	t := pe.Tools.For(activity)
	if t == nil {
		return sched.Estimate{}, fmt.Errorf("scenario: no tool bound to activity %q", activity)
	}
	p, ok := t.(profiled)
	if !ok {
		return sched.Estimate{}, fmt.Errorf("scenario: tool %s for %q has no profile", t.Instance(), activity)
	}
	prof := p.Profile()
	work := float64(prof.Base) * prof.MeanIterations
	optimistic := float64(prof.Base) * (1 - prof.Jitter)
	pessimistic := float64(prof.Base) * (1 + prof.Jitter) * 2 * prof.MeanIterations
	for _, ns := range []float64{work, optimistic, pessimistic} {
		if !(ns < math.MaxInt64) { // also rejects NaN
			return sched.Estimate{}, fmt.Errorf("scenario: estimate for %q: %gns overflows a duration", activity, ns)
		}
	}
	return sched.Estimate{
		Work:        time.Duration(work),
		Optimistic:  time.Duration(optimistic),
		Pessimistic: time.Duration(pessimistic),
		Basis:       "profile",
	}, nil
}

// Sweep forks m once per edit plus an unedited baseline, applies each
// edit to its fork's tool bindings, then re-plans and re-executes every
// fork concurrently. The parent manager is never written; all forks
// observe the identical parent snapshot.
func Sweep(m *engine.Manager, targets []string, edits []Edit, opt Options) (*Report, error) {
	if m == nil {
		return nil, fmt.Errorf("scenario: nil manager")
	}
	// The task tree is extracted once and shared: it is derived from the
	// schema (identical in every fork) and read-only throughout planning
	// and execution, so per-fork re-extraction inside the worker loop
	// would be pure waste. Edits are validated once here too.
	tree, err := extractTree(m, targets)
	if err != nil {
		return nil, err
	}
	if err := validate(m, tree.Activities(), edits); err != nil {
		return nil, err
	}

	// Fork serially: every fork must branch from the same parent state,
	// and fork creation mutates parent bookkeeping (shared-container
	// marks) that is cheap but not worth contending on.
	runs := make([]run, len(edits)+1)
	runs[0] = run{name: "baseline"}
	for i := range edits {
		runs[i+1] = run{name: edits[i].Name, edit: &edits[i]}
	}
	for i := range runs {
		f, err := m.ForkAtView(opt.BaseView)
		if err != nil {
			return nil, fmt.Errorf("scenario: fork %q: %w", runs[i].name, err)
		}
		// A fork of a faulted project draws from its own fork of the
		// plan (ForkAtView); an edit's Faults replace it.
		runs[i].faults = f.Faults
		if runs[i].edit != nil {
			if err := apply(f, runs[i].edit); err != nil {
				return nil, err
			}
			if cfg := runs[i].edit.Faults; cfg != nil {
				fp, err := fault.NewPlan(*cfg)
				if err != nil {
					return nil, fmt.Errorf("scenario %q: faults: %w", runs[i].name, err)
				}
				if err := fp.WrapRegistry(f.Tools, f.Clock.Now); err != nil {
					return nil, fmt.Errorf("scenario %q: faults: %w", runs[i].name, err)
				}
				runs[i].faults = fp
			}
		}
		// Request-traced sweeps thread the tracer (only — fork metrics
		// would double-count against the parent's registry) into each
		// fork so engine spans land in the request's trace.
		if opt.Parent != nil {
			if tr := opt.Obs.Tracer(); tr != nil {
				f.Instrument(obs.NewWith(nil, tr))
			}
		}
		runs[i].mgr = f
	}

	// Risk dimension: simulate the unedited baseline model once, up
	// front, into the shared memo. Every scenario simulation inside the
	// pool then reuses the baseline's per-subtree trial streams and
	// samples only the subtrees its edit dirtied — bit-identical to the
	// cold simulation each fork would have run alone.
	var riskMemo *monte.Memo
	var warmSampled, warmReused int64
	if opt.Risk != nil {
		riskMemo = opt.Risk.Memo
		if riskMemo == nil {
			riskMemo = monte.NewMemo(0)
		}
		models, err := RiskModels(runs[0].mgr, tree)
		if err != nil {
			return nil, fmt.Errorf("scenario: risk baseline: %w", err)
		}
		warm, err := monte.Simulate(models, monte.Config{
			Trials: opt.Risk.Trials, Seed: opt.Risk.Seed, Workers: opt.Workers,
			Sketch: opt.Risk.Sketch, Memo: riskMemo, Obs: opt.Obs,
			Parent: opt.Parent, VirtNow: m.Clock.Now(), Ctx: opt.Ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: risk baseline: %w", err)
		}
		warmSampled, warmReused = warm.SampledActivityTrials, warm.ReusedActivityTrials
	}

	virtStart := m.Clock.Now()
	outcomes := make([]Outcome, len(runs))
	sampled := make([]int64, len(runs))
	reusedTr := make([]int64, len(runs))
	execErr := par.New(opt.Workers).ForEachErrCtx(opt.Ctx, len(runs), func(i int) error {
		// Live per-scenario span under the request's root, ended at the
		// fork's own (advanced) clock; the parent stretches to cover it.
		var sp *obs.Span
		if opt.Parent != nil {
			sp = opt.Obs.Tracer().Start(opt.Parent, "scenario.run", runs[i].mgr.Clock.Now())
			sp.SetDetail(runs[i].name)
		}
		o, sa, re, err := runOne(runs[i], tree, &opt, riskMemo, sp)
		sp.End(runs[i].mgr.Clock.Now())
		if err != nil {
			return fmt.Errorf("scenario %q: %w", runs[i].name, err)
		}
		outcomes[i], sampled[i], reusedTr[i] = *o, sa, re
		return nil
	})
	if execErr != nil {
		return nil, execErr
	}

	// Deltas are working time on the project calendar, signed.
	base := outcomes[0]
	for i := 1; i < len(outcomes); i++ {
		outcomes[i].Delta = workDelta(m, base.Finish, outcomes[i].Finish)
	}

	record(opt.Obs, opt.Parent, virtStart, outcomes)
	rep := &Report{
		Targets:   append([]string(nil), tree.Targets...),
		Baseline:  base,
		Scenarios: outcomes[1:],
	}
	rep.RiskSampledTrials, rep.RiskReusedTrials = warmSampled, warmReused
	for i := range runs {
		rep.RiskSampledTrials += sampled[i]
		rep.RiskReusedTrials += reusedTr[i]
	}
	return rep, nil
}

// extractTree is a seam over Manager.ExtractTree so tests can pin that
// a sweep extracts the task tree exactly once for the whole run.
var extractTree = func(m *engine.Manager, targets []string) (*flow.Tree, error) {
	return m.ExtractTree(targets...)
}

type run struct {
	name   string
	edit   *Edit // nil for the baseline
	mgr    *engine.Manager
	faults *fault.Plan // the fork's fault plan; nil without one
}

// validate rejects malformed edits before any fork is created.
func validate(m *engine.Manager, inScope []string, edits []Edit) error {
	scope := make(map[string]bool, len(inScope))
	for _, a := range inScope {
		scope[a] = true
	}
	seen := make(map[string]bool, len(edits)+1)
	seen["baseline"] = true
	for i := range edits {
		e := &edits[i]
		if e.Name == "" {
			return fmt.Errorf("scenario: edit %d has no name", i)
		}
		if seen[e.Name] {
			return fmt.Errorf("scenario: duplicate scenario name %q", e.Name)
		}
		seen[e.Name] = true
		for act, factor := range e.Scale {
			if factor <= 0 {
				return fmt.Errorf("scenario %q: scale factor %g for %q must be > 0", e.Name, factor, act)
			}
		}
		for _, act := range e.activities() {
			if !scope[act] {
				return fmt.Errorf("scenario %q: activity %q is not in the task tree", e.Name, act)
			}
			t := m.Tools.For(act)
			if t == nil {
				return fmt.Errorf("scenario %q: no tool bound to activity %q", e.Name, act)
			}
			if _, ok := t.(profiled); !ok {
				return fmt.Errorf("scenario %q: tool %s for %q has no profile to edit", e.Name, t.Instance(), act)
			}
		}
	}
	return nil
}

// Apply commits one edit to a live manager instead of a fork — the
// write-path variant behind `POST /edit`: a designer accepts a what-if
// (say "Simulate will run 1.5× slow from now on") and rebinds the real
// tools accordingly. Faults edits are refused — arming fault injection
// is a separate, explicit surface. The Parallel flag is ignored (it
// describes how a scenario fork executes, not a binding).
func Apply(m *engine.Manager, e Edit) error {
	if e.Faults != nil {
		return fmt.Errorf("scenario %q: fault edits cannot be applied to a live project", e.Name)
	}
	for act, factor := range e.Scale {
		if factor <= 0 {
			return fmt.Errorf("scenario %q: scale factor %g for %q must be > 0", e.Name, factor, act)
		}
	}
	for _, act := range e.activities() {
		t := m.Tools.For(act)
		if t == nil {
			return fmt.Errorf("scenario %q: no tool bound to activity %q", e.Name, act)
		}
		if _, ok := t.(profiled); !ok {
			return fmt.Errorf("scenario %q: tool %s for %q has no profile to edit", e.Name, t.Instance(), act)
		}
	}
	return apply(m, &e)
}

// apply rebinds each perturbed activity's tool in the fork with an
// adjusted profile. The instance name is kept, so the tool's seed — and
// with it iteration counts and output content — is unchanged: an edit
// shifts time, not design behaviour.
func apply(f *engine.Manager, e *Edit) error {
	for _, act := range e.activities() {
		t := f.Tools.For(act)
		p := t.(profiled).Profile()
		base := float64(p.Base)
		if factor, ok := e.Scale[act]; ok {
			base *= factor
		}
		if !(base+float64(e.Delay[act]) < math.MaxInt64) { // also rejects NaN
			return fmt.Errorf("scenario %q: edit %q: runtime %gns overflows a duration", e.Name, act, base)
		}
		p.Base = time.Duration(base) + e.Delay[act]
		edited, err := tools.NewSim(t.Class(), t.Instance(), p)
		if err != nil {
			return fmt.Errorf("scenario %q: edit %q: %w", e.Name, act, err)
		}
		if err := f.BindTool(act, edited); err != nil {
			return fmt.Errorf("scenario %q: rebind %q: %w", e.Name, act, err)
		}
	}
	return nil
}

// runOne plans and executes one fork and analyzes the resulting plan.
// It returns the outcome plus the activity×trial counts its risk
// simulation sampled fresh and reused from the shared memo.
func runOne(r run, tree *flow.Tree, opt *Options, riskMemo *monte.Memo, span *obs.Span) (*Outcome, int64, int64, error) {
	f := r.mgr
	est := opt.Estimator
	if est == nil {
		est = ProfileEstimator{Tools: f.Tools}
	}
	res, err := f.Plan(tree, est, sched.PlanOptions{})
	if err != nil {
		return nil, 0, 0, err
	}
	parallel := r.edit != nil && r.edit.Parallel
	rec := opt.Recovery
	if r.faults != nil && rec.Verify == nil {
		rec.Verify = fault.Check
	}
	exec, err := f.ExecuteTask(tree, engine.ExecOptions{
		Plan: &res.Plan, AutoComplete: true, Parallel: parallel,
		Recovery: rec, TraceParent: span,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	cpm, err := analyze(f, &res.Plan)
	if err != nil {
		return nil, 0, 0, err
	}
	slack := make(map[string]time.Duration, len(cpm.Timings))
	for _, tm := range cpm.Timings {
		slack[tm.Name] = tm.Slack
	}
	o := &Outcome{
		Name:         r.name,
		PlanVersion:  res.Plan.Version,
		PlanFinish:   res.Plan.Finish,
		Finish:       exec.Finished,
		CriticalPath: cpm.CriticalPath,
		Slack:        slack,
		Blocked:      append([]string(nil), exec.Blocked...),
	}
	if r.faults != nil {
		o.FaultsInjected = r.faults.Injected()
	}
	var sampled, reused int64
	if opt.Risk != nil {
		// Workers 1: the sweep pool supplies the parallelism; nesting a
		// full shard pool per fork would only oversubscribe the cores.
		// The model comes from the fork's *edited* registry, so every
		// unedited subtree fingerprints identically to the pre-warmed
		// baseline and is served from the memo.
		models, err := RiskModels(f, tree)
		if err != nil {
			return nil, 0, 0, err
		}
		cfg := monte.Config{
			Trials: opt.Risk.Trials, Seed: opt.Risk.Seed, Workers: 1,
			Sketch: opt.Risk.Sketch, Memo: riskMemo, Ctx: opt.Ctx,
		}
		if span != nil {
			// Traced sweep: the fork's risk spans nest under its live
			// scenario.run span (tracer only — see the fork loop).
			cfg.Obs = obs.NewWith(nil, opt.Obs.Tracer())
			cfg.Parent = span
			cfg.VirtNow = f.Clock.Now()
		}
		rr, err := monte.Simulate(models, cfg)
		if err != nil {
			return nil, 0, 0, err
		}
		o.Risk = &RiskStats{
			Trials: rr.Trials(),
			Mean:   rr.Mean(),
			P10:    rr.Percentile(0.10),
			P50:    rr.Percentile(0.50),
			P90:    rr.Percentile(0.90),
			P95:    rr.Percentile(0.95),
		}
		sampled, reused = rr.SampledActivityTrials, rr.ReusedActivityTrials
	}
	return o, sampled, reused, nil
}

// RiskModels derives the Monte-Carlo activity models for a manager's
// bound simulated tools over one task tree: triangular durations over
// Base±Jitter with the tool's expected iteration count, predecessor
// edges from the schema within the tree. Shared by the facade's
// SimulateRiskWith and the sweep's risk dimension, so the risk analysis
// and the actual execution always share one model.
func RiskModels(m *engine.Manager, tree *flow.Tree) ([]monte.ActivityModel, error) {
	var models []monte.ActivityModel
	for _, act := range tree.Activities() {
		tool := m.Tools.For(act)
		if tool == nil {
			return nil, fmt.Errorf("scenario: no tool bound to %q", act)
		}
		pt, ok := tool.(profiled)
		if !ok {
			return nil, fmt.Errorf("scenario: tool %s bound to %q exposes no profile; bind a simulated tool for risk analysis",
				tool.Instance(), act)
		}
		prof := pt.Profile()
		rule := m.Schema.RuleByActivity(act)
		var preds []string
		for _, in := range rule.Inputs {
			if prod := m.Schema.Producer(in); prod != nil && tree.Contains(prod.Activity) {
				preds = append(preds, prod.Activity)
			}
		}
		min := time.Duration(float64(prof.Base) * (1 - prof.Jitter))
		max := time.Duration(float64(prof.Base) * (1 + prof.Jitter))
		models = append(models, monte.ActivityModel{
			Name: act, Min: min, Mode: prof.Base, Max: max,
			MeanIterations: prof.MeanIterations, Preds: preds,
		})
	}
	return models, nil
}

// analyze runs CPM/PERT over a fork's plan (the facade's Analyze,
// against the fork's spaces).
func analyze(f *engine.Manager, plan *sched.Plan) (*pert.Result, error) {
	_, insts, err := f.Sched.Instances(plan)
	if err != nil {
		return nil, err
	}
	inPlan := make(map[string]bool, len(plan.Activities))
	for _, a := range plan.Activities {
		inPlan[a] = true
	}
	acts := make([]pert.Activity, 0, len(insts))
	for _, in := range insts {
		rule := f.Schema.RuleByActivity(in.Activity)
		var preds []string
		for _, input := range rule.Inputs {
			if prod := f.Schema.Producer(input); prod != nil && inPlan[prod.Activity] {
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

// workDelta returns the signed working time between the baseline finish
// and a scenario finish on the project calendar.
func workDelta(m *engine.Manager, base, finish time.Time) time.Duration {
	if finish.After(base) {
		return m.Calendar.WorkBetween(base, finish)
	}
	return -m.Calendar.WorkBetween(finish, base)
}

// record emits the sweep's observability after the pool has drained:
// spans and counters are recorded serially, in scenario order, so traces
// are deterministic regardless of worker interleaving.
func record(o *obs.Obs, parent *obs.Span, virtStart time.Time, outcomes []Outcome) {
	if o == nil {
		return
	}
	o.Metrics().Counter("scenario_runs_total").Add(int64(len(outcomes)))
	tr := o.Tracer()
	root := tr.Start(parent, "scenario.sweep", virtStart)
	root.Detailf("%d scenarios", len(outcomes))
	last := virtStart
	for i := range outcomes {
		sp := tr.Start(root, "scenario:"+outcomes[i].Name, virtStart)
		sp.Detailf("finish %s plan v%d", outcomes[i].Finish.Format("2006-01-02 15:04"), outcomes[i].PlanVersion)
		sp.End(outcomes[i].Finish)
		if outcomes[i].Finish.After(last) {
			last = outcomes[i].Finish
		}
	}
	root.End(last)
}

// Render formats the sweep as a comparison table: one row per scenario
// with its simulated finish, working-time delta against the baseline,
// and critical path.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "What-if sweep toward %s (baseline plan v%d)\n\n",
		strings.Join(r.Targets, ", "), r.Baseline.PlanVersion)
	rows := append([]Outcome{r.Baseline}, r.Scenarios...)
	nameW := len("scenario")
	for _, o := range rows {
		if len(o.Name) > nameW {
			nameW = len(o.Name)
		}
	}
	fmt.Fprintf(&b, "  %-*s  %-17s  %9s  critical path\n", nameW, "scenario", "finish", "delta")
	for i, o := range rows {
		delta := "-"
		if i > 0 {
			delta = signedDur(o.Delta.Round(time.Minute))
		}
		blocked := ""
		if len(o.Blocked) > 0 {
			blocked = fmt.Sprintf("  [blocked: %s]", strings.Join(o.Blocked, ", "))
		}
		fmt.Fprintf(&b, "  %-*s  %-17s  %9s  %s%s\n", nameW, o.Name,
			o.Finish.Format("2006-01-02 15:04"), delta,
			strings.Join(o.CriticalPath, " > "), blocked)
	}
	return b.String()
}

// signedDur renders a duration with an explicit sign ("+6h0m0s").
func signedDur(d time.Duration) string {
	if d >= 0 {
		return "+" + d.String()
	}
	return d.String()
}
