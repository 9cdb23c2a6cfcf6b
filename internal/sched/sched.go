// Package sched implements the paper's primary contribution: the design
// schedule model, integrated at Level 3 of the flow-management
// architecture.
//
// A design schedule is derived by *simulating the execution of a flow*
// (paper §III): planning performs the same post-order traversal of the task
// tree that execution does, but instead of running tools it creates
// *schedule instances* — one per activity — recording who should perform
// the activity, when it should start, and how long it should take. The
// schedule instances mirror the entity instances of the execution space
// (Fig. 3): a Plan in the schedule space corresponds to a Run in the
// execution space, schedule instances correspond to entity instances.
//
// A plan can be recreated at any time; each planning pass appends new
// versions of the schedule instances (Fig. 5 shows containers holding
// CC1/CC2 and SC1/SC2 after two passes). Tracking links schedule instances
// to the entity instances that complete their tasks (Fig. 7) and
// propagates slips through the remaining plan automatically (§IV.C).
package sched

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"flowsched/internal/flow"
	"flowsched/internal/schema"
	"flowsched/internal/store"
	"flowsched/internal/vclock"
)

// Container returns the schedule-space container name for an activity.
func Container(activity string) string { return "sched:" + activity }

// PlanContainer is the container holding one instance per planning pass,
// the schedule-space analogue of a Run.
const PlanContainer = "schedule"

// Instance is the payload of a schedule instance: the Level 3 schedule
// data for one activity under one plan version. Quoting §III: "if Level 3
// design metadata describes when an activity is performed and by whom,
// Level 3 schedule data ought to describe when an activity should be
// performed and which person or persons are assigned the task."
type Instance struct {
	Activity    string `json:"activity"`
	PlanVersion int    `json:"planVersion"`
	// Resources are the persons (or machines) assigned to the activity.
	Resources []string `json:"resources,omitempty"`
	// EstWork is the estimated working time for the activity, including
	// expected iteration.
	EstWork time.Duration `json:"estWork"`
	// Optimistic/Pessimistic are the PERT three-point bounds on EstWork
	// (zero when the estimation basis does not provide them).
	Optimistic  time.Duration `json:"optimistic,omitempty"`
	Pessimistic time.Duration `json:"pessimistic,omitempty"`
	// Basis names the estimation strategy that produced EstWork.
	Basis string `json:"basis"`
	// PlannedStart/PlannedFinish are the simulated execution dates.
	PlannedStart  time.Time `json:"plannedStart"`
	PlannedFinish time.Time `json:"plannedFinish"`
	// ActualStart is set when the first data instance for the task is
	// created (§IV.C); ActualFinish when the designer marks the task
	// complete.
	ActualStart  time.Time `json:"actualStart,omitempty"`
	ActualFinish time.Time `json:"actualFinish,omitempty"`
	// Done reports task completion; LinkedEntity is the ID of the final
	// entity instance linked to this schedule instance.
	Done         bool   `json:"done"`
	LinkedEntity string `json:"linkedEntity,omitempty"`
	// Blocked marks an activity whose execution exhausted its recovery
	// policy (or whose producer did): it is fenced off, its dates keep
	// slipping with `now` until it is re-executed. BlockedWhy records the
	// cause for status surfaces.
	Blocked    bool   `json:"blocked,omitempty"`
	BlockedWhy string `json:"blockedWhy,omitempty"`
}

// Started reports whether the activity has begun executing.
func (in *Instance) Started() bool { return !in.ActualStart.IsZero() }

// Plan is the payload of one planning pass over a task tree. Its BasedOn
// field records plan lineage — the schedule *metadata* the paper's §IV.B
// queries ("which schedule plans were used to create the present plan").
type Plan struct {
	Version   int       `json:"version"`
	Targets   []string  `json:"targets"`
	Start     time.Time `json:"start"`
	CreatedAt time.Time `json:"createdAt"`
	// Activities in post order, with their schedule instance IDs.
	Activities []string          `json:"activities"`
	Instances  map[string]string `json:"instances"` // activity -> entry ID
	// BasedOn are the plan entry IDs this plan was derived from.
	BasedOn []string `json:"basedOn,omitempty"`
	// Finish is the planned project completion (max planned finish).
	Finish time.Time `json:"finish"`
	// ResourceConstrained records whether the plan serialized activities
	// sharing a resource; slip propagation honors the same discipline.
	ResourceConstrained bool `json:"resourceConstrained,omitempty"`
}

// Clone returns a copy of p that shares no slice or map with it.
func (p *Plan) Clone() *Plan {
	c := *p
	c.Targets = slices.Clone(p.Targets)
	c.Activities = slices.Clone(p.Activities)
	c.BasedOn = slices.Clone(p.BasedOn)
	c.Instances = maps.Clone(p.Instances)
	return &c
}

// Space is the schedule space of a task database for one schema.
//
// A Space is normally bound to a live *store.DB and supports both reads and
// writes. AtView rebinds it to an immutable snapshot: reads then answer
// from a consistent moment of the database and every write method fails.
type Space struct {
	// DB is the write target; nil for a view-bound (read-only) space.
	DB       *store.DB
	Schema   *schema.Schema
	Calendar *vclock.Calendar

	// rd overrides the read source when view-bound; nil means read the DB.
	rd store.Reader
	// ms holds the decoded milestone container, shared with the space's
	// AtView copies (see milestoneSet); nil decodes on every read.
	ms *atomic.Pointer[milestoneSet]
}

// Reader returns the space's read source: the bound snapshot for a
// view-bound space, otherwise the live database.
func (s *Space) Reader() store.Reader {
	if s.rd != nil {
		return s.rd
	}
	return s.DB
}

// AtView returns a read-only copy of the space whose queries execute
// against the snapshot v. Write methods (Plan, MarkStarted, Complete,
// Propagate, SetMilestone, …) return an error on the returned space.
func (s *Space) AtView(v *store.View) *Space {
	return &Space{Schema: s.Schema, Calendar: s.Calendar, rd: v, ms: s.ms}
}

// WithDB returns a copy of the space bound to db for reads and writes,
// without validating the schema or creating containers again: db must
// already hold the space's containers, as a fork of the space's
// database does. The copy starts from the milestones the space has
// decoded and keeps its own from then on.
func (s *Space) WithDB(db *store.DB) *Space {
	ms := new(atomic.Pointer[milestoneSet])
	if s.ms != nil {
		ms.Store(s.ms.Load())
	}
	return &Space{DB: db, Schema: s.Schema, Calendar: s.Calendar, ms: ms}
}

// writable returns the live DB, or an error for a view-bound space.
func (s *Space) writable() (*store.DB, error) {
	if s.DB == nil {
		return nil, fmt.Errorf("sched: space is bound to a read-only view")
	}
	return s.DB, nil
}

// NewSpace initializes the schedule space. As §IV.A requires, containers
// are created from the task schema — one per activity (construction-rule
// function) plus the plan container — and Level 1/2 data is untouched.
func NewSpace(db *store.DB, sch *schema.Schema, cal *vclock.Calendar) (*Space, error) {
	if err := sch.Validate(); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	if cal == nil {
		return nil, fmt.Errorf("sched: nil calendar")
	}
	if _, err := db.CreateContainer(PlanContainer, store.ScheduleSpace, "plan"); err != nil {
		return nil, err
	}
	for _, r := range sch.Rules() {
		if _, err := db.CreateContainer(Container(r.Activity), store.ScheduleSpace, r.Activity); err != nil {
			return nil, err
		}
	}
	return &Space{DB: db, Schema: sch, Calendar: cal, ms: new(atomic.Pointer[milestoneSet])}, nil
}

// PlanOptions tunes a planning pass.
type PlanOptions struct {
	// Assignments maps activities to assigned resources. Activities
	// without an entry get no resource (allowed: estimation still works).
	Assignments map[string][]string
	// ResourceConstrained serializes activities sharing a resource: an
	// activity cannot start before all its resources are free.
	ResourceConstrained bool
	// BasedOn records the plan entry IDs this plan derives from; the new
	// plan entry also gets store dependencies on them.
	BasedOn []string
}

// PlanResult pairs a created plan with its entry.
type PlanResult struct {
	Entry *store.Entry
	Plan  Plan
}

// Plan simulates the execution of the task tree starting at start,
// creating one new schedule instance per in-scope activity and a new plan
// version. The simulation walks the tree in post order — exactly the
// traversal Execute performs — computing planned dates on the calendar:
// an activity starts when its last in-scope producer finishes (and, under
// ResourceConstrained, when its resources are free), and finishes after
// its estimated working time.
func (s *Space) Plan(tree *flow.Tree, start time.Time, est Estimator, opt PlanOptions) (*PlanResult, error) {
	if tree == nil {
		return nil, fmt.Errorf("sched: nil task tree")
	}
	if est == nil {
		return nil, fmt.Errorf("sched: nil estimator")
	}
	db, err := s.writable()
	if err != nil {
		return nil, err
	}
	for _, b := range opt.BasedOn {
		e := db.Get(b)
		if e == nil || e.Container != PlanContainer {
			return nil, fmt.Errorf("sched: basedOn %q is not a plan entry", b)
		}
	}
	version := db.Container(PlanContainer).Len() + 1
	finishOf := make(map[string]time.Time) // activity -> planned finish
	resFree := make(map[string]time.Time)  // resource -> free at
	instIDs := make(map[string]string)
	projectFinish := start

	for _, act := range tree.Activities() {
		rule := s.Schema.RuleByActivity(act)
		e, err := est.Estimate(act, rule)
		if err != nil {
			return nil, fmt.Errorf("sched: estimate %s: %w", act, err)
		}
		if e.Work <= 0 {
			return nil, fmt.Errorf("sched: estimate for %s is non-positive (%v)", act, e.Work)
		}
		earliest := start
		for _, pred := range tree.Graph.Predecessors(act) {
			if tree.Contains(pred) && finishOf[pred].After(earliest) {
				earliest = finishOf[pred]
			}
		}
		resources := opt.Assignments[act]
		if opt.ResourceConstrained {
			for _, r := range resources {
				if resFree[r].After(earliest) {
					earliest = resFree[r]
				}
			}
		}
		ps := s.Calendar.NextWorkInstant(earliest)
		pf := s.Calendar.AddWork(ps, e.Work)
		finishOf[act] = pf
		if opt.ResourceConstrained {
			for _, r := range resources {
				resFree[r] = pf
			}
		}
		if pf.After(projectFinish) {
			projectFinish = pf
		}
		entry, err := db.Put(Container(act), start, Instance{
			Activity: act, PlanVersion: version,
			Resources: append([]string(nil), resources...),
			EstWork:   e.Work, Optimistic: e.Optimistic, Pessimistic: e.Pessimistic,
			Basis:        e.Basis,
			PlannedStart: ps, PlannedFinish: pf,
		})
		if err != nil {
			return nil, err
		}
		instIDs[act] = entry.ID
	}

	p := Plan{
		Version: version, Targets: append([]string(nil), tree.Targets...),
		Start: start, CreatedAt: start,
		Activities: tree.Activities(), Instances: instIDs,
		BasedOn:             append([]string(nil), opt.BasedOn...),
		Finish:              projectFinish,
		ResourceConstrained: opt.ResourceConstrained,
	}
	entry, err := db.Put(PlanContainer, start, p, opt.BasedOn...)
	if err != nil {
		return nil, err
	}
	// The store keeps p's slices and map (and, without a commit hook,
	// marshals them only later), so the caller gets its own.
	return &PlanResult{Entry: entry, Plan: *p.Clone()}, nil
}

// CurrentPlan returns the latest plan, or nil if none has been created.
func (s *Space) CurrentPlan() (*store.Entry, *Plan, error) {
	c := s.Reader().Container(PlanContainer)
	if c == nil {
		return nil, nil, fmt.Errorf("sched: schedule space not initialized")
	}
	e := c.Latest()
	if e == nil {
		return nil, nil, nil
	}
	var p Plan
	if err := e.Decode(&p); err != nil {
		return nil, nil, err
	}
	return e, &p, nil
}

// PlanByVersion returns the plan with the given version.
func (s *Space) PlanByVersion(version int) (*store.Entry, *Plan, error) {
	e := s.Reader().Get(PlanContainer + "/" + strconv.Itoa(version))
	if e == nil {
		return nil, nil, fmt.Errorf("sched: no plan version %d", version)
	}
	var p Plan
	if err := e.Decode(&p); err != nil {
		return nil, nil, err
	}
	return e, &p, nil
}

// Instance returns the schedule instance of an activity under a plan.
func (s *Space) Instance(p *Plan, activity string) (*store.Entry, *Instance, error) {
	in := new(Instance)
	e, err := s.decodeInstance(p, activity, in)
	if err != nil {
		return nil, nil, err
	}
	return e, in, nil
}

// decodeInstance is Instance decoding into *in, so that a pass over
// many instances can reuse one.
func (s *Space) decodeInstance(p *Plan, activity string, in *Instance) (*store.Entry, error) {
	id, ok := p.Instances[activity]
	if !ok {
		return nil, fmt.Errorf("sched: activity %q not in plan version %d", activity, p.Version)
	}
	e := s.Reader().Get(id)
	if e == nil {
		return nil, fmt.Errorf("sched: dangling instance %q", id)
	}
	if err := e.Decode(in); err != nil {
		return nil, err
	}
	return e, nil
}

// Instances returns all schedule instances of a plan in post order.
func (s *Space) Instances(p *Plan) ([]*store.Entry, []Instance, error) {
	entries := make([]*store.Entry, len(p.Activities))
	insts := make([]Instance, len(p.Activities))
	for i, act := range p.Activities {
		e, err := s.decodeInstance(p, act, &insts[i])
		if err != nil {
			return nil, nil, err
		}
		entries[i] = e
	}
	return entries, insts, nil
}

// History returns every schedule instance ever created for an activity, in
// version order — the raw material for §IV.B's schedule-data queries.
func (s *Space) History(activity string) ([]*store.Entry, []Instance, error) {
	c := s.Reader().Container(Container(activity))
	if c == nil {
		return nil, nil, fmt.Errorf("sched: unknown activity %q", activity)
	}
	entries := c.Entries()
	insts := make([]Instance, len(entries))
	for i, e := range entries {
		if err := e.Decode(&insts[i]); err != nil {
			return nil, nil, err
		}
	}
	return entries, insts, nil
}

// Lineage returns the ancestor chain of a plan entry (the plans it was
// based on, transitively), oldest first — §IV.B's schedule-metadata query
// "show the evolution of a design schedule".
func (s *Space) Lineage(planID string) ([]string, error) {
	e := s.Reader().Get(planID)
	if e == nil || e.Container != PlanContainer {
		return nil, fmt.Errorf("sched: %q is not a plan entry", planID)
	}
	var chain []string
	seen := map[string]bool{planID: true}
	var walk func(id string) error
	walk = func(id string) error {
		entry := s.Reader().Get(id)
		var p Plan
		if err := entry.Decode(&p); err != nil {
			return err
		}
		for _, parent := range p.BasedOn {
			if seen[parent] {
				continue
			}
			seen[parent] = true
			if err := walk(parent); err != nil {
				return err
			}
			chain = append(chain, parent)
		}
		return nil
	}
	if err := walk(planID); err != nil {
		return nil, err
	}
	return chain, nil
}
