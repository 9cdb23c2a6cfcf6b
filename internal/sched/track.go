package sched

import (
	"fmt"
	"time"
)

// MarkStarted records the actual start of an activity under a plan: "once
// a data instance for the particular task is created, the actual start
// date for the task is set" (§IV.C). Marking an already-started activity
// is a no-op, since only the *first* data instance sets the date.
func (s *Space) MarkStarted(p *Plan, activity string, at time.Time) error {
	db, err := s.writable()
	if err != nil {
		return err
	}
	e, in, err := s.Instance(p, activity)
	if err != nil {
		return err
	}
	if in.Done {
		return fmt.Errorf("sched: activity %s already complete", activity)
	}
	if in.Started() && !in.Blocked {
		return nil
	}
	if !in.Started() {
		in.ActualStart = at
	}
	// A blocked activity producing data again is recovering.
	in.Blocked = false
	in.BlockedWhy = ""
	return db.SetPayload(e.ID, in)
}

// Complete marks an activity done: the designer has verified that the
// task's objectives are met and designates entityID as the final design
// data. The schedule instance records the actual finish and is *linked*
// to the entity instance (Fig. 7); the link is bidirectional in the
// database, so schedule queries reach design metadata and vice versa.
func (s *Space) Complete(p *Plan, activity, entityID string, at time.Time) error {
	db, err := s.writable()
	if err != nil {
		return err
	}
	e, in, err := s.Instance(p, activity)
	if err != nil {
		return err
	}
	if in.Done {
		return fmt.Errorf("sched: activity %s already complete", activity)
	}
	ent := db.Get(entityID)
	if ent == nil {
		return fmt.Errorf("sched: entity instance %q does not exist", entityID)
	}
	rule := s.Schema.RuleByActivity(activity)
	if rule != nil && ent.Container != rule.Output {
		return fmt.Errorf("sched: entity %s is a %s instance, but activity %s produces %s",
			entityID, ent.Container, activity, rule.Output)
	}
	if !in.Started() {
		in.ActualStart = at
	}
	if at.Before(in.ActualStart) {
		return fmt.Errorf("sched: completion %v precedes actual start %v", at, in.ActualStart)
	}
	in.ActualFinish = at
	in.Done = true
	in.LinkedEntity = entityID
	in.Blocked = false
	in.BlockedWhy = ""
	if err := db.SetPayload(e.ID, in); err != nil {
		return err
	}
	return db.Link(e.ID, entityID)
}

// MarkBlocked records that an activity's execution exhausted its
// recovery policy (or that a producer's did, fencing this one too). A
// blocked activity is not done — its dates keep slipping with `now` on
// every Propagate until a later execution clears the blockage by
// completing it. Blocking an already-complete activity is rejected.
func (s *Space) MarkBlocked(p *Plan, activity, why string, at time.Time) error {
	db, err := s.writable()
	if err != nil {
		return err
	}
	e, in, err := s.Instance(p, activity)
	if err != nil {
		return err
	}
	if in.Done {
		return fmt.Errorf("sched: activity %s already complete, cannot block", activity)
	}
	in.Blocked = true
	in.BlockedWhy = why
	return db.SetPayload(e.ID, in)
}

// Propagate updates the current plan's dates to reflect reality as of
// now: completed activities contribute their actual finishes, running or
// pending activities are re-simulated forward from max(predecessor
// finish, now). This is the automatic plan update of §IV.C — "if any slip
// in the schedule occurs, the schedule plan updates automatically to
// reflect the new schedule." It returns the new projected project finish.
//
// The single forward pass requires p.Activities in topological order
// (every in-plan predecessor before its consumer — the post order Plan
// produces). A violating plan is rejected loudly rather than silently
// treating an unvisited predecessor as finishing at the zero time.
func (s *Space) Propagate(p *Plan, now time.Time) (time.Time, error) {
	db, err := s.writable()
	if err != nil {
		return time.Time{}, err
	}
	if err := s.checkTopoOrder(p); err != nil {
		return time.Time{}, err
	}
	effFinish := make(map[string]time.Time)
	resFree := make(map[string]time.Time)
	inPlan := planSet(p)
	projected := p.Start
	in := new(Instance) // SetPayload keeps a copy of it
	for _, act := range p.Activities {
		e, err := s.decodeInstance(p, act, in)
		if err != nil {
			return time.Time{}, err
		}
		if in.Done {
			effFinish[act] = in.ActualFinish
			if p.ResourceConstrained {
				for _, r := range in.Resources {
					if in.ActualFinish.After(resFree[r]) {
						resFree[r] = in.ActualFinish
					}
				}
			}
			if in.ActualFinish.After(projected) {
				projected = in.ActualFinish
			}
			continue
		}
		earliest := p.Start
		for _, pred := range s.producersIn(inPlan, act) {
			if effFinish[pred].After(earliest) {
				earliest = effFinish[pred]
			}
		}
		if p.ResourceConstrained {
			for _, r := range in.Resources {
				if resFree[r].After(earliest) {
					earliest = resFree[r]
				}
			}
		}
		oldStart, oldFinish := in.PlannedStart, in.PlannedFinish
		if in.Started() {
			// A running task keeps its actual start; its finish cannot lie
			// in the past, so slips surface as soon as `now` passes the
			// original planned finish without completion.
			in.PlannedStart = in.ActualStart
			pf := s.Calendar.AddWork(in.ActualStart, in.EstWork)
			if lower := s.Calendar.NextWorkInstant(now); lower.After(pf) {
				pf = lower
			}
			in.PlannedFinish = pf
		} else {
			if now.After(earliest) {
				earliest = now
			}
			in.PlannedStart = s.Calendar.NextWorkInstant(earliest)
			in.PlannedFinish = s.Calendar.AddWork(in.PlannedStart, in.EstWork)
		}
		effFinish[act] = in.PlannedFinish
		if p.ResourceConstrained {
			for _, r := range in.Resources {
				if in.PlannedFinish.After(resFree[r]) {
					resFree[r] = in.PlannedFinish
				}
			}
		}
		if in.PlannedFinish.After(projected) {
			projected = in.PlannedFinish
		}
		// No slip, no write: an unchanged instance would marshal the
		// bytes it already has.
		if marshalsEqual(oldStart, in.PlannedStart) && marshalsEqual(oldFinish, in.PlannedFinish) {
			continue
		}
		if err := db.SetPayload(e.ID, in); err != nil {
			return time.Time{}, err
		}
	}
	// Persist the new projected finish on the plan entry.
	planEntry, plan, err := s.PlanByVersion(p.Version)
	if err != nil {
		return time.Time{}, err
	}
	if !marshalsEqual(plan.Finish, projected) {
		plan.Finish = projected
		if err := db.SetPayload(planEntry.ID, plan); err != nil {
			return time.Time{}, err
		}
	}
	p.Finish = projected
	return projected, nil
}

// marshalsEqual reports whether a and b marshal to the same JSON: the same
// instant at the same zone offset, which is all RFC 3339 prints.
func marshalsEqual(a, b time.Time) bool {
	_, ao := a.Zone()
	_, bo := b.Zone()
	return a.Equal(b) && ao == bo
}

// checkTopoOrder verifies the traversal-order invariant Propagate's
// single forward pass depends on: every in-plan predecessor of an
// activity appears earlier in p.Activities. Plan emits activities in
// dependency post order, so a violation means the plan was corrupted
// (or hand-built) and must not be propagated — the pass would read the
// unvisited predecessor's effective finish as the zero time and pull
// its consumers arbitrarily early.
func (s *Space) checkTopoOrder(p *Plan) error {
	pos := make(map[string]int, len(p.Activities))
	for i, a := range p.Activities {
		pos[a] = i
	}
	inPlan := planSet(p)
	for i, act := range p.Activities {
		for _, pred := range s.producersIn(inPlan, act) {
			if pos[pred] > i {
				return fmt.Errorf("sched: plan v%d is not topologically ordered: %s (position %d) precedes its predecessor %s (position %d)",
					p.Version, act, i, pred, pos[pred])
			}
		}
	}
	return nil
}

// planSet returns the set of p's activities.
func planSet(p *Plan) map[string]bool {
	inPlan := make(map[string]bool, len(p.Activities))
	for _, a := range p.Activities {
		inPlan[a] = true
	}
	return inPlan
}

// predecessorsIn returns the in-plan producer activities of act. A pass
// over many activities builds planSet once and calls producersIn.
func predecessorsIn(p *Plan, s *Space, act string) []string {
	return s.producersIn(planSet(p), act)
}

// producersIn returns the producer activities of act that are in inPlan
// (see planSet).
func (s *Space) producersIn(inPlan map[string]bool, act string) []string {
	rule := s.Schema.RuleByActivity(act)
	if rule == nil {
		return nil
	}
	var out []string
	for _, in := range rule.Inputs {
		if prod := s.Schema.Producer(in); prod != nil && inPlan[prod.Activity] {
			out = append(out, prod.Activity)
		}
	}
	return out
}

// State classifies an activity's progress.
type State string

const (
	Pending    State = "pending"
	InProgress State = "in-progress"
	Done       State = "done"
	// Blocked marks an activity fenced off after exhausting its recovery
	// policy; its slip keeps growing with `now` until re-execution
	// completes it.
	Blocked State = "blocked"
)

// ActivityStatus is one row of a plan status report: proposed schedule
// beside accomplished schedule, the two series a Gantt chart displays
// (§IV.B).
type ActivityStatus struct {
	Activity      string
	State         State
	Resources     []string
	PlannedStart  time.Time
	PlannedFinish time.Time
	ActualStart   time.Time
	ActualFinish  time.Time
	// Slip is the working time by which the activity's (actual or
	// currently projected) finish exceeds zero slip against the plan
	// version's original intent; negative means ahead of schedule is not
	// reported (clamped to zero).
	Slip time.Duration
}

// Status reports the per-activity plan-vs-actual state of a plan as of
// now. Slip for a finished activity compares actual to planned finish;
// for an unfinished one it compares the projected finish (planned finish
// after Propagate) with `now` pressure applied by the caller beforehand.
func (s *Space) Status(p *Plan, now time.Time) ([]ActivityStatus, error) {
	var out []ActivityStatus
	in := new(Instance)
	for _, act := range p.Activities {
		if _, err := s.decodeInstance(p, act, in); err != nil {
			return nil, err
		}
		st := ActivityStatus{
			Activity: act, Resources: in.Resources,
			PlannedStart: in.PlannedStart, PlannedFinish: in.PlannedFinish,
			ActualStart: in.ActualStart, ActualFinish: in.ActualFinish,
		}
		switch {
		case in.Done:
			st.State = Done
			st.Slip = s.Calendar.WorkBetween(in.PlannedFinish, in.ActualFinish)
		case in.Blocked:
			st.State = Blocked
			st.Slip = s.Calendar.WorkBetween(in.PlannedFinish, now)
		case in.Started():
			st.State = InProgress
			st.Slip = s.Calendar.WorkBetween(in.PlannedFinish, now)
		default:
			st.State = Pending
			st.Slip = s.Calendar.WorkBetween(in.PlannedFinish, now)
		}
		out = append(out, st)
	}
	return out, nil
}
