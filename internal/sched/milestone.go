package sched

import (
	"fmt"
	"sort"
	"time"

	"flowsched/internal/store"
)

// MilestoneContainer holds the milestone instances of the schedule space.
const MilestoneContainer = "milestone"

// Milestone is the payload of a milestone instance: a named target date
// bound to a data class — the "proposed milestones" of the paper's
// Fig. 1. A milestone is achieved when the activity producing its data
// class completes under the tracked plan.
type Milestone struct {
	Name string `json:"name"`
	// Class is the data class whose final version marks the milestone
	// (e.g. "layout" for a tape-out milestone).
	Class string `json:"class"`
	// Target is the committed date.
	Target time.Time `json:"target"`
	// PlanVersion ties the milestone to the plan it was set against.
	PlanVersion int `json:"planVersion"`
	// Achieved and AchievedAt record completion.
	Achieved   bool      `json:"achieved"`
	AchievedAt time.Time `json:"achievedAt,omitempty"`
}

// ensureMilestones creates the milestone container on first use.
func (s *Space) ensureMilestones() error {
	db, err := s.writable()
	if err != nil {
		return err
	}
	_, err = db.CreateContainer(MilestoneContainer, store.ScheduleSpace, "milestone")
	return err
}

// SetMilestone records a milestone against a plan. The class must be
// produced by an in-plan activity.
func (s *Space) SetMilestone(p *Plan, name, class string, target time.Time) (*store.Entry, error) {
	if name == "" {
		return nil, fmt.Errorf("sched: empty milestone name")
	}
	rule := s.Schema.Producer(class)
	if rule == nil {
		return nil, fmt.Errorf("sched: class %q has no producing activity", class)
	}
	inPlan := false
	for _, a := range p.Activities {
		if a == rule.Activity {
			inPlan = true
			break
		}
	}
	if !inPlan {
		return nil, fmt.Errorf("sched: producer %s of %s is not in plan v%d",
			rule.Activity, class, p.Version)
	}
	if err := s.ensureMilestones(); err != nil {
		return nil, err
	}
	return s.DB.Put(MilestoneContainer, target, Milestone{
		Name: name, Class: class, Target: target, PlanVersion: p.Version,
	})
}

// milestonesWritable reports whether milestone achievement can be persisted
// (false for a view-bound space, where refreshes are computed in memory).
func (s *Space) milestonesWritable() bool { return s.DB != nil }

// Milestones returns the milestone instances for a plan version, sorted
// by target date.
func (s *Space) Milestones(p *Plan) ([]*store.Entry, []Milestone, error) {
	c := s.Reader().Container(MilestoneContainer)
	if c == nil {
		return nil, nil, nil // none set
	}
	// Sort entries and payloads as pairs, so entries[i] stays the entry
	// of ms[i].
	type pair struct {
		e *store.Entry
		m Milestone
	}
	var pairs []pair
	for _, e := range c.Entries {
		var m Milestone
		if err := e.Decode(&m); err != nil {
			return nil, nil, err
		}
		if m.PlanVersion != p.Version {
			continue
		}
		pairs = append(pairs, pair{e, m})
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].m.Target.Before(pairs[j].m.Target) })
	var entries []*store.Entry
	var ms []Milestone
	for _, pr := range pairs {
		entries = append(entries, pr.e)
		ms = append(ms, pr.m)
	}
	return entries, ms, nil
}

// RefreshMilestones updates milestone achievement from the plan's
// completion state: a milestone is achieved when the producing activity
// of its class is done, at that activity's actual finish. It returns the
// refreshed milestones. On a view-bound space the achievement is computed
// in memory only — reporting stays correct, nothing is persisted.
func (s *Space) RefreshMilestones(p *Plan) ([]Milestone, error) {
	entries, ms, err := s.Milestones(p)
	if err != nil {
		return nil, err
	}
	for i := range ms {
		if ms[i].Achieved {
			continue
		}
		rule := s.Schema.Producer(ms[i].Class)
		if rule == nil {
			continue
		}
		_, in, err := s.Instance(p, rule.Activity)
		if err != nil {
			return nil, err
		}
		if in.Done {
			ms[i].Achieved = true
			ms[i].AchievedAt = in.ActualFinish
			if s.milestonesWritable() {
				if err := s.DB.SetPayload(entries[i].ID, ms[i]); err != nil {
					return nil, err
				}
			}
		}
	}
	return ms, nil
}

// MilestoneStatus is one row of a milestone report.
type MilestoneStatus struct {
	Milestone
	// Margin is the working time between (projected or actual) completion
	// and the target: positive = ahead, negative = late.
	Margin time.Duration
}

// MilestoneReport refreshes and scores every milestone of a plan. For an
// unachieved milestone the producing activity's current planned finish is
// the projection.
func (s *Space) MilestoneReport(p *Plan) ([]MilestoneStatus, error) {
	ms, err := s.RefreshMilestones(p)
	if err != nil {
		return nil, err
	}
	var out []MilestoneStatus
	for _, m := range ms {
		row := MilestoneStatus{Milestone: m}
		var ref time.Time
		if m.Achieved {
			ref = m.AchievedAt
		} else {
			rule := s.Schema.Producer(m.Class)
			_, in, err := s.Instance(p, rule.Activity)
			if err != nil {
				return nil, err
			}
			ref = in.PlannedFinish
		}
		if ref.After(m.Target) {
			row.Margin = -s.Calendar.WorkBetween(m.Target, ref)
		} else {
			row.Margin = s.Calendar.WorkBetween(ref, m.Target)
		}
		out = append(out, row)
	}
	return out, nil
}
