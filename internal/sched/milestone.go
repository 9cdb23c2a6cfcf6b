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

// milestoneSet is the milestone container decoded once per change
// rather than once per read. The container is a set — every milestone of
// every plan version, each read on every render — while the store keeps
// decoded values for version chains, whose latest entry is the one read
// again: in a durable project it keeps one value per container, so
// every other milestone would be parsed from JSON on each read.
//
// A Space and its AtView copies share one slot holding the latest set.
// A set is valid for a container whose entries are the very *store.Entry
// pointers it was decoded from: entries are immutable and a changed one
// is replaced, so pointer identity is sound across versions, views and
// forks, where a key by store version would miss after every write. A
// set is never modified once published.
type milestoneSet struct {
	entries []*store.Entry // the container's entries, in version order
	ms      []Milestone    // ms[i] is the payload of entries[i]
	// byTarget orders the indices by target date, ties in version order.
	byTarget []int
}

// decodedMilestones returns the set decoded from the container's
// entries, reusing the memo's when its entries are the same, and the
// decoded milestones of any entry it shares with it.
func (s *Space) decodedMilestones(c *store.Container) (*milestoneSet, error) {
	var old *milestoneSet
	if s.ms != nil {
		old = s.ms.Load()
	}
	if old != nil && sameEntries(old.entries, c) {
		return old, nil
	}
	set := &milestoneSet{
		entries:  c.Entries(),
		ms:       make([]Milestone, c.Len()),
		byTarget: make([]int, c.Len()),
	}
	for i, e := range set.entries {
		set.byTarget[i] = i
		if old != nil && i < len(old.entries) && old.entries[i] == e {
			set.ms[i] = old.ms[i]
		} else if err := e.Decode(&set.ms[i]); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(set.byTarget, func(i, j int) bool {
		return set.ms[set.byTarget[i]].Target.Before(set.ms[set.byTarget[j]].Target)
	})
	if s.ms != nil {
		s.ms.Store(set)
	}
	return set, nil
}

// sameEntries reports whether c holds exactly the entries es, in order.
func sameEntries(es []*store.Entry, c *store.Container) bool {
	if len(es) != c.Len() {
		return false
	}
	for i, e := range es {
		if c.At(i) != e {
			return false
		}
	}
	return true
}

// Milestones returns the milestone instances for a plan version, sorted
// by target date (ties in the order they were set). The milestones are
// the caller's to modify.
func (s *Space) Milestones(p *Plan) ([]*store.Entry, []Milestone, error) {
	c := s.Reader().Container(MilestoneContainer)
	if c == nil {
		return nil, nil, nil // none set
	}
	set, err := s.decodedMilestones(c)
	if err != nil {
		return nil, nil, err
	}
	n := 0
	for _, m := range set.ms {
		if m.PlanVersion == p.Version {
			n++
		}
	}
	if n == 0 {
		return nil, nil, nil
	}
	entries := make([]*store.Entry, 0, n)
	ms := make([]Milestone, 0, n)
	for _, i := range set.byTarget {
		if set.ms[i].PlanVersion == p.Version {
			entries = append(entries, set.entries[i])
			ms = append(ms, set.ms[i])
		}
	}
	return entries, ms, nil
}

// RefreshMilestones updates milestone achievement from the plan's
// completion state: a milestone is achieved when the producing activity
// of its class is done, at that activity's actual finish. It returns the
// refreshed milestones. On a view-bound space the achievement is computed
// in memory only — reporting stays correct, nothing is persisted.
func (s *Space) RefreshMilestones(p *Plan) ([]Milestone, error) {
	return s.refreshMilestones(p, new(Instance))
}

// refreshMilestones is RefreshMilestones decoding producers into *in.
func (s *Space) refreshMilestones(p *Plan, in *Instance) ([]Milestone, error) {
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
		if _, err := s.decodeInstance(p, rule.Activity, in); err != nil {
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
	in := new(Instance)
	ms, err := s.refreshMilestones(p, in)
	if err != nil {
		return nil, err
	}
	var out []MilestoneStatus
	if len(ms) > 0 {
		out = make([]MilestoneStatus, 0, len(ms))
	}
	for _, m := range ms {
		row := MilestoneStatus{Milestone: m}
		var ref time.Time
		if m.Achieved {
			ref = m.AchievedAt
		} else {
			rule := s.Schema.Producer(m.Class)
			if _, err := s.decodeInstance(p, rule.Activity, in); err != nil {
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
