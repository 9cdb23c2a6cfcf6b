package engine

import (
	"flowsched/internal/store"
	"flowsched/internal/vclock"
)

// Fork branches an independent child manager off the manager's current
// state: the task database is forked copy-on-write (O(containers); a
// write copies at most the 64-entry chunk it touches), the Level 4
// design store is forked aliasing its immutable objects, tool bindings
// are cloned (onto a fork of the armed fault plan, if any), the clock
// starts at the parent's current virtual time, and the event stream
// is shared, not copied: the child reads the parent's history in place
// and appends its own events after it, so forking costs the same however
// long the history is. Schema, flow graph, and calendar are shared — they
// are immutable configuration.
//
// Parent and child never see each other's subsequent writes, which makes a
// fork the substrate for what-if exploration: re-plan or re-execute the
// child under different assumptions, compare, discard. The child is
// uninstrumented; call Instrument to attach its own observability.
func (m *Manager) Fork() (*Manager, error) { return m.ForkAtView(nil) }

// ForkAtView is Fork pinned to a snapshot: the child branches from the
// moment v captured instead of the live head, so several forks taken
// while the parent keeps executing all observe the identical Level 3
// state — what a snapshot-consistent what-if sweep needs. A nil view
// forks the current state (plain Fork). The view pins the task database
// only: the child's event stream and clock are the parent's as of the
// ForkAtView call, not as of v.
//
// The child's spaces are the parent's rebound to the forked database:
// the parent validated the schema and created every space container
// when it was made, and the fork holds them all.
func (m *Manager) ForkAtView(v *store.View) (*Manager, error) {
	db := m.DB.ForkAt(v)
	f := &Manager{
		Schema: m.Schema, Graph: m.Graph, DB: db, Data: m.Data.Fork(),
		Exec: m.Exec.WithDB(db), Sched: m.Sched.WithDB(db), Tools: m.Tools.Clone(),
		Clock: vclock.NewAt(m.Clock.Now()), Calendar: m.Calendar,
		Designer: m.Designer,
		ev:       m.ev.fork(),
	}
	if m.Faults != nil {
		// The fork draws its faults from its own copy of the plan, on its
		// own clock, so it never advances the parent's fault streams.
		f.Faults = m.Faults.Fork()
		f.Faults.Rebind(f.Tools, f.Clock.Now)
	}
	return f, nil
}

// AtView returns a read-only shallow copy of the manager whose schedule
// and execution spaces answer against the snapshot v — every report or
// query that takes a *Manager can run against a consistent moment of the
// database while the original keeps executing. A nil view snapshots the
// current state. Write paths on the returned manager's spaces fail;
// Clock, Tools, and the event stream are shared with the original.
func (m *Manager) AtView(v *store.View) *Manager {
	if v == nil {
		v = m.DB.Snapshot()
	}
	c := *m
	c.Sched = m.Sched.AtView(v)
	c.Exec = m.Exec.AtView(v)
	return &c
}
