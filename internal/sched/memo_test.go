package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"flowsched/internal/store"
)

// durableTracked is newTracked over a database with a commit hook: from
// then on only a container's latest entry keeps its decoded value, as in
// a durable project, so every other milestone has to be parsed from JSON
// unless the space's memo holds it.
func durableTracked(t *testing.T) *trackedFixture {
	t.Helper()
	fx := newTracked(t)
	fx.space.DB.SetCommitHook(func(store.Mutation) {})
	return fx
}

// setMilestones sets n milestones on the fixture's plan, alternating
// between the two produced classes.
func setMilestones(t *testing.T, sp *Space, p *Plan, prefix string, n int) {
	t.Helper()
	classes := []string{"netlist", "performance"}
	for i := 0; i < n; i++ {
		target := t0.Add(time.Duration(24*(n-i)) * time.Hour)
		if _, err := sp.SetMilestone(p, fmt.Sprintf("%s%d", prefix, i), classes[i%2], target); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMilestonesDecodedOncePerChange: once a render has decoded the
// milestone container, later renders of a durable project parse no
// milestone JSON until the container changes, a write elsewhere (a
// propagate) keeps the decoded set, and a changed container is seen.
func TestMilestonesDecodedOncePerChange(t *testing.T) {
	fx := durableTracked(t)
	sp := fx.space
	const n = 24
	setMilestones(t, sp, &fx.plan, "m", n)
	v := sp.AtView(sp.DB.Snapshot())
	if rows, err := v.MilestoneReport(&fx.plan); err != nil || len(rows) != n {
		t.Fatalf("first report: %d rows, %v", len(rows), err)
	}
	set := sp.ms.Load()
	if set == nil || len(set.ms) != n {
		t.Fatalf("no decoded set after the first render: %+v", set)
	}
	// Parsing a milestone allocates; a render that parses none
	// allocates a fixed handful, however many milestones there are.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := v.MilestoneReport(&fx.plan); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= n/2 {
		t.Fatalf("a repeated report of %d milestones allocates %.0f times: the milestones are decoded again", n, allocs)
	}
	// A propagate rewrites every schedule instance but no milestone.
	if _, err := sp.Propagate(&fx.plan, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.AtView(sp.DB.Snapshot()).MilestoneReport(&fx.plan); err != nil {
		t.Fatal(err)
	}
	if sp.ms.Load() != set {
		t.Fatal("a write that left the milestones alone discarded the decoded set")
	}
	setMilestones(t, sp, &fx.plan, "late", 1)
	rows, err := sp.AtView(sp.DB.Snapshot()).MilestoneReport(&fx.plan)
	if err != nil || len(rows) != n+1 || rows[1].Name != "late0" { // after m23, set first for the same date
		t.Fatalf("after a new milestone: %d rows, %v", len(rows), err)
	}
	// The view taken before it still answers from its own moment.
	if rows, err := v.MilestoneReport(&fx.plan); err != nil || len(rows) != n {
		t.Fatalf("older view: %d rows, %v", len(rows), err)
	}
}

// TestMilestonesReturnCopies: RefreshMilestones marks milestones
// achieved in the slice Milestones returns, which must not reach the
// decoded set the next render reads.
func TestMilestonesReturnCopies(t *testing.T) {
	fx := durableTracked(t)
	setMilestones(t, fx.space, &fx.plan, "m", 2)
	v := fx.space.AtView(fx.space.DB.Snapshot())
	_, ms, err := v.Milestones(&fx.plan)
	if err != nil || len(ms) != 2 {
		t.Fatalf("milestones = %v, %v", ms, err)
	}
	ms[0].Achieved, ms[0].Name = true, "scribbled"
	_, again, err := v.Milestones(&fx.plan)
	if err != nil || again[0].Achieved || again[0].Name == "scribbled" {
		t.Fatalf("a caller's change reached the decoded set: %+v", again[0])
	}
}

// TestMilestoneMemoForkIsolation: a fork and its parent that set
// different milestones at the same store version — the same entry ID
// in both — each see only their own, through a fork's own memo and
// even through one shared slot: the memo is keyed by entry identity,
// not by version.
func TestMilestoneMemoForkIsolation(t *testing.T) {
	fx := durableTracked(t)
	parent := fx.space
	setMilestones(t, parent, &fx.plan, "base", 2)
	if _, _, err := parent.AtView(parent.DB.Snapshot()).Milestones(&fx.plan); err != nil {
		t.Fatal(err)
	}
	forkDB := parent.DB.ForkAt(nil)
	fork := parent.WithDB(forkDB)
	shared := &Space{DB: forkDB, Schema: parent.Schema, Calendar: parent.Calendar, ms: parent.ms}
	target := t0.Add(12 * time.Hour)
	ep, err := parent.SetMilestone(&fx.plan, "parent-only", "netlist", target)
	if err != nil {
		t.Fatal(err)
	}
	ef, err := fork.SetMilestone(&fx.plan, "fork-only", "netlist", target)
	if err != nil {
		t.Fatal(err)
	}
	if ep.ID != ef.ID || parent.DB.Version() != forkDB.Version() {
		t.Fatalf("parent wrote %s at v%d, fork %s at v%d: want the same ID and version",
			ep.ID, parent.DB.Version(), ef.ID, forkDB.Version())
	}
	names := func(sp *Space) string {
		t.Helper()
		_, ms, err := sp.Milestones(&fx.plan)
		if err != nil {
			t.Fatal(err)
		}
		var out string
		for _, m := range ms {
			out += m.Name + " "
		}
		return out
	}
	const wantParent, wantFork = "parent-only base1 base0 ", "fork-only base1 base0 "
	for i := 0; i < 3; i++ {
		for _, c := range []struct {
			sp   *Space
			want string
		}{
			{parent, wantParent},
			{parent.AtView(parent.DB.Snapshot()), wantParent},
			{fork, wantFork},
			{fork.AtView(forkDB.Snapshot()), wantFork},
			{shared.AtView(forkDB.Snapshot()), wantFork},
			{parent.AtView(parent.DB.Snapshot()), wantParent},
		} {
			if got := names(c.sp); got != c.want {
				t.Fatalf("round %d: milestones %q, want %q", i, got, c.want)
			}
		}
	}
}

// TestViewReadsMilestonesDuringWrites races milestone reports on fresh
// views, which share the live space's memo, against a writer that sets
// milestones, propagates, completes the producing activity and records
// the achievement. Every report must match its own snapshot: one row per
// milestone in it, achieved exactly when the snapshot's producer is done.
func TestViewReadsMilestonesDuringWrites(t *testing.T) {
	fx := durableTracked(t)
	sp := fx.space
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := sp.DB.Snapshot()
				v := sp.AtView(snap)
				_, p, err := v.CurrentPlan()
				if err != nil {
					errs <- err
					return
				}
				rows, err := v.MilestoneReport(p)
				if err != nil {
					errs <- err
					return
				}
				_, create, err := v.Instance(p, "Create")
				if err != nil {
					errs <- err
					return
				}
				want := 0
				if c := snap.Container(MilestoneContainer); c != nil {
					want = c.Len()
				}
				if len(rows) != want {
					errs <- fmt.Errorf("version %d: %d report rows, %d milestones", snap.Version(), len(rows), want)
					return
				}
				for _, row := range rows {
					if achieved := row.Class == "netlist" && create.Done; row.Achieved != achieved {
						errs <- fmt.Errorf("version %d: %s achieved=%v, producer done=%v", snap.Version(), row.Name, row.Achieved, create.Done)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 30; i++ {
		setMilestones(t, sp, &fx.plan, fmt.Sprintf("w%d-", i), 1)
		if _, err := sp.Propagate(&fx.plan, t0.Add(time.Duration(i)*time.Hour)); err != nil {
			t.Fatal(err)
		}
		if i == 15 {
			finish := t0.Add(20 * time.Hour)
			ent := fx.recordNetlist(t, t0, finish)
			if err := sp.Complete(&fx.plan, "Create", ent.ID, finish); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sp.RefreshMilestones(&fx.plan); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
