package sched

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"flowsched/internal/meta"
)

// newExecSpace attaches an execution space to a fixture's database so
// completion links have entity containers to point at.
func newExecSpace(fx *fixture) (*meta.Space, error) {
	return meta.NewSpace(fx.space.DB, fx.space.Schema)
}

// milestoneFixture plans fig4 and returns plan + space.
func milestoneFixture(t *testing.T) (*Space, Plan) {
	t.Helper()
	fx := newFixture(t, fig4, "performance")
	res, err := fx.space.Plan(fx.tree, t0,
		fixedEst(map[string]int{"Create": 16, "Simulate": 8}), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return fx.space, res.Plan
}

func TestSetMilestone(t *testing.T) {
	sp, plan := milestoneFixture(t)
	target := time.Date(1995, time.June, 9, 17, 0, 0, 0, time.UTC)
	e, err := sp.SetMilestone(&plan, "first-silicon-model", "performance", target)
	if err != nil {
		t.Fatal(err)
	}
	if e.Container != MilestoneContainer {
		t.Fatalf("container = %s", e.Container)
	}
	_, ms, err := sp.Milestones(&plan)
	if err != nil || len(ms) != 1 || ms[0].Name != "first-silicon-model" {
		t.Fatalf("milestones = %+v, %v", ms, err)
	}
}

func TestSetMilestoneValidation(t *testing.T) {
	sp, plan := milestoneFixture(t)
	target := t0.Add(24 * time.Hour)
	if _, err := sp.SetMilestone(&plan, "", "performance", target); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := sp.SetMilestone(&plan, "m", "stimuli", target); err == nil {
		t.Fatal("primary-input class accepted")
	}
	if _, err := sp.SetMilestone(&plan, "m", "ghost", target); err == nil {
		t.Fatal("unknown class accepted")
	}
	// Out-of-plan producer: extract a partial plan with only Create.
	fx := newFixture(t, fig4, "netlist")
	res, _ := fx.space.Plan(fx.tree, t0, fixedEst(map[string]int{"Create": 8}), PlanOptions{})
	if _, err := fx.space.SetMilestone(&res.Plan, "m", "performance", target); err == nil ||
		!strings.Contains(err.Error(), "not in plan") {
		t.Fatalf("err = %v", err)
	}
}

func TestMilestonesSortedAndScoped(t *testing.T) {
	sp, plan := milestoneFixture(t)
	late := t0.Add(20 * 24 * time.Hour)
	early := t0.Add(5 * 24 * time.Hour)
	sp.SetMilestone(&plan, "late", "performance", late)
	sp.SetMilestone(&plan, "early", "netlist", early)
	_, ms, err := sp.Milestones(&plan)
	if err != nil || len(ms) != 2 {
		t.Fatalf("milestones = %+v, %v", ms, err)
	}
	if ms[0].Name != "early" || ms[1].Name != "late" {
		t.Fatalf("order = %v %v", ms[0].Name, ms[1].Name)
	}
	// A second plan sees no milestones from the first.
	fx := newFixture(t, fig4, "performance")
	res2, _ := fx.space.Plan(fx.tree, t0, fixedEst(map[string]int{"Create": 8, "Simulate": 8}), PlanOptions{})
	_, none, err := fx.space.Milestones(&res2.Plan)
	if err != nil || len(none) != 0 {
		t.Fatalf("cross-plan milestones = %+v", none)
	}
}

// TestMilestonesStayPaired: entries[i] is the entry of ms[i] after the
// sort, also for milestones set out of date order and for equal dates.
func TestMilestonesStayPaired(t *testing.T) {
	sp, plan := milestoneFixture(t)
	for i, days := range []int{9, 3, 9, 1, 3, 7} {
		name := fmt.Sprintf("m%d", i)
		if _, err := sp.SetMilestone(&plan, name, "performance", t0.Add(time.Duration(days)*24*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	entries, ms, err := sp.Milestones(&plan)
	if err != nil || len(entries) != 6 || len(ms) != 6 {
		t.Fatalf("milestones = %d entries, %d payloads, %v", len(entries), len(ms), err)
	}
	want := []string{"m3", "m1", "m4", "m5", "m0", "m2"} // by date, ties in set order
	for i, m := range ms {
		var stored Milestone
		if err := entries[i].Decode(&stored); err != nil {
			t.Fatal(err)
		}
		if m.Name != want[i] || stored.Name != m.Name {
			t.Fatalf("position %d: payload %s, entry %s, want %s", i, m.Name, stored.Name, want[i])
		}
	}
}

func TestMilestonesNoneSet(t *testing.T) {
	sp, plan := milestoneFixture(t)
	entries, ms, err := sp.Milestones(&plan)
	if err != nil || entries != nil || ms != nil {
		t.Fatalf("unset milestones = %v %v %v", entries, ms, err)
	}
	if _, err := sp.RefreshMilestones(&plan); err != nil {
		t.Fatal(err)
	}
}

func TestMilestoneAchievementAndReport(t *testing.T) {
	fx := newFixture(t, fig4, "performance")
	// Attach an execution space for completion links.
	tf := &trackedFixture{fixture: fx}
	exec, err := newExecSpace(fx)
	if err != nil {
		t.Fatal(err)
	}
	tf.exec = exec
	res, err := fx.space.Plan(fx.tree, t0,
		fixedEst(map[string]int{"Create": 16, "Simulate": 8}), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tf.plan = res.Plan

	// Milestone: netlist done by Thursday 17:00.
	target := time.Date(1995, time.June, 8, 17, 0, 0, 0, time.UTC)
	if _, err := fx.space.SetMilestone(&tf.plan, "netlist-frozen", "netlist", target); err != nil {
		t.Fatal(err)
	}
	// Before completion: pending, margin = planned finish (Tue 17:00) to
	// target (Thu 17:00) = +16h.
	report, err := fx.space.MilestoneReport(&tf.plan)
	if err != nil {
		t.Fatal(err)
	}
	if report[0].Achieved || report[0].Margin != 16*time.Hour {
		t.Fatalf("pending report = %+v", report[0])
	}
	// Complete Create one day late (Wed 17:00): achieved, margin +8h.
	finish := time.Date(1995, time.June, 7, 17, 0, 0, 0, time.UTC)
	ent := tf.recordNetlist(t, t0, finish)
	fx.space.MarkStarted(&tf.plan, "Create", t0)
	if err := fx.space.Complete(&tf.plan, "Create", ent.ID, finish); err != nil {
		t.Fatal(err)
	}
	report, err = fx.space.MilestoneReport(&tf.plan)
	if err != nil {
		t.Fatal(err)
	}
	if !report[0].Achieved || !report[0].AchievedAt.Equal(finish) {
		t.Fatalf("achieved report = %+v", report[0])
	}
	if report[0].Margin != 8*time.Hour {
		t.Fatalf("margin = %v, want 8h", report[0].Margin)
	}
	// A missed milestone shows negative margin: target before completion.
	early := time.Date(1995, time.June, 6, 17, 0, 0, 0, time.UTC)
	fx.space.SetMilestone(&tf.plan, "optimistic", "netlist", early)
	report, _ = fx.space.MilestoneReport(&tf.plan)
	var missed *MilestoneStatus
	for i := range report {
		if report[i].Name == "optimistic" {
			missed = &report[i]
		}
	}
	if missed == nil || missed.Margin != -8*time.Hour {
		t.Fatalf("missed = %+v", missed)
	}
}
