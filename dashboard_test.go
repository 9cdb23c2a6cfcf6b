package flowsched

import (
	"strings"
	"testing"
	"time"
)

func TestOutlineStatus(t *testing.T) {
	p := prepared(t)
	g, err := NewGrouping(map[string][]string{
		"Design": {"Create"},
		"Verify": {"Simulate"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := viewOf(t, p).OutlineStatus(g); err == nil {
		t.Fatal("outline without plan accepted")
	}
	if _, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := viewOf(t, p).OutlineStatus(nil); err == nil {
		t.Fatal("nil grouping accepted")
	}
	out, err := viewOf(t, p).OutlineStatus(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Design", "Verify", "0/1 done"} {
		if !strings.Contains(out, want) {
			t.Errorf("outline missing %q:\n%s", want, out)
		}
	}
	if _, err := p.Run([]string{"performance"}, true); err != nil {
		t.Fatal(err)
	}
	out, _ = viewOf(t, p).OutlineStatus(g)
	if !strings.Contains(out, "1/1 done") {
		t.Fatalf("outline after run:\n%s", out)
	}
	// Grouping that doesn't cover the plan is rejected.
	partial, _ := NewGrouping(map[string][]string{"Design": {"Create"}})
	if _, err := viewOf(t, p).OutlineStatus(partial); err == nil {
		t.Fatal("partial grouping accepted")
	}
}

func TestDeadlineMargin(t *testing.T) {
	p := prepared(t)
	if _, err := viewOf(t, p).DeadlineMargin(p.Now()); err == nil {
		t.Fatal("margin without plan accepted")
	}
	plan, err := p.Plan([]string{"performance"}, Fixed{ByActivity: map[string]time.Duration{
		"Create": 16 * time.Hour, "Simulate": 8 * time.Hour,
	}}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Plan finishes Wednesday 17:00. Deadline Friday 17:00 → +16h working.
	deadline := time.Date(1995, time.June, 9, 17, 0, 0, 0, time.UTC)
	margin, err := viewOf(t, p).DeadlineMargin(deadline)
	if err != nil {
		t.Fatal(err)
	}
	if margin != 16*time.Hour {
		t.Fatalf("margin = %v, want 16h (plan finish %v)", margin, plan.Finish)
	}
	// Deadline Tuesday 17:00 → −8h working (overrun).
	early := time.Date(1995, time.June, 6, 17, 0, 0, 0, time.UTC)
	margin, err = viewOf(t, p).DeadlineMargin(early)
	if err != nil {
		t.Fatal(err)
	}
	if margin != -8*time.Hour {
		t.Fatalf("overrun margin = %v, want -8h", margin)
	}
}

func TestDashboard(t *testing.T) {
	p := prepared(t)
	if _, err := viewOf(t, p).Dashboard(); err == nil {
		t.Fatal("dashboard without plan accepted")
	}
	p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{})
	if _, err := p.Run([]string{"performance"}, true); err != nil {
		t.Fatal(err)
	}
	out, err := viewOf(t, p).Dashboard()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"project dashboard", "plan v1", "progress: 2/2 activities done",
		"critical path", "Create -> Simulate", "plan v1 (targets performance)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q:\n%s", want, out)
		}
	}
}

func TestMilestoneAPI(t *testing.T) {
	p := prepared(t)
	target := time.Date(1995, time.June, 9, 17, 0, 0, 0, time.UTC)
	if err := p.SetMilestone("tapeout", "performance", target); err == nil {
		t.Fatal("milestone without plan accepted")
	}
	if _, err := viewOf(t, p).MilestoneReport(); err == nil {
		t.Fatal("report without plan accepted")
	}
	if _, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetMilestone("perf-signoff", "performance", target); err != nil {
		t.Fatal(err)
	}
	report, err := viewOf(t, p).MilestoneReport()
	if err != nil || len(report) != 1 || report[0].Achieved {
		t.Fatalf("report = %+v, %v", report, err)
	}
	if _, err := p.Run([]string{"performance"}, true); err != nil {
		t.Fatal(err)
	}
	report, err = viewOf(t, p).MilestoneReport()
	if err != nil || !report[0].Achieved {
		t.Fatalf("after run report = %+v, %v", report, err)
	}
	// Execution finished well before Friday: positive margin.
	if report[0].Margin <= 0 {
		t.Fatalf("margin = %v", report[0].Margin)
	}
}
