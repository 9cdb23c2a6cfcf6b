package flowsched

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func newProject(t *testing.T) *Project {
	t.Helper()
	p, err := New(Fig4Schema, Options{Designer: "ewj"})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// viewOf pins a fresh read view of p, failing the test if the capture
// does.
func viewOf(t testing.TB, p *Project) *ProjectView {
	t.Helper()
	v, err := p.View()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// allEvents returns p's whole event stream.
func allEvents(p *Project) []Event {
	evs, _ := p.EventsPage(0)
	return evs
}

// prepared returns a project with tools bound and stimuli imported.
func prepared(t *testing.T) *Project {
	t.Helper()
	p := newProject(t)
	if err := p.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Import("stimuli", []byte("pulse 0 5 1ns")); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewRejectsBadSchema(t *testing.T) {
	if _, err := New("garbage", Options{}); err == nil {
		t.Fatal("bad schema accepted")
	}
}

func TestDefaults(t *testing.T) {
	p := newProject(t)
	if p.Schema().Name != "circuit" {
		t.Fatalf("schema = %s", p.Schema().Name)
	}
	if p.Now().IsZero() {
		t.Fatal("clock unset")
	}
	if p.Calendar().DailyHours() != 8*time.Hour {
		t.Fatal("default calendar not standard")
	}
	if p.CurrentPlan() != nil {
		t.Fatal("plan exists before planning")
	}
}

func TestPlanRunLifecycle(t *testing.T) {
	p := prepared(t)
	plan, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Version != 1 || len(plan.Activities) != 2 {
		t.Fatalf("plan = %+v", plan)
	}
	res, err := p.Run([]string{"performance"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	st, err := viewOf(t, p).Status()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range st {
		if row.State != "done" {
			t.Fatalf("status = %+v", row)
		}
	}
	g, err := viewOf(t, p).Gantt()
	if err != nil || !strings.Contains(g, "Create") {
		t.Fatalf("gantt = %q, %v", g, err)
	}
}

// TestCurrentPlanIsASnapshot: the plan Plan returns and the one
// CurrentPlan returns belong to the caller. A slip propagated after
// they were taken leaves both as they were; a fresh CurrentPlan shows it.
func TestCurrentPlanIsASnapshot(t *testing.T) {
	p := prepared(t)
	targets := []string{"performance"}
	planned, err := p.Plan(targets, Fixed{Default: time.Hour}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cur := p.CurrentPlan()
	if cur == nil || cur.Version != planned.Version || !cur.Finish.Equal(planned.Finish) {
		t.Fatalf("CurrentPlan = %+v, want the plan Plan returned (%+v)", cur, planned)
	}
	before := planned.Finish
	// The simulated tools take far longer than the hour planned per
	// activity: running without completing leaves the plan slipping.
	if _, err := p.Run(targets, false); err != nil {
		t.Fatal(err)
	}
	finish, err := p.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	if !finish.After(before) {
		t.Fatalf("no slip: projected finish %v, planned %v", finish, before)
	}
	if !planned.Finish.Equal(before) || !cur.Finish.Equal(before) {
		t.Fatalf("a write changed a caller's plan: Plan's finish %v, CurrentPlan's %v, want %v",
			planned.Finish, cur.Finish, before)
	}
	if now := p.CurrentPlan(); now == nil || !now.Finish.Equal(finish) {
		t.Fatalf("fresh CurrentPlan = %+v, want finish %v", now, finish)
	}
}

func TestPlanLineageAutomatic(t *testing.T) {
	p := prepared(t)
	if _, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan([]string{"performance"}, Fixed{Default: 10 * time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	ans, err := viewOf(t, p).Query("lineage")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans, "schedule/1 -> schedule/2") {
		t.Fatalf("lineage = %q", ans)
	}
}

func TestRunWithoutPlanUntracked(t *testing.T) {
	p := prepared(t)
	res, err := p.Run([]string{"performance"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	if _, err := viewOf(t, p).Status(); err == nil {
		t.Fatal("Status without plan accepted")
	}
	if _, err := viewOf(t, p).Gantt(); err == nil {
		t.Fatal("Gantt without plan accepted")
	}
	if _, err := p.Propagate(); err == nil {
		t.Fatal("Propagate without plan accepted")
	}
	if err := p.Complete("Create", "netlist/1"); err == nil {
		t.Fatal("Complete without plan accepted")
	}
	if _, err := viewOf(t, p).Analyze(); err == nil {
		t.Fatal("Analyze without plan accepted")
	}
}

func TestManualComplete(t *testing.T) {
	p := prepared(t)
	if _, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run([]string{"performance"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Complete("Create", res.Outcomes[0].FinalEntity.ID); err != nil {
		t.Fatal(err)
	}
	st, _ := viewOf(t, p).Status()
	if st[0].State != "done" {
		t.Fatalf("Create status = %+v", st[0])
	}
}

func TestAnalyze(t *testing.T) {
	p := prepared(t)
	est := Fixed{ByActivity: map[string]time.Duration{
		"Create": 16 * time.Hour, "Simulate": 8 * time.Hour,
	}}
	if _, err := p.Plan([]string{"performance"}, est, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := viewOf(t, p).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != 24*time.Hour {
		t.Fatalf("CPM duration = %v, want 24h", res.Duration)
	}
	if len(res.CriticalPath) != 2 {
		t.Fatalf("critical path = %v", res.CriticalPath)
	}
}

func TestQueryAfterRun(t *testing.T) {
	p := prepared(t)
	p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{})
	if _, err := p.Run([]string{"performance"}, true); err != nil {
		t.Fatal(err)
	}
	ans, err := viewOf(t, p).Query("duration of Create")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans, "duration of Create") {
		t.Fatalf("query = %q", ans)
	}
	if _, err := viewOf(t, p).Query("nonsense"); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestHistoricalEstimatorAcrossProjects(t *testing.T) {
	// Project A executes; its measured durations estimate project B.
	a := prepared(t)
	a.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{})
	if _, err := a.Run([]string{"performance"}, true); err != nil {
		t.Fatal(err)
	}
	est := a.HistoricalEstimator(Fixed{Default: 4 * time.Hour})

	b := prepared(t)
	plan, err := b.Plan([]string{"performance"}, est, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The estimate basis must be historical for both activities.
	for _, act := range plan.Activities {
		ans, err := viewOf(t, b).Query("estimate of " + act)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(ans, "historical") {
			t.Fatalf("estimate of %s not historical: %s", act, ans)
		}
	}
}

func TestSnapshotAndDump(t *testing.T) {
	p := prepared(t)
	p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{})
	p.Run([]string{"performance"}, true)
	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(blob) {
		t.Fatal("snapshot not valid JSON")
	}
	dump := p.DatabaseDump()
	for _, want := range []string{"execution space:", "schedule space:", "netlist"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q", want)
		}
	}
	ec, ei, sc, si := p.Stats()
	if ec != 5 || sc != 3 || ei == 0 || si == 0 {
		t.Fatalf("stats = %d %d %d %d", ec, ei, sc, si)
	}
}

func TestTaskTreeView(t *testing.T) {
	p := prepared(t)
	out, err := viewOf(t, p).TaskTreeView("performance")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "unplanned") {
		t.Fatalf("view before plan = %q", out)
	}
	p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{})
	out, _ = viewOf(t, p).TaskTreeView("performance")
	if !strings.Contains(out, "planned") {
		t.Fatalf("view after plan = %q", out)
	}
}

func TestEventsExposed(t *testing.T) {
	p := prepared(t)
	p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{})
	p.Run([]string{"performance"}, true)
	if p.EventCount() == 0 {
		t.Fatal("no events")
	}
}

func TestCustomToolBinding(t *testing.T) {
	p := newProject(t)
	tool, err := NewSimTool("editor", "emacs#1", ToolProfile{
		Base: 2 * time.Hour, Jitter: 0.1, MeanIterations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.BindTool("Create", tool); err != nil {
		t.Fatal(err)
	}
	if err := p.BindTool("Ghost", tool); err == nil {
		t.Fatal("unknown activity accepted")
	}
}

func TestASICSchemaEndToEnd(t *testing.T) {
	p, err := New(ASICSchema, Options{Designer: "team"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	for _, leaf := range []string{"rtl", "constraints", "testbench"} {
		if _, err := p.Import(leaf, []byte("content of "+leaf)); err != nil {
			t.Fatal(err)
		}
	}
	targets := []string{"drcreport", "lvsreport", "timingreport", "simreport"}
	if _, err := p.Plan(targets, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(targets, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 8 {
		t.Fatalf("outcomes = %d, want 8", len(res.Outcomes))
	}
	cpm, err := viewOf(t, p).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(cpm.CriticalPath) == 0 {
		t.Fatal("no critical path")
	}
}

func TestRunParallelFacade(t *testing.T) {
	mk := func() *Project {
		p, err := New(ASICSchema, Options{Designer: "team"})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.UseSimulatedTools(); err != nil {
			t.Fatal(err)
		}
		for _, leaf := range []string{"rtl", "constraints", "testbench"} {
			if _, err := p.Import(leaf, []byte("x "+leaf)); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	targets := []string{"drcreport", "lvsreport", "timingreport", "simreport"}
	serial := mk()
	if _, err := serial.Run(targets, false); err != nil {
		t.Fatal(err)
	}
	par := mk()
	if _, err := par.RunParallel(targets, false); err != nil {
		t.Fatal(err)
	}
	// The overlapped timeline finishes strictly earlier on this DAG.
	if !par.Now().Before(serial.Now()) {
		t.Fatalf("parallel %v not before serial %v", par.Now(), serial.Now())
	}
	if _, err := par.RunParallel([]string{"ghost"}, false); err == nil {
		t.Fatal("unknown target accepted")
	}
}
