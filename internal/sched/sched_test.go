package sched

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"flowsched/internal/flow"
	"flowsched/internal/schema"
	"flowsched/internal/store"
	"flowsched/internal/vclock"
)

var t0 = vclock.Epoch // Monday 1995-06-05 09:00 UTC

const fig4 = `
schema circuit
data netlist, stimuli, performance
tool editor, simulator
rule Create:   netlist     <- editor()
rule Simulate: performance <- simulator(netlist, stimuli)
`

const diamond = `
schema diamond
data src, left, right, merged
tool t
rule A: src    <- t()
rule B: left   <- t(src)
rule C: right  <- t(src)
rule D: merged <- t(left, right)
`

type fixture struct {
	space *Space
	tree  *flow.Tree
}

func newFixture(t *testing.T, src, target string) *fixture {
	t.Helper()
	sch := schema.MustParse(src)
	g, err := flow.FromSchema(sch)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := g.Extract(target)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpace(store.NewDB(), sch, vclock.Standard())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{space: sp, tree: tree}
}

func fixedEst(hours map[string]int) Fixed {
	m := make(map[string]time.Duration, len(hours))
	for k, v := range hours {
		m[k] = time.Duration(v) * time.Hour
	}
	return Fixed{ByActivity: m}
}

func TestNewSpaceCreatesScheduleContainers(t *testing.T) {
	fx := newFixture(t, fig4, "performance")
	for _, name := range []string{PlanContainer, "sched:Create", "sched:Simulate"} {
		if fx.space.DB.Container(name) == nil {
			t.Errorf("container %q missing", name)
		}
	}
	// §IV.A: the schedule model has no effect on Level 1 — NewSpace only
	// creates schedule-space containers.
	for _, c := range fx.space.DB.Containers() {
		if c.Space != store.ScheduleSpace {
			t.Errorf("unexpected non-schedule container %q", c.Name)
		}
	}
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(store.NewDB(), schema.New("empty"), vclock.Standard()); err == nil {
		t.Fatal("invalid schema accepted")
	}
	if _, err := NewSpace(store.NewDB(), schema.MustParse(fig4), nil); err == nil {
		t.Fatal("nil calendar accepted")
	}
}

func TestPlanSimulatesPostOrder(t *testing.T) {
	fx := newFixture(t, fig4, "performance")
	res, err := fx.space.Plan(fx.tree, t0, fixedEst(map[string]int{"Create": 16, "Simulate": 8}), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Plan
	if p.Version != 1 {
		t.Fatalf("version = %d", p.Version)
	}
	_, create, err := fx.space.Instance(&p, "Create")
	if err != nil {
		t.Fatal(err)
	}
	_, sim, err := fx.space.Instance(&p, "Simulate")
	if err != nil {
		t.Fatal(err)
	}
	// Create: Mon 09:00 + 16h work = Tue 17:00. Simulate starts Wed 09:00
	// (next work instant after Tue 17:00) + 8h = Wed 17:00.
	if !create.PlannedStart.Equal(t0) {
		t.Errorf("Create start = %v", create.PlannedStart)
	}
	wantCreateFinish := time.Date(1995, time.June, 6, 17, 0, 0, 0, time.UTC)
	if !create.PlannedFinish.Equal(wantCreateFinish) {
		t.Errorf("Create finish = %v, want %v", create.PlannedFinish, wantCreateFinish)
	}
	wantSimStart := time.Date(1995, time.June, 7, 9, 0, 0, 0, time.UTC)
	if !sim.PlannedStart.Equal(wantSimStart) {
		t.Errorf("Simulate start = %v, want %v", sim.PlannedStart, wantSimStart)
	}
	wantSimFinish := time.Date(1995, time.June, 7, 17, 0, 0, 0, time.UTC)
	if !sim.PlannedFinish.Equal(wantSimFinish) {
		t.Errorf("Simulate finish = %v, want %v", sim.PlannedFinish, wantSimFinish)
	}
	if !p.Finish.Equal(wantSimFinish) {
		t.Errorf("plan finish = %v, want %v", p.Finish, wantSimFinish)
	}
}

// TestPlanResultOwnsItsPlan: a database without a commit hook marshals
// the plan payload only when asked, so the Plan a caller gets back must
// share no slice or map with it. Changing the result after planning
// leaves the stored plan's bytes and decoded value as they were.
func TestPlanResultOwnsItsPlan(t *testing.T) {
	fx := newFixture(t, fig4, "performance")
	res, err := fx.space.Plan(fx.tree, t0, fixedEst(map[string]int{"Create": 16, "Simulate": 8}), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	res.Plan.Instances["Create"] = "changed/1"
	res.Plan.Activities[0] = "changed"
	res.Plan.Targets[0] = "changed"
	if got := res.Entry.Payload(); string(got) != string(want) {
		t.Fatalf("stored plan bytes after the caller changed its result:\n%s\nwant\n%s", got, want)
	}
	_, stored, err := fx.space.CurrentPlan()
	if err != nil {
		t.Fatal(err)
	}
	if stored.Instances["Create"] == "changed/1" || stored.Activities[0] == "changed" || stored.Targets[0] == "changed" {
		t.Fatalf("the stored plan shares the caller's result: %+v", stored)
	}
	if c := stored.Clone(); &c.Activities[0] == &stored.Activities[0] || &c.Targets[0] == &stored.Targets[0] {
		t.Fatal("Clone shares a slice")
	}
}

func TestPlanValidation(t *testing.T) {
	fx := newFixture(t, fig4, "performance")
	est := fixedEst(map[string]int{"Create": 8, "Simulate": 8})
	if _, err := fx.space.Plan(nil, t0, est, PlanOptions{}); err == nil {
		t.Fatal("nil tree accepted")
	}
	if _, err := fx.space.Plan(fx.tree, t0, nil, PlanOptions{}); err == nil {
		t.Fatal("nil estimator accepted")
	}
	if _, err := fx.space.Plan(fx.tree, t0, Fixed{}, PlanOptions{}); err == nil {
		t.Fatal("estimator without data accepted")
	}
	if _, err := fx.space.Plan(fx.tree, t0, est, PlanOptions{BasedOn: []string{"ghost/1"}}); err == nil {
		t.Fatal("bogus basedOn accepted")
	}
	bad := Fixed{ByActivity: map[string]time.Duration{"Create": -time.Hour, "Simulate": time.Hour}}
	if _, err := fx.space.Plan(fx.tree, t0, bad, PlanOptions{}); err == nil {
		t.Fatal("negative estimate accepted")
	}
}

// Fig. 5: planning twice yields two schedule-instance versions per
// activity container (CC1, CC2 / SC1, SC2) and two plan versions.
func TestFig5TwoPlanningPasses(t *testing.T) {
	fx := newFixture(t, fig4, "performance")
	est := fixedEst(map[string]int{"Create": 16, "Simulate": 8})
	r1, err := fx.space.Plan(fx.tree, t0, est, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fx.space.Plan(fx.tree, t0.Add(24*time.Hour), est, PlanOptions{BasedOn: []string{r1.Entry.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Plan.Version != 2 {
		t.Fatalf("second plan version = %d", r2.Plan.Version)
	}
	for _, act := range []string{"Create", "Simulate"} {
		c := fx.space.DB.Container(Container(act))
		if c.Len() != 2 {
			t.Errorf("%s schedule container has %d instances, want 2 (Fig. 5)", act, c.Len())
		}
	}
	dump := fx.space.DB.Dump()
	for _, want := range []string{"sched:Create/2", "sched:Simulate/2", "schedule/2"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
	// Lineage: plan 2 derives from plan 1.
	chain, err := fx.space.Lineage(r2.Entry.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 || chain[0] != r1.Entry.ID {
		t.Fatalf("Lineage = %v", chain)
	}
}

func TestCurrentPlanAndByVersion(t *testing.T) {
	fx := newFixture(t, fig4, "performance")
	_, p, err := fx.space.CurrentPlan()
	if err != nil || p != nil {
		t.Fatalf("empty CurrentPlan = %v, %v", p, err)
	}
	est := fixedEst(map[string]int{"Create": 8, "Simulate": 8})
	fx.space.Plan(fx.tree, t0, est, PlanOptions{})
	fx.space.Plan(fx.tree, t0, est, PlanOptions{})
	_, cur, err := fx.space.CurrentPlan()
	if err != nil || cur == nil || cur.Version != 2 {
		t.Fatalf("CurrentPlan = %+v, %v", cur, err)
	}
	_, p1, err := fx.space.PlanByVersion(1)
	if err != nil || p1.Version != 1 {
		t.Fatalf("PlanByVersion(1) = %+v, %v", p1, err)
	}
	if _, _, err := fx.space.PlanByVersion(9); err == nil {
		t.Fatal("missing version accepted")
	}
}

func TestPlanParallelBranches(t *testing.T) {
	fx := newFixture(t, diamond, "merged")
	est := fixedEst(map[string]int{"A": 8, "B": 8, "C": 16, "D": 8})
	res, err := fx.space.Plan(fx.tree, t0, est, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, b, _ := fx.space.Instance(&res.Plan, "B")
	_, c, _ := fx.space.Instance(&res.Plan, "C")
	_, d, _ := fx.space.Instance(&res.Plan, "D")
	// B and C both start when A finishes (parallel, unconstrained).
	if !b.PlannedStart.Equal(c.PlannedStart) {
		t.Errorf("B and C start apart: %v vs %v", b.PlannedStart, c.PlannedStart)
	}
	// D starts at max(B,C) = C's finish.
	if !d.PlannedStart.Equal(fx.space.Calendar.NextWorkInstant(c.PlannedFinish)) {
		t.Errorf("D start = %v, want after C finish %v", d.PlannedStart, c.PlannedFinish)
	}
}

func TestPlanResourceConstrained(t *testing.T) {
	fx := newFixture(t, diamond, "merged")
	est := fixedEst(map[string]int{"A": 8, "B": 8, "C": 8, "D": 8})
	assign := map[string][]string{"A": {"pat"}, "B": {"pat"}, "C": {"pat"}, "D": {"pat"}}
	unres, err := fx.space.Plan(fx.tree, t0, est, PlanOptions{Assignments: assign})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fx.space.Plan(fx.tree, t0, est, PlanOptions{Assignments: assign, ResourceConstrained: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.Finish.After(unres.Plan.Finish) {
		t.Fatalf("resource-constrained finish %v not after unconstrained %v",
			res.Plan.Finish, unres.Plan.Finish)
	}
	// With one person, B and C serialize.
	_, b, _ := fx.space.Instance(&res.Plan, "B")
	_, c, _ := fx.space.Instance(&res.Plan, "C")
	if b.PlannedStart.Equal(c.PlannedStart) {
		t.Error("B and C overlap despite shared resource")
	}
}

func TestInstanceErrors(t *testing.T) {
	fx := newFixture(t, fig4, "performance")
	est := fixedEst(map[string]int{"Create": 8, "Simulate": 8})
	res, _ := fx.space.Plan(fx.tree, t0, est, PlanOptions{})
	if _, _, err := fx.space.Instance(&res.Plan, "Nope"); err == nil {
		t.Fatal("unknown activity accepted")
	}
	if _, _, err := fx.space.History("Nope"); err == nil {
		t.Fatal("unknown history activity accepted")
	}
	if _, err := fx.space.Lineage("ghost/1"); err == nil {
		t.Fatal("bogus lineage id accepted")
	}
}

func TestInstancesPostOrder(t *testing.T) {
	fx := newFixture(t, diamond, "merged")
	est := Fixed{Default: 8 * time.Hour}
	res, err := fx.space.Plan(fx.tree, t0, est, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entries, insts, err := fx.space.Instances(&res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 || len(insts) != 4 {
		t.Fatalf("Instances = %d entries", len(entries))
	}
	if insts[0].Activity != "A" || insts[3].Activity != "D" {
		t.Fatalf("order = %v...%v", insts[0].Activity, insts[3].Activity)
	}
	// Post-order invariant: every instance's planned start is at or after
	// all in-plan producers' planned finishes.
	finish := map[string]time.Time{}
	for _, in := range insts {
		for _, pred := range predecessorsIn(&res.Plan, fx.space, in.Activity) {
			if in.PlannedStart.Before(finish[pred]) {
				t.Errorf("%s starts %v before producer %s finishes %v",
					in.Activity, in.PlannedStart, pred, finish[pred])
			}
		}
		finish[in.Activity] = in.PlannedFinish
	}
}
