package engine

import (
	"errors"
	"strings"
	"testing"
	"time"

	"flowsched/internal/sched"
	"flowsched/internal/schema"
	"flowsched/internal/store"
	"flowsched/internal/tools"
	"flowsched/internal/vclock"
)

var t0 = vclock.Epoch

const fig4 = `
schema circuit
data netlist, stimuli, performance
tool editor, simulator
rule Create:   netlist     <- editor()
rule Simulate: performance <- simulator(netlist, stimuli)
`

func newManager(t *testing.T) *Manager {
	t.Helper()
	m, err := New(schema.MustParse(fig4), vclock.Standard(), t0, "ewj")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ready prepares a manager with default tools and imported stimuli.
func ready(t *testing.T) *Manager {
	t.Helper()
	m := newManager(t)
	if err := m.BindDefaults(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Import("stimuli", []byte("pulse 0 5 1ns\n")); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	sch := schema.MustParse(fig4)
	if _, err := New(sch, nil, t0, "x"); err == nil {
		t.Fatal("nil calendar accepted")
	}
	if _, err := New(sch, vclock.Standard(), t0, ""); err == nil {
		t.Fatal("empty designer accepted")
	}
	if _, err := New(schema.New("bad"), vclock.Standard(), t0, "x"); err == nil {
		t.Fatal("invalid schema accepted")
	}
}

func TestNewInitializesBothSpaces(t *testing.T) {
	m := newManager(t)
	st := m.DB.Stats()
	if st[store.ExecutionSpace].Containers != 5 { // 3 data + 2 run
		t.Fatalf("execution containers = %d", st[store.ExecutionSpace].Containers)
	}
	if st[store.ScheduleSpace].Containers != 3 { // plan + 2 activities
		t.Fatalf("schedule containers = %d", st[store.ScheduleSpace].Containers)
	}
}

func TestBindToolValidation(t *testing.T) {
	m := newManager(t)
	tool, _ := tools.DefaultFor("editor", "e#1")
	if err := m.BindTool("Nope", tool); err == nil {
		t.Fatal("unknown activity accepted")
	}
	if err := m.BindTool("Create", tool); err != nil {
		t.Fatal(err)
	}
}

func TestBindDefaultsPreservesExisting(t *testing.T) {
	m := newManager(t)
	custom, _ := tools.DefaultFor("editor", "custom#9")
	m.BindTool("Create", custom)
	if err := m.BindDefaults(); err != nil {
		t.Fatal(err)
	}
	if got := m.Tools.For("Create").Instance(); got != "custom#9" {
		t.Fatalf("BindDefaults replaced custom binding: %s", got)
	}
	if m.Tools.For("Simulate") == nil {
		t.Fatal("Simulate not bound")
	}
}

func TestImport(t *testing.T) {
	m := newManager(t)
	e, err := m.Import("stimuli", []byte("vec"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Container != "stimuli" {
		t.Fatalf("entity container = %s", e.Container)
	}
	if m.Data.Versions("stimuli") != 1 {
		t.Fatal("Level 4 object missing")
	}
	if _, err := m.Import("editor", []byte("x")); err == nil {
		t.Fatal("import into tool class accepted")
	}
}

func TestExecuteTaskNotReady(t *testing.T) {
	m := newManager(t)
	tree, _ := m.ExtractTree("performance")
	if _, err := m.ExecuteTask(tree, ExecOptions{}); err == nil || !strings.Contains(err.Error(), "no tool") {
		t.Fatalf("err = %v, want no-tool", err)
	}
	m.BindDefaults()
	if _, err := m.ExecuteTask(tree, ExecOptions{}); err == nil || !strings.Contains(err.Error(), "no imported data") {
		t.Fatalf("err = %v, want no-data", err)
	}
}

func TestExecuteTaskProducesEntities(t *testing.T) {
	m := ready(t)
	tree, _ := m.ExtractTree("performance")
	res, err := m.ExecuteTask(tree, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	for _, o := range res.Outcomes {
		if o.Iterations < 1 || o.FinalEntity == nil {
			t.Fatalf("outcome = %+v", o)
		}
		if !o.Finished.After(o.Started) {
			t.Fatalf("no time elapsed for %s", o.Activity)
		}
	}
	// Entity instances exist for netlist and performance.
	for _, class := range []string{"netlist", "performance"} {
		_, latest, err := m.Exec.LatestEntity(class)
		if err != nil || latest == nil {
			t.Fatalf("no %s entity: %v", class, err)
		}
		// Level 4 object retrievable.
		if _, err := m.Data.Get(latest.Data); err != nil {
			t.Fatalf("level 4 data for %s: %v", class, err)
		}
	}
	// Virtual clock advanced.
	if !m.Clock.Now().After(t0) {
		t.Fatal("clock did not advance")
	}
	// Runs recorded with iterations.
	_, runs, _ := m.Exec.Runs("Create")
	if len(runs) == 0 || runs[0].Status != "succeeded" && runs[0].Status != "failed" {
		t.Fatalf("runs = %+v", runs)
	}
}

func TestExecuteTaskDeterministic(t *testing.T) {
	run := func() time.Time {
		m := ready(t)
		tree, _ := m.ExtractTree("performance")
		if _, err := m.ExecuteTask(tree, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		return m.Clock.Now()
	}
	if a, b := run(), run(); !a.Equal(b) {
		t.Fatalf("execution not deterministic: %v vs %v", a, b)
	}
}

func TestExecuteTaskTracksPlan(t *testing.T) {
	m := ready(t)
	tree, _ := m.ExtractTree("performance")
	est := sched.Fixed{Default: 8 * time.Hour}
	pr, err := m.Plan(tree, est, sched.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.ExecuteTask(tree, ExecOptions{Plan: &pr.Plan, AutoComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		se, in, err := m.Sched.Instance(&pr.Plan, o.Activity)
		if err != nil {
			t.Fatal(err)
		}
		if !in.Done || in.LinkedEntity != o.FinalEntity.ID {
			t.Fatalf("%s schedule instance = %+v", o.Activity, in)
		}
		if !m.DB.Linked(se.ID, o.FinalEntity.ID) {
			t.Fatalf("%s not linked to %s", se.ID, o.FinalEntity.ID)
		}
		if !in.ActualStart.Equal(o.Started) {
			t.Fatalf("%s actual start %v != outcome %v", o.Activity, in.ActualStart, o.Started)
		}
	}
	// Plan finish reflects actual completion after propagation.
	_, p, _ := m.Sched.PlanByVersion(pr.Plan.Version)
	if !p.Finish.Equal(m.Clock.Now()) && p.Finish.Before(m.Clock.Now()) {
		t.Fatalf("plan finish %v vs clock %v", p.Finish, m.Clock.Now())
	}
}

func TestExecuteTaskManualComplete(t *testing.T) {
	m := ready(t)
	tree, _ := m.ExtractTree("performance")
	pr, _ := m.Plan(tree, sched.Fixed{Default: 8 * time.Hour}, sched.PlanOptions{})
	res, err := m.ExecuteTask(tree, ExecOptions{Plan: &pr.Plan})
	if err != nil {
		t.Fatal(err)
	}
	_, in, _ := m.Sched.Instance(&pr.Plan, "Create")
	if in.Done {
		t.Fatal("auto-completed without AutoComplete")
	}
	if !in.Started() {
		t.Fatal("actual start not recorded")
	}
	if err := m.CompleteActivity(&pr.Plan, "Create", res.Outcomes[0].FinalEntity.ID); err != nil {
		t.Fatal(err)
	}
	_, in, _ = m.Sched.Instance(&pr.Plan, "Create")
	if !in.Done {
		t.Fatal("manual completion failed")
	}
}

func TestExecuteTaskFailuresBail(t *testing.T) {
	m := newManager(t)
	// A tool that always fails.
	bad, err := tools.NewSim("editor", "broken#1",
		tools.Profile{Base: time.Hour, MeanIterations: 1, FailureRate: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	m.BindTool("Create", bad)
	sim, _ := tools.DefaultFor("simulator", "s#1")
	m.BindTool("Simulate", sim)
	m.Import("stimuli", []byte("v"))
	tree, _ := m.ExtractTree("performance")
	_, err = m.ExecuteTask(tree, ExecOptions{MaxFailures: 2})
	var afe *ActivityFailedError
	if !errors.As(err, &afe) {
		t.Fatalf("err = %v, want *ActivityFailedError", err)
	}
	if afe.Activity != "Create" || afe.Attempts != 2 || afe.Failures != 2 {
		t.Fatalf("failure = %+v, want Create after 2 attempts, 2 failed", afe)
	}
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want *ExecError checkpoint", err)
	}
	if len(ee.Completed()) != 0 {
		t.Fatalf("completed = %v, want none", ee.Completed())
	}
	// Failed runs were still recorded as metadata — completed (here:
	// attempted) work remains queryable after the typed error.
	_, runs, _ := m.Exec.Runs("Create")
	if len(runs) != 2 {
		t.Fatalf("failed runs recorded = %d, want 2", len(runs))
	}
}

func TestEventsStream(t *testing.T) {
	m := ready(t)
	tree, _ := m.ExtractTree("performance")
	pr, _ := m.Plan(tree, sched.Fixed{Default: 8 * time.Hour}, sched.PlanOptions{})
	if _, err := m.ExecuteTask(tree, ExecOptions{Plan: &pr.Plan, AutoComplete: true}); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[EventKind]int)
	for _, e := range m.Events() {
		kinds[e.Kind]++
	}
	for _, want := range []EventKind{EvPlanCreated, EvRunStarted, EvRunFinished, EvEntityCreated, EvTaskStarted, EvTaskComplete} {
		if kinds[want] == 0 {
			t.Errorf("no %s events; got %v", want, kinds)
		}
	}
	// Events are chronologically ordered.
	evs := m.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At.Before(evs[i-1].At) {
			t.Fatalf("events out of order at %d: %v < %v", i, evs[i].At, evs[i-1].At)
		}
	}
}

// Reproduces Fig. 6/7 shape: iterations yield multiple entity instances
// per container, completion links exactly one per activity.
func TestFig7OneLinkPerActivity(t *testing.T) {
	m := ready(t)
	tree, _ := m.ExtractTree("performance")
	pr, _ := m.Plan(tree, sched.Fixed{Default: 8 * time.Hour}, sched.PlanOptions{})
	if _, err := m.ExecuteTask(tree, ExecOptions{Plan: &pr.Plan, AutoComplete: true}); err != nil {
		t.Fatal(err)
	}
	for _, act := range []string{"Create", "Simulate"} {
		c := m.DB.Container(sched.Container(act))
		links := 0
		for _, e := range c.Entries() {
			links += len(e.Links)
		}
		if links != 1 {
			t.Errorf("%s schedule container has %d links, want exactly 1", act, links)
		}
	}
}
