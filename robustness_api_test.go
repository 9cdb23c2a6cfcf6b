package flowsched

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"flowsched/internal/fault"
	"flowsched/internal/tools"
)

// deadTool fails every run — a tool whose installation is broken.
type deadTool struct{ class, instance string }

func (d deadTool) Instance() string { return d.instance }
func (d deadTool) Class() string    { return d.class }
func (d deadTool) Run(map[string][]byte, int) (tools.Result, error) {
	return tools.Result{Work: time.Hour}, fmt.Errorf("%s: broken installation", d.instance)
}

// TestRunWithCheckpointResume exercises the facade's recovery loop: a
// broken tool aborts the run with a typed ExecError, the tool is
// rebound, and Resume finishes the flow without re-running the
// completed prefix.
func TestRunWithCheckpointResume(t *testing.T) {
	p := prepared(t)
	if _, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := p.BindTool("Simulate", deadTool{class: "simulator", instance: "sim#dead"}); err != nil {
		t.Fatal(err)
	}

	_, err := p.RunWith([]string{"performance"}, RunOptions{AutoComplete: true, MaxFailures: 2})
	if err == nil {
		t.Fatal("run with a dead tool succeeded")
	}
	var afe *ActivityFailedError
	if !errors.As(err, &afe) || afe.Activity != "Simulate" {
		t.Fatalf("error is not a Simulate ActivityFailedError: %v", err)
	}
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("error is not an ExecError: %v", err)
	}
	if done := ee.Completed(); len(done) != 1 || done[0] != "Create" {
		t.Fatalf("completed before failure = %v, want [Create]", done)
	}

	// Fix the installation and resume from the checkpoint.
	good, err := NewSimTool("simulator", "sim#good", ToolProfile{Base: 2 * time.Hour, MeanIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.BindTool("Simulate", good); err != nil {
		t.Fatal(err)
	}
	res, err := ee.Resume()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if len(res.Resumed) != 1 || res.Resumed[0] != "Create" {
		t.Fatalf("resumed (skipped) = %v, want [Create]", res.Resumed)
	}
	if len(res.Outcomes) != 1 || res.Outcomes[0].Activity != "Simulate" {
		t.Fatalf("resume outcomes = %+v, want just Simulate", res.Outcomes)
	}
}

// TestResumeSlipsFromThePropagatedPlan: a write between a failed run
// and its Resume may propagate the plan. The slip Resume reports must
// start from that stored finish, not from the finish the failed run
// started with.
func TestResumeSlipsFromThePropagatedPlan(t *testing.T) {
	p := prepared(t)
	if _, err := p.Plan([]string{"performance"}, Fixed{Default: time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := p.BindTool("Simulate", deadTool{class: "simulator", instance: "sim#dead"}); err != nil {
		t.Fatal(err)
	}
	_, err := p.RunWith([]string{"performance"}, RunOptions{AutoComplete: true, MaxFailures: 2})
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("error is not an ExecError: %v", err)
	}
	propagated, err := p.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	good, err := NewSimTool("simulator", "sim#good", ToolProfile{Base: 30 * time.Hour, MeanIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.BindTool("Simulate", good); err != nil {
		t.Fatal(err)
	}
	since := p.EventCount()
	if _, err := ee.Resume(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	evs, _ := p.EventsPage(since)
	want := "project finish slipped " + propagated.Format("2006-01-02") + " -> "
	slips := 0
	for _, e := range evs {
		if e.Kind != "slip" {
			continue
		}
		slips++
		if !strings.HasPrefix(e.Detail, want) {
			t.Fatalf("resume slip %q, want it to start %q", e.Detail, want)
		}
	}
	if slips != 1 {
		t.Fatalf("resume reported %d slips, want 1", slips)
	}
}

// TestInjectFaultsFacade: an armed fault plan perturbs a full run, the
// replay log is visible, and the fault counters reach the project's
// metrics surface.
func TestInjectFaultsFacade(t *testing.T) {
	p, err := New(Fig4Schema, Options{Designer: "ewj", Obs: ObsOptions{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Import("stimuli", []byte("pulse 0 5 1ns")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := p.InjectFaults(FaultConfig{Seed: 10, Crash: 0.3, Corrupt: 0.3}); err != nil {
		t.Fatal(err)
	}
	if p.FaultHistory() != nil {
		t.Fatal("fault history non-empty before any run")
	}

	res, err := p.RunWith([]string{"performance"}, RunOptions{
		AutoComplete: true, MaxIterations: 30, MaxFailures: 5,
		Recovery: DefaultRecovery(),
	})
	if err != nil {
		t.Fatalf("recovered run failed: %v", err)
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("outcomes = %d, want 2", len(res.Outcomes))
	}
	if p.FaultsInjected() == 0 {
		t.Fatal("seed 10 at 30%/30% injected nothing")
	}
	if len(p.FaultHistory()) < p.FaultsInjected() {
		t.Fatal("history shorter than injected count")
	}
	// RunWith auto-installed the fault detector: accepted outputs are clean.
	for _, o := range res.Outcomes {
		rule := p.mgr.Schema.RuleByActivity(o.Activity)
		_, ent, err := p.mgr.Exec.LatestEntity(rule.Output)
		if err != nil || ent == nil {
			t.Fatalf("%s: no accepted entity: %v", o.Activity, err)
		}
		obj, err := p.mgr.Data.Get(ent.Data)
		if err != nil {
			t.Fatal(err)
		}
		if fault.Check(o.Activity, obj.Bytes) != nil {
			t.Fatalf("%s: corrupt output accepted", o.Activity)
		}
	}
	// The plan's counters reached the project metrics (summed over the
	// family's kind= series).
	var total float64
	for _, s := range p.Metrics() {
		if s.Name == "fault_injected_total" {
			total += s.Value
		}
	}
	if int(total) != p.FaultsInjected() {
		t.Fatalf("fault_injected_total = %v, want %d", total, p.FaultsInjected())
	}
}

// TestAddAlternateTool: alternates validate the activity, and the
// facade's what-if sweep accepts fault-injecting scenarios.
func TestAddAlternateTool(t *testing.T) {
	p := prepared(t)
	alt, err := NewSimTool("simulator", "sim#alt", ToolProfile{Base: time.Hour, MeanIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddAlternateTool("Route", alt); err == nil {
		t.Fatal("unknown activity accepted")
	}
	if err := p.AddAlternateTool("Simulate", alt); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	rep, err := p.Scenarios([]string{"performance"}, []ScenarioEdit{
		{Name: "chaotic", Faults: &FaultConfig{Seed: 3, Crash: 0.4, Corrupt: 0.2}},
	}, ScenarioOptions{Recovery: DefaultRecovery()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios[0].FaultsInjected == 0 {
		t.Fatal("what-if faults injected nothing")
	}
}
