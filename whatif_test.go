package flowsched

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func sweepEdits() []ScenarioEdit {
	return []ScenarioEdit{
		{Name: "sim-slow", Scale: map[string]float64{"Simulate": 2}},
		{Name: "sim-fast", Scale: map[string]float64{"Simulate": 0.5}},
		{Name: "edit-slow", Scale: map[string]float64{"Create": 1.5}},
		{Name: "edit-slip", Delay: map[string]time.Duration{"Create": 16 * time.Hour}},
		{Name: "sim-slip", Delay: map[string]time.Duration{"Simulate": 8 * time.Hour}},
		{Name: "both-slow", Scale: map[string]float64{"Create": 1.25, "Simulate": 1.25}},
		{Name: "team", Parallel: true},
		{Name: "crunch", Scale: map[string]float64{"Create": 0.75, "Simulate": 0.75}},
	}
}

func TestProjectForkIsolation(t *testing.T) {
	p := prepared(t)
	if _, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run([]string{"performance"}, true); err != nil {
		t.Fatal(err)
	}
	parentDump := p.DatabaseDump()
	parentVersion := p.CurrentPlan().Version

	f, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if f.DatabaseDump() != parentDump {
		t.Fatal("fork database differs from parent at fork time")
	}
	if f.CurrentPlan() == nil || f.CurrentPlan().Version != parentVersion {
		t.Fatal("fork lost the tracked plan")
	}
	if f.CurrentPlan() == p.CurrentPlan() {
		t.Fatal("fork shares the parent's plan struct")
	}

	// Re-plan and re-run only in the fork.
	fp, err := f.Plan([]string{"performance"}, Fixed{Default: 2 * time.Hour}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Version != parentVersion+1 {
		t.Fatalf("fork plan version = %d, want %d", fp.Version, parentVersion+1)
	}
	if _, err := f.Run([]string{"performance"}, true); err != nil {
		t.Fatal(err)
	}
	if p.DatabaseDump() != parentDump {
		t.Fatal("fork activity leaked into the parent database")
	}
	if p.CurrentPlan().Version != parentVersion {
		t.Fatal("fork re-plan changed the parent's tracked plan")
	}
	// Both sides keep answering reports from their own state.
	if _, err := viewOf(t, f).Status(); err != nil {
		t.Fatal(err)
	}
	if _, err := viewOf(t, p).Status(); err != nil {
		t.Fatal(err)
	}
}

func TestScenariosDeterministicAcrossWorkers(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 8} {
		p := prepared(t)
		rep, err := p.Scenarios([]string{"performance"}, sweepEdits(), ScenarioOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(rep.Scenarios) != 8 {
			t.Fatalf("workers=%d: %d scenarios, want 8", workers, len(rep.Scenarios))
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = string(b)
		} else if string(b) != want {
			t.Fatalf("workers=%d report differs from workers=1", workers)
		}
	}
}

func TestScenariosLeaveProjectUntouched(t *testing.T) {
	p := prepared(t)
	if _, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	before := p.DatabaseDump()
	plan := p.CurrentPlan()
	rep, err := p.Scenarios([]string{"performance"}, sweepEdits(), ScenarioOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.DatabaseDump() != before {
		t.Fatal("sweep wrote the project database")
	}
	if !reflect.DeepEqual(p.CurrentPlan(), plan) {
		t.Fatal("sweep replaced the tracked plan")
	}
	if !strings.Contains(rep.Render(), "baseline") {
		t.Fatal("report render missing baseline row")
	}
}

// Satellite (c): a fork's risk analysis is bit-identical to the parent's
// — same tool-derived stochastic models, same seed, same trial sharding.
func TestRiskOnForkMatchesParent(t *testing.T) {
	p := prepared(t)
	want, err := p.SimulateRiskWith([]string{"performance"}, RiskOptions{Trials: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.SimulateRiskWith([]string{"performance"}, RiskOptions{Trials: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Fatalf("fork risk result differs from parent:\n%s\nvs\n%s", gb, wb)
	}
}

// Satellite: report surfaces polled from another goroutine while the
// project executes answer from consistent snapshots (dump headers and
// entry counts always agree).
func TestDumpAndStatusDuringParallelRun(t *testing.T) {
	p := prepared(t)
	if _, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if dump := p.DatabaseDump(); !strings.Contains(dump, "execution space:") {
				select {
				case errs <- fmt.Errorf("dump lost its space header:\n%s", dump):
				default:
				}
			}
			v, err := p.View()
			if err == nil {
				_, err = v.Status()
			}
			if err != nil {
				select {
				case errs <- err:
				default:
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	if _, err := p.RunParallel([]string{"performance"}, true); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("concurrent report failed: %v", err)
	default:
	}
}

// TestWhatIfFingerprintContract pins the fingerprint semantics: stable
// across unrelated store writes, changed by edits that change the
// sweep, and refused outright for inputs hashing cannot capture.
func TestWhatIfFingerprintContract(t *testing.T) {
	p := prepared(t)
	v, err := p.View()
	if err != nil {
		t.Fatal(err)
	}
	targets := []string{"performance"}
	edits := sweepEdits()
	fp1, err := v.WhatIfFingerprint(targets, edits, ScenarioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := v.WhatIfFingerprint(targets, edits, ScenarioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprint not deterministic: %s vs %s", fp1, fp2)
	}
	// A different edit set is a different fingerprint.
	other, err := v.WhatIfFingerprint(targets, sweepEdits()[:1], ScenarioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if other == fp1 {
		t.Fatal("distinct edit sets share a fingerprint")
	}
	// Fault-injection edits are refused — their behaviour is not
	// capturable by hashing, and a false hit would serve stale bytes.
	_, err = v.WhatIfFingerprint(targets, []ScenarioEdit{
		{Name: "chaos", Faults: &FaultConfig{Seed: 1}},
	}, ScenarioOptions{})
	if err == nil {
		t.Fatal("fault edits must refuse a fingerprint")
	}
	// Custom estimators likewise.
	_, err = v.WhatIfFingerprint(targets, edits, ScenarioOptions{Estimator: Fixed{Default: time.Hour}})
	if err == nil {
		t.Fatal("custom estimators must refuse a fingerprint")
	}
}

// TestWhatIfSweepAllocs bounds the allocations of
// BenchmarkAblation_WhatIfSweep's sweep. A fork reuses its parent's
// validated schedule and execution spaces, and the activity loop builds
// event details, entry IDs, design refs and simulated tool output
// without fmt; together they took the sweep from 10,860 allocations to
// about 8,400 (Go 1.24). The bound is 15% under the former count.
func TestWhatIfSweepAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the designer loop")
	}
	p := designerProject(t, 10)
	targets := []string{"drcreport", "lvsreport", "timingreport", "simreport"}
	edits := asicSweepEdits()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := p.Scenarios(targets, edits, ScenarioOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 10860 * 85 / 100
	if allocs > bound {
		t.Fatalf("what-if sweep: %.0f allocs, want at most %d", allocs, bound)
	}
}

// faultedSweepProject returns a prepared project with a fault plan armed
// (seed 10, 30% crashes, 30% corrupt outputs) and one recovered run
// behind it, so the plan's streams have advanced before any fork.
func faultedSweepProject(t *testing.T) *Project {
	t.Helper()
	p := prepared(t)
	if _, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := p.InjectFaults(FaultConfig{Seed: 10, Crash: 0.3, Corrupt: 0.3}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunWith([]string{"performance"}, RunOptions{
		AutoComplete: true, MaxIterations: 30, MaxFailures: 5, Recovery: DefaultRecovery(),
	}); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFaultedSweepDeterministicAcrossWorkers: each fork of a project
// with an armed fault plan draws from its own fork of the plan, so which
// fork draws which fault no longer depends on how the workers interleave.
func TestFaultedSweepDeterministicAcrossWorkers(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 8} {
		p := faultedSweepProject(t)
		rep, err := p.Scenarios([]string{"performance"}, sweepEdits(), ScenarioOptions{
			Workers: workers, Recovery: DefaultRecovery(),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		injected := 0
		for _, o := range rep.Scenarios {
			injected += o.FaultsInjected
		}
		if injected == 0 {
			t.Fatalf("workers=%d: the sweep's forks injected no faults", workers)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = string(b)
		} else if string(b) != want {
			t.Fatalf("workers=%d faulted sweep differs from workers=1:\n%s\nvs\n%s", workers, b, want)
		}
	}
}

// TestFaultedSweepLeavesParentFaultsUntouched: a sweep neither adds to
// the parent's fault history nor advances its fault streams, so a
// resume after the sweep draws exactly the faults it draws without one.
func TestFaultedSweepLeavesParentFaultsUntouched(t *testing.T) {
	resumeAfter := func(sweep bool) (history string, resumed string) {
		p := prepared(t)
		if err := p.InjectFaults(FaultConfig{Seed: 1, Crash: 0.95}); err != nil {
			t.Fatal(err)
		}
		_, err := p.RunWith([]string{"performance"}, RunOptions{AutoComplete: true})
		var ee *ExecError
		if !errors.As(err, &ee) {
			t.Fatalf("run under 95%% crashes did not fail with an ExecError: %v", err)
		}
		if sweep {
			rec := DefaultRecovery()
			rec.ContinueOnBlock = true
			if _, err := p.Scenarios([]string{"performance"}, sweepEdits(), ScenarioOptions{Workers: 4, Recovery: rec}); err != nil {
				t.Fatal(err)
			}
		}
		h, err := json.Marshal(p.FaultHistory())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ee.Resume()
		out, merr := json.Marshal(res)
		if merr != nil {
			t.Fatal(merr)
		}
		after, merr := json.Marshal(p.FaultHistory())
		if merr != nil {
			t.Fatal(merr)
		}
		return string(h), fmt.Sprintf("%s|%v|%s", out, err, after)
	}
	h0, r0 := resumeAfter(false)
	h1, r1 := resumeAfter(true)
	if h1 != h0 {
		t.Fatalf("sweep changed the parent's fault history:\n%s\nvs\n%s", h1, h0)
	}
	if r1 != r0 {
		t.Fatalf("resume after a sweep differs from one without:\n%s\nvs\n%s", r1, r0)
	}
}

// TestProjectForkCarriesFaultPlan: Project.Fork continues the armed
// plan on a copy, so the fork's runs extend its own history and leave
// the parent's as it was.
func TestProjectForkCarriesFaultPlan(t *testing.T) {
	p := faultedSweepProject(t)
	before := p.FaultHistory()
	f, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if f.FaultHistory() != nil {
		t.Fatal("a fork starts with the parent's fault history")
	}
	if _, err := f.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunWith([]string{"performance"}, RunOptions{
		AutoComplete: true, MaxIterations: 30, MaxFailures: 5, Recovery: DefaultRecovery(),
	}); err != nil {
		t.Fatal(err)
	}
	if len(f.FaultHistory()) == 0 {
		t.Fatal("the fork's run drew no fault decisions from its plan")
	}
	if got := p.FaultHistory(); len(got) != len(before) {
		t.Fatalf("the fork's run added %d decisions to the parent's history", len(got)-len(before))
	}
}
