package flowsched

import (
	"strings"
	"testing"
	"time"

	"flowsched/internal/obs"
)

// TestMemoryFootprintCountsRiskMemo: the host's byte-budget LRU evicts
// by MemoryFootprint, so the trial streams a risk run leaves in the
// project's memo must show in it.
func TestMemoryFootprintCountsRiskMemo(t *testing.T) {
	p := prepared(t)
	before := p.MemoryFootprint()
	if _, err := p.SimulateRiskWith([]string{"performance"}, RiskOptions{Trials: 5000, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	memo := p.riskMemo.Stats().Bytes
	if memo == 0 {
		t.Fatal("risk run left nothing in the memo")
	}
	if got := p.MemoryFootprint() - before; got != memo {
		t.Fatalf("footprint grew by %d bytes, want the memo's %d", got, memo)
	}
}

func TestSimulateRisk(t *testing.T) {
	p := prepared(t)
	res, err := p.SimulateRiskWith([]string{"performance"}, RiskOptions{Trials: 500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Durations) != 500 {
		t.Fatalf("trials = %d", len(res.Durations))
	}
	// Fig4 defaults: editor 6h×~1.6 iters + simulator 3h×~2.2 iters: mean
	// span well above the single-iteration sum (9h) and below the cap.
	mean := res.Mean()
	if mean < 9*time.Hour || mean > 40*time.Hour {
		t.Fatalf("mean span = %v", mean)
	}
	if res.Percentile(0.9) <= res.Percentile(0.1) {
		t.Fatal("no distribution spread")
	}
	// Chain flow: both activities are always critical.
	if res.Criticality["Create"] != 1 || res.Criticality["Simulate"] != 1 {
		t.Fatalf("criticality = %v", res.Criticality)
	}
	// Reproducible.
	res2, _ := p.SimulateRiskWith([]string{"performance"}, RiskOptions{Trials: 500, Seed: 11})
	if res.Mean() != res2.Mean() {
		t.Fatal("risk analysis not reproducible")
	}
}

func TestSimulateRiskConsistentWithExecution(t *testing.T) {
	// The risk model and the real execution share the tool profiles, so
	// the actual span must land inside the sampled range.
	p := prepared(t)
	res, err := p.SimulateRiskWith([]string{"performance"}, RiskOptions{Trials: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := p.Run([]string{"performance"}, false)
	if err != nil {
		t.Fatal(err)
	}
	var actual time.Duration
	for _, o := range exec.Outcomes {
		actual += p.Calendar().WorkBetween(o.Started, o.Finished)
	}
	lo := res.Durations[0]
	hi := res.Durations[len(res.Durations)-1]
	if actual < lo/2 || actual > hi*2 {
		t.Fatalf("actual %v far outside sampled range [%v, %v]", actual, lo, hi)
	}
}

func TestSimulateRiskWorkerEquivalence(t *testing.T) {
	// The facade's parallel default must be bit-identical to a forced
	// serial run: same shards, same per-shard streams, any worker count.
	p := prepared(t)
	serial, err := p.SimulateRiskWith([]string{"performance"},
		RiskOptions{Trials: 800, Seed: 23, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		got, err := p.SimulateRiskWith([]string{"performance"},
			RiskOptions{Trials: 800, Seed: 23, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.Durations {
			if got.Durations[i] != serial.Durations[i] {
				t.Fatalf("workers=%d: Durations[%d] = %v, serial %v",
					workers, i, got.Durations[i], serial.Durations[i])
			}
		}
		for name, want := range serial.Criticality {
			if got.Criticality[name] != want {
				t.Fatalf("workers=%d: Criticality[%s] differs", workers, name)
			}
		}
		for name, want := range serial.MeanIterObserved {
			if got.MeanIterObserved[name] != want {
				t.Fatalf("workers=%d: MeanIterObserved[%s] differs", workers, name)
			}
		}
	}
}

func TestSimulateRiskDefaultTrials(t *testing.T) {
	p := prepared(t)
	res, err := p.SimulateRiskWith([]string{"performance"}, RiskOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Durations) != 1000 {
		t.Fatalf("default trials = %d", len(res.Durations))
	}
}

func TestSimulateRiskErrors(t *testing.T) {
	p := newProject(t)
	if _, err := p.SimulateRiskWith([]string{"performance"}, RiskOptions{Trials: 10, Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "no tool bound") {
		t.Fatalf("err = %v, want no-tool", err)
	}
	if _, err := p.SimulateRiskWith([]string{"ghost"}, RiskOptions{Trials: 10, Seed: 1}); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestSimulateRiskDeterministicUnderTracing(t *testing.T) {
	// Request-scoped tracing must be a pure observer: with a per-request
	// tracer capturing the view and a parent span in place (the serving
	// path's exact shape), the sampled distribution stays bit-identical
	// to the untraced serial run for any worker count.
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
	serial, err := p.SimulateRiskWith([]string{"performance"},
		RiskOptions{Trials: 800, Seed: 23, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		tr := obs.NewTracer(obs.DefaultMaxSpans)
		v, err := p.View()
		if err != nil {
			t.Fatal(err)
		}
		root := tr.Start(nil, "serve.risk", v.Now())
		v = v.CaptureTrace(tr, root)
		got, err := v.SimulateRiskWith([]string{"performance"},
			RiskOptions{Trials: 800, Seed: 23, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		root.End(v.Now())
		for i := range serial.Durations {
			if got.Durations[i] != serial.Durations[i] {
				t.Fatalf("workers=%d traced: Durations[%d] = %v, serial untraced %v",
					workers, i, got.Durations[i], serial.Durations[i])
			}
		}
		spans := tr.Spans()
		if err := obs.ValidateContainment(spans); err != nil {
			t.Fatalf("workers=%d: containment: %v", workers, err)
		}
		var sawMonte bool
		for _, sp := range spans {
			if sp.Name == "monte.simulate" {
				sawMonte = true
			}
		}
		if !sawMonte {
			t.Fatalf("workers=%d: request trace lacks the monte subtree", workers)
		}
	}
}

func TestProjectFlightRecorder(t *testing.T) {
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
	if _, err := p.SimulateRiskWith([]string{"performance"}, RiskOptions{Trials: 200, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	recent, slowest := p.FlightRecords()
	if len(recent) != 1 || len(slowest) != 1 {
		t.Fatalf("flight tiers = %d/%d, want 1/1", len(recent), len(slowest))
	}
	rec := recent[0]
	if rec.Route != "risk" || rec.SampledTrials == 0 || rec.TraceID == "" {
		t.Fatalf("flight record = %+v", rec)
	}
	if txt := p.FlightText(); !strings.Contains(txt, "risk") {
		t.Fatalf("FlightText lacks the risk record:\n%s", txt)
	}
	if errs := p.LintMetrics(); len(errs) != 0 {
		t.Fatalf("project registry lint: %v", errs)
	}
	// Uninstrumented projects stay nil-safe.
	bare, err := New(Fig4Schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r, s := bare.FlightRecords(); r != nil || s != nil {
		t.Fatal("uninstrumented project has flight records")
	}
	if errs := bare.LintMetrics(); errs != nil {
		t.Fatalf("uninstrumented lint: %v", errs)
	}
}

// TestRiskModelMemo: the risk models and their fingerprint are derived
// once per (tool-binding generation, target set) and shared by every
// view; a view keeps answering from the set it derived even after a
// rebinding, while a fresh view sees the new binding. Errors are never
// filed, the memo stays bounded whatever target lists arrive, and a
// fork derives into a memo of its own.
func TestRiskModelMemo(t *testing.T) {
	p := prepared(t)
	targets := []string{"performance"}
	opt := RiskOptions{Trials: 400, Seed: 9}
	view := func() *ProjectView {
		t.Helper()
		v, err := p.View()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	set := func(v *ProjectView) *riskModelSet {
		t.Helper()
		s, err := v.riskModels(targets)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	v1 := view()
	fp1, err := v1.RiskFingerprint(targets, opt)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := v1.SimulateRiskWith(targets, opt)
	if err != nil {
		t.Fatal(err)
	}
	if set(view()) != set(v1) {
		t.Fatal("a second view at one generation derived the models again")
	}

	slow, err := NewSimTool("simulator", "simulator#9", ToolProfile{Base: 30 * time.Hour, Jitter: 0.1, MeanIterations: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.BindTool("Simulate", slow); err != nil {
		t.Fatal(err)
	}
	if fp, _ := v1.RiskFingerprint(targets, opt); fp != fp1 {
		t.Fatal("a rebinding changed what an existing view fingerprints")
	}
	if res, _ := v1.SimulateRiskWith(targets, opt); res.Mean() != res1.Mean() {
		t.Fatal("a rebinding changed what an existing view simulates")
	}
	v2 := view()
	if fp, _ := v2.RiskFingerprint(targets, opt); fp == fp1 {
		t.Fatal("a fresh view after the rebinding kept the fingerprint")
	}
	if res, _ := v2.SimulateRiskWith(targets, opt); res.Mean() <= res1.Mean() {
		t.Fatalf("a fresh view simulated mean %v after binding a slower Simulate, want above %v", res.Mean(), res1.Mean())
	}

	if _, err := view().RiskFingerprint([]string{"nope"}, opt); err == nil {
		t.Fatal("unknown target fingerprinted")
	}
	if _, filed := p.riskModels.sets["nope"]; filed {
		t.Fatal("a failed derivation was filed")
	}
	for i := 1; i <= 3*maxRiskModelSets; i++ {
		many := make([]string, i)
		for j := range many {
			many[j] = "performance"
		}
		if _, err := view().riskModels(many); err != nil {
			t.Fatal(err)
		}
		if n := len(p.riskModels.sets); n > maxRiskModelSets {
			t.Fatalf("memo holds %d target sets, bound %d", n, maxRiskModelSets)
		}
	}

	f, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	fv, err := f.View()
	if err != nil {
		t.Fatal(err)
	}
	if fs, err := fv.riskModels(targets); err != nil || fs == set(view()) || len(f.riskModels.sets) != 1 {
		t.Fatalf("fork derivation: err %v, shared the parent's set: %t, fork memo %d sets", err, fs == set(view()), len(f.riskModels.sets))
	}
}

// TestRiskModelMemoKeysAreExact: a target list that aliases another
// list's memo key (a target holding the key separator) is derived for
// itself — here, refused as unknown — instead of served the other
// list's models.
func TestRiskModelMemoKeysAreExact(t *testing.T) {
	p := prepared(t)
	v, err := p.View()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.riskModels([]string{"performance", "performance"}); err != nil {
		t.Fatal(err)
	}
	v, err = p.View()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.riskModels([]string{"performance\x00performance"}); err == nil {
		t.Fatal("a target aliasing a filed list's key was served that list's models")
	}
}
