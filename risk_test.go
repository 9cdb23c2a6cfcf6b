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
