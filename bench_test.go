// Benchmarks, one per exhibit of the paper (Table I, Figs. 1–8) plus the
// quantitative experiments E1–E5 of DESIGN.md. Each bench drives the same
// machinery the corresponding exhibit is generated from, so `go test
// -bench=.` doubles as a performance regression harness for the whole
// reproduction.
package flowsched

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"flowsched/internal/arch"
	"flowsched/internal/baseline"
	"flowsched/internal/fourlevel"
	"flowsched/internal/gantt"
	"flowsched/internal/level"
	"flowsched/internal/pert"
	"flowsched/internal/predict"
	"flowsched/internal/report"
	"flowsched/internal/scenario"
	"flowsched/internal/schema"
	"flowsched/internal/vclock"
	"flowsched/internal/workload"
)

// BenchmarkTableI_AdapterConformance instantiates all six surveyed
// systems on the Fig. 4 schema and renders Table I.
func BenchmarkTableI_AdapterConformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		systems := fourlevel.AllSystems()
		for _, s := range systems {
			if err := s.Instantiate(workload.Fig4()); err != nil {
				b.Fatal(err)
			}
		}
		if out := fourlevel.TableI(systems); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig1_PlanAndLink measures the full plan→execute→link cycle
// whose result Fig. 1 depicts.
func BenchmarkFig1_PlanAndLink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := report.NewScenario()
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_DatabaseInit measures task-database initialization from a
// schema (both Level 3 spaces).
func BenchmarkFig2_DatabaseInit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := New(Fig4Schema, Options{Designer: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		_ = p
	}
}

// BenchmarkFig3_MirrorSpaces measures the paired execution/schedule
// space population of the paper scenario.
func BenchmarkFig3_MirrorSpaces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_SchemaParse measures parsing the construction-rule DSL.
func BenchmarkFig4_SchemaParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := schema.Parse(workload.Fig4Source); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_Planning measures schedule planning (simulated
// execution) on the paper scenario: two planning passes.
func BenchmarkFig5_Planning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.NewScenario(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6_Execution measures flow execution with iteration (two
// runs per activity).
func BenchmarkFig6_Execution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := report.NewScenario()
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7_CompleteAndLink measures completion linking and slip
// propagation in isolation (plan + execute prepared outside the loop is
// impossible since completion mutates; re-measure the delta over Fig6 by
// comparison).
func BenchmarkFig7_CompleteAndLink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8_GanttRender measures Gantt rendering of a 20-task plan.
func BenchmarkFig8_GanttRender(b *testing.B) {
	cal := vclock.Standard()
	rows := make([]gantt.Row, 20)
	at := vclock.Epoch
	for i := range rows {
		fin := cal.AddWork(at, 8*time.Hour)
		rows[i] = gantt.Row{
			Name: "task" + string(rune('a'+i)), PlannedStart: at, PlannedFinish: fin,
			ActualStart: at, ActualFinish: fin, Done: i%2 == 0,
		}
		at = fin
	}
	c := &gantt.Chart{Title: "bench", Calendar: cal, Rows: rows, Now: at}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := c.Render(); len(out) == 0 {
			b.Fatal("empty chart")
		}
	}
}

// BenchmarkE1_TrackingDrift measures the integrated-vs-separate tracking
// comparison over a 200-event stream.
func BenchmarkE1_TrackingDrift(b *testing.B) {
	events := make([]baseline.Event, 200)
	at := vclock.Epoch
	for i := range events {
		kind := baseline.Start
		if i%2 == 1 {
			kind = baseline.Finish
		}
		events[i] = baseline.Event{Activity: "a", Kind: kind, At: at}
		at = at.Add(5 * time.Hour)
	}
	cfg := baseline.SeparateConfig{
		Period: 7 * 24 * time.Hour, FirstMeeting: vclock.Epoch.Add(48 * time.Hour),
		MissProb: 0.1, Seed: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Compare(events, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_Prediction measures predictor evaluation over a 64-project
// history.
func BenchmarkE2_Prediction(b *testing.B) {
	samples := make([]predict.Sample, 64)
	for i := range samples {
		samples[i] = predict.Sample{
			Duration: time.Duration(20+i%7) * time.Hour,
			Size:     1 + float64(i)*0.05,
		}
	}
	preds := []predict.Predictor{predict.Mean{}, predict.EWMA{Alpha: 0.5}, predict.Regression{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range preds {
			if _, err := predict.Evaluate(p, samples, 4); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchScale plans and executes a layered flow of the given size.
func benchScale(b *testing.B, depth, width int, execute bool) {
	b.Helper()
	sch, err := workload.Layered(workload.LayeredConfig{
		Depth: depth, Width: width, FanIn: 2, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	est, err := workload.Estimates(sch, 8*time.Hour, 0.2, 5)
	if err != nil {
		b.Fatal(err)
	}
	targets := sch.PrimaryOutputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := NewFromSchema(sch, Options{Designer: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Plan(targets, est, PlanOptions{}); err != nil {
			b.Fatal(err)
		}
		if !execute {
			continue
		}
		if err := p.UseSimulatedTools(); err != nil {
			b.Fatal(err)
		}
		for _, leaf := range sch.PrimaryInputs() {
			if _, err := p.Import(leaf, []byte("seed")); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := p.Run(targets, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_PlanScale sweeps planning over growing flows.
func BenchmarkE3_PlanScale_16(b *testing.B)  { benchScale(b, 4, 4, false) }
func BenchmarkE3_PlanScale_64(b *testing.B)  { benchScale(b, 8, 8, false) }
func BenchmarkE3_PlanScale_256(b *testing.B) { benchScale(b, 16, 16, false) }

// BenchmarkE3_ExecScale sweeps tracked execution over growing flows.
func BenchmarkE3_ExecScale_16(b *testing.B) { benchScale(b, 4, 4, true) }
func BenchmarkE3_ExecScale_64(b *testing.B) { benchScale(b, 8, 8, true) }

// BenchmarkE4_CriticalPath measures CPM analysis on a 256-activity network.
func BenchmarkE4_CriticalPath(b *testing.B) {
	sch, err := workload.Layered(workload.LayeredConfig{Depth: 16, Width: 16, FanIn: 2, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	var acts []pert.Activity
	for _, r := range sch.Rules() {
		var preds []string
		for _, in := range r.Inputs {
			if p := sch.Producer(in); p != nil {
				preds = append(preds, p.Activity)
			}
		}
		acts = append(acts, pert.Activity{Name: r.Activity, Duration: 8 * time.Hour, Preds: preds})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := pert.NewNetwork(acts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5_Query measures §IV.B query evaluation over a populated
// database.
func BenchmarkE5_Query(b *testing.B) {
	p, err := New(Fig4Schema, Options{Designer: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.UseSimulatedTools(); err != nil {
		b.Fatal(err)
	}
	if _, err := p.Import("stimuli", []byte("v")); err != nil {
		b.Fatal(err)
	}
	if _, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		b.Fatal(err)
	}
	if _, err := p.Run([]string{"performance"}, true); err != nil {
		b.Fatal(err)
	}
	queries := []string{"duration of Create", "lineage", "load", "runs of Create"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := viewOf(b, p)
		for _, q := range queries {
			if _, err := v.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablation benches for DESIGN.md design choices -------------------------

// BenchmarkAblation_ResourceLeveling compares list scheduling across team
// sizes on a 64-activity flow (the cost of the optimization itself).
func BenchmarkAblation_ResourceLeveling(b *testing.B) {
	sch, err := workload.Layered(workload.LayeredConfig{Depth: 8, Width: 8, FanIn: 2, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	var tasks []level.Task
	for _, r := range sch.Rules() {
		var preds []string
		for _, in := range r.Inputs {
			if p := sch.Producer(in); p != nil {
				preds = append(preds, p.Activity)
			}
		}
		tasks = append(tasks, level.Task{Name: r.Activity, Duration: 8 * time.Hour, Preds: preds})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := level.MinimalTeam(tasks, 8, 1.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_SnapshotRestore measures persisting and restoring a
// full executed session (session), and encoding and decoding the image
// of a designer-scale ASIC project — the checkpoint payload and what
// recovery decodes it with (encode, decode; bytes are image bytes).
func BenchmarkAblation_SnapshotRestore(b *testing.B) {
	b.Run("session", func(b *testing.B) {
		p, err := New(Fig4Schema, Options{Designer: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.UseSimulatedTools(); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Import("stimuli", []byte("v")); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run([]string{"performance"}, true); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blob, err := p.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Load(blob, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	p := designerProject(b, 100)
	img, err := p.encodeImage("", "")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(img)))
		for i := 0; i < b.N; i++ {
			if _, err := p.encodeImage("", ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(img)))
		for i := 0; i < b.N; i++ {
			if _, err := decodeImage(img, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_WhatIfSweep measures a what-if sweep of the ASIC
// flow: eight edited forks plus the baseline, each re-planned and
// re-executed to sign-off, on a project that has been through 10 or 150
// designer iterations. The forks write only to their own copy-on-write
// stores, so allocations per sweep show what the forks' writes cost, and
// the 150-iteration case shows whether that cost grows with the history
// the forks inherit.
func BenchmarkAblation_WhatIfSweep(b *testing.B) {
	targets := []string{"drcreport", "lvsreport", "timingreport", "simreport"}
	edits := asicSweepEdits()
	for _, iterations := range []int{10, 150} {
		p := designerProject(b, iterations)
		b.Run(fmt.Sprintf("iterations=%d", iterations), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := p.Scenarios(targets, edits, ScenarioOptions{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Scenarios) != len(edits) {
					b.Fatalf("%d scenarios, want %d", len(rep.Scenarios), len(edits))
				}
			}
		})
	}
}

// BenchmarkAblation_WhatIfRiskSweep adds the Monte-Carlo risk
// dimension (1000 trials) to what-if sweeps of growing scenario count,
// each scenario one slower late-stage activity. The baseline's trial
// streams are shared through the sweep's memo, so the activity-trials
// sampled grow with the edited subtrees and the rest are reused.
func BenchmarkAblation_WhatIfRiskSweep(b *testing.B) {
	p := designerProject(b, 10)
	targets := []string{"drcreport", "lvsreport", "timingreport", "simreport"}
	opt := ScenarioOptions{Workers: 1, Risk: &scenario.RiskSpec{Trials: 1000, Seed: 1995}}
	for _, n := range []int{5, 25, 100} {
		edits := report.RiskSweepEdits(n)
		b.Run(fmt.Sprintf("scenarios=%d", n), func(b *testing.B) {
			var rep *ScenarioReport
			for i := 0; i < b.N; i++ {
				var err error
				if rep, err = p.Scenarios(targets, edits, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.RiskSampledTrials), "sampled-trials/op")
			b.ReportMetric(float64(rep.RiskReusedTrials), "reused-trials/op")
		})
	}
}

// BenchmarkAblation_PMViews measures the project manager's read
// surface (paper §IV.C): a fresh view of a project after 24 designer
// iterations with 24 milestones set, rendered as the Gantt chart, the
// milestone report and the dashboard. All three rest on working-time
// arithmetic over the plan's span. The project is in memory, where
// every entry keeps its decoded payload, and durable (Open, no fsync),
// where only each container's latest entry does, as in a served tenant.
func BenchmarkAblation_PMViews(b *testing.B) {
	b.Run("memory", func(b *testing.B) { benchPMViews(b, designerProject(b, 24)) })
	b.Run("durable", func(b *testing.B) { benchPMViews(b, durableDesigner(b, 24)) })
}

// benchPMViews sets BenchmarkAblation_PMViews's 24 milestones on p and
// times the three renders on a fresh view.
func benchPMViews(b *testing.B, p *Project) {
	addMilestones(b, p, "m", 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := p.View()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Gantt(); err != nil {
			b.Fatal(err)
		}
		if rows, err := v.MilestoneReport(); err != nil || len(rows) != 24 {
			b.Fatalf("milestone report: %d rows, %v", len(rows), err)
		}
		if _, err := v.Dashboard(); err != nil {
			b.Fatal(err)
		}
	}
}

// asicSweepEdits is sweepEdits for the ASIC flow's activities: slower
// and faster tools, slips, a parallel team and a crunch.
func asicSweepEdits() []ScenarioEdit {
	return []ScenarioEdit{
		{Name: "synth-slow", Scale: map[string]float64{"Synthesize": 2}},
		{Name: "sim-fast", Scale: map[string]float64{"GateSim": 0.5}},
		{Name: "route-slow", Scale: map[string]float64{"Route": 1.5}},
		{Name: "route-slip", Delay: map[string]time.Duration{"Route": 16 * time.Hour}},
		{Name: "sta-slip", Delay: map[string]time.Duration{"STA": 8 * time.Hour}},
		{Name: "both-slow", Scale: map[string]float64{"Synthesize": 1.25, "Route": 1.25}},
		{Name: "team", Parallel: true},
		{Name: "crunch", Scale: map[string]float64{"Synthesize": 0.75, "Route": 0.75}},
	}
}

// designerProject runs TestDurableEncodingSize's designer loop on an
// in-memory ASIC project: import constraints and testbench once, then
// import RTL, plan and run to sign-off, iterations times.
func designerProject(tb testing.TB, iterations int) *Project {
	tb.Helper()
	p, err := New(ASICSchema, Options{Designer: "bench"})
	if err != nil {
		tb.Fatal(err)
	}
	designerLoop(tb, p, iterations)
	return p
}

// designerLoop is designerProject's loop over a project already made.
func designerLoop(tb testing.TB, p *Project, iterations int) {
	tb.Helper()
	if err := p.UseSimulatedTools(); err != nil {
		tb.Fatal(err)
	}
	text := randomText(1)
	for _, class := range []string{"constraints", "testbench"} {
		if _, err := p.Import(class, text(512)); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < iterations; i++ {
		designerIteration(tb, p, text(2048))
	}
}

// randomText returns a generator of hex-digit text, seeded.
func randomText(seed int64) func(n int) []byte {
	r := rand.New(rand.NewSource(seed))
	return func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = "0123456789abcdef"[r.Intn(16)]
		}
		return b
	}
}

// designerIteration imports rtl, plans and runs to sign-off.
func designerIteration(tb testing.TB, p *Project, rtl []byte) {
	tb.Helper()
	targets := []string{"drcreport", "lvsreport", "timingreport", "simreport"}
	if _, err := p.Import("rtl", rtl); err != nil {
		tb.Fatal(err)
	}
	if _, err := p.Plan(targets, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		tb.Fatal(err)
	}
	if _, err := p.RunWith(targets, RunOptions{AutoComplete: true}); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkDesignerIteration measures a designer iteration followed by
// a one-edit what-if sweep, as a designer who asks "and if synthesis
// runs twice as slow?" after every change: the project starts after 24
// iterations and grows by one per op, so compare runs of one fixed
// -benchtime (150x). Every sweep forks a project that has just filed new
// design objects.
func BenchmarkDesignerIteration(b *testing.B) {
	p := designerProject(b, 24)
	text := randomText(2)
	targets := []string{"drcreport", "lvsreport", "timingreport", "simreport"}
	edits := asicSweepEdits()[:1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		designerIteration(b, p, text(2048))
		if _, err := p.Scenarios(targets, edits, ScenarioOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPropagate measures a durable write and the read after it:
// each op is a propagate, then Status on a fresh view, on a durable
// ASIC project (Open in a temp dir, no fsync) after 4 designer
// iterations and a fifth import and plan, so that every activity of the
// tracked plan is pending. /neutral propagates at the clock the plan was
// made at: no slip, so nothing commits and versions/op is 0. /slip
// propagates one working hour later per op: every instance and the plan
// slip, and each is rewritten and logged.
func BenchmarkPropagate(b *testing.B) {
	for _, bc := range []struct {
		name string
		step time.Duration
	}{{"neutral", 0}, {"slip", time.Hour}} {
		b.Run(bc.name, func(b *testing.B) {
			p := durableDesigner(b, 4)
			if _, err := p.Import("rtl", randomText(2)(2048)); err != nil {
				b.Fatal(err)
			}
			targets := []string{"drcreport", "lvsreport", "timingreport", "simreport"}
			if _, err := p.Plan(targets, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
				b.Fatal(err)
			}
			benchPropagate(b, p, bc.step)
		})
	}
}

// benchPropagate times BenchmarkPropagate's op on p, moving the virtual
// clock by step of working time before each propagate.
func benchPropagate(b *testing.B, p *Project, step time.Duration) {
	v0 := p.Version()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if step > 0 {
			p.mgr.Clock.AdvanceTo(p.Calendar().AddWork(p.Now(), step))
		}
		if _, err := p.Propagate(); err != nil {
			b.Fatal(err)
		}
		v, err := p.View()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Status(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.Version()-v0)/float64(b.N), "versions/op")
}

// BenchmarkDurableWrite measures the durable write path: each op is one
// designer iteration (import RTL, plan, run to sign-off) on a durable
// ASIC project in a temp dir that starts after 4 iterations and grows by
// one per op, so compare runs of one fixed -benchtime. Auto-checkpoints
// are off, so B/op and allocs/op are the operations and their WAL
// appends, not a checkpoint image. /nosync skips the fsync that ends
// each operation; /fsync issues it.
func BenchmarkDurableWrite(b *testing.B) {
	for _, bc := range []struct {
		name   string
		noSync bool
	}{{"nosync", true}, {"fsync", false}} {
		b.Run(bc.name, func(b *testing.B) {
			p, err := Open(b.TempDir(), ASICSchema, Options{Designer: "bench"},
				PersistOptions{NoSync: bc.noSync, CheckpointEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { p.Close() }) // untimed: Close checkpoints
			designerLoop(b, p, 4)
			text := randomText(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				designerIteration(b, p, text(2048))
			}
		})
	}
}

// BenchmarkAblation_ArchRollup measures architectural plan + actual
// roll-up over a 3-level, 64-leaf decomposition.
func BenchmarkAblation_ArchRollup(b *testing.B) {
	root := &arch.Block{Name: "chip"}
	for u := 0; u < 8; u++ {
		unit := &arch.Block{Name: fmt.Sprintf("u%d", u)}
		for l := 0; l < 8; l++ {
			unit.Children = append(unit.Children,
				&arch.Block{Name: fmt.Sprintf("u%db%d", u, l), Size: 1000})
		}
		root.Children = append(root.Children, unit)
	}
	d, err := arch.NewDecomposition(root)
	if err != nil {
		b.Fatal(err)
	}
	plan := func(block string, size float64) (time.Time, time.Time, error) {
		return vclock.Epoch, vclock.Epoch.Add(24 * time.Hour), nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := d.Plan(plan)
		if err != nil {
			b.Fatal(err)
		}
		for _, leaf := range d.Leaves() {
			if err := s.RecordActual(leaf.Name, vclock.Epoch,
				vclock.Epoch.Add(30*time.Hour), true); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchRisk measures a 1000-trial Monte-Carlo risk analysis over the
// Fig. 4 flow with default tool profiles at a fixed worker count.
// With instrumented, the project carries the full observability layer
// (metrics + tracing), measuring its overhead on the risk path.
// With quietFaults, a zero-probability fault plan wraps every tool, so
// profiles are read through the injectors.
func benchRisk(b *testing.B, workers int, instrumented, quietFaults bool) {
	b.Helper()
	p, err := New(Fig4Schema, Options{
		Designer: "bench",
		Obs:      ObsOptions{Enabled: instrumented},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.UseSimulatedTools(); err != nil {
		b.Fatal(err)
	}
	if quietFaults {
		if err := p.InjectFaults(FaultConfig{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	opt := RiskOptions{Trials: 1000, Seed: 7, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SimulateRiskWith([]string{"performance"}, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_RiskSimulation is the serial (1-worker) risk engine;
// BenchmarkE6_RiskSimulation_Parallel runs the same sharded engine on
// all cores and must return bit-identical results (see
// internal/monte's equivalence test, and its Simulate benchmarks for
// the trials × workers sweep). BenchmarkE6_RiskSimulation_Instrumented
// is the same serial run with the observability layer enabled; the
// overhead budget is <5% (BENCH_obs.json holds the frozen history).
func BenchmarkE6_RiskSimulation(b *testing.B)              { benchRisk(b, 1, false, false) }
func BenchmarkE6_RiskSimulation_Parallel(b *testing.B)     { benchRisk(b, 0, false, false) }
func BenchmarkE6_RiskSimulation_Instrumented(b *testing.B) { benchRisk(b, 1, true, false) }

// benchExecMode measures tracked ASIC execution under one timeline mode,
// optionally with a zero-probability fault plan around every tool.
func benchExecMode(b *testing.B, parallel, quietFaults bool) {
	b.Helper()
	targets := []string{"drcreport", "lvsreport", "timingreport", "simreport"}
	for i := 0; i < b.N; i++ {
		p, err := New(ASICSchema, Options{Designer: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.UseSimulatedTools(); err != nil {
			b.Fatal(err)
		}
		if quietFaults {
			if err := p.InjectFaults(FaultConfig{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
		for _, leaf := range []string{"rtl", "constraints", "testbench"} {
			if _, err := p.Import(leaf, []byte("x")); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := p.Plan(targets, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
			b.Fatal(err)
		}
		var execErr error
		if parallel {
			_, execErr = p.RunParallel(targets, true)
		} else {
			_, execErr = p.Run(targets, true)
		}
		if execErr != nil {
			b.Fatal(execErr)
		}
	}
}

// BenchmarkAblation_ExecSerial / _ExecParallel compare the two execution
// timeline models on the ASIC flow (the compute cost is similar; the
// virtual-time spans differ — see engine's parallel tests).
func BenchmarkAblation_ExecSerial(b *testing.B)   { benchExecMode(b, false, false) }
func BenchmarkAblation_ExecParallel(b *testing.B) { benchExecMode(b, true, false) }

// BenchmarkAblation_FaultHooks prices the fault-injection hooks armed
// but quiet: the Fig. 4 risk run and the ASIC execution, each plain and
// under a zero-probability plan, so the difference is the injectors'
// per-run cost (one seeded draw and a history append), not any fault.
// The budget is <2% on the risk run.
func BenchmarkAblation_FaultHooks(b *testing.B) {
	for _, quiet := range []bool{false, true} {
		plan := "plain"
		if quiet {
			plan = "quiet"
		}
		b.Run("risk-fig4/"+plan, func(b *testing.B) { benchRisk(b, 1, false, quiet) })
		b.Run("exec-asic/"+plan, func(b *testing.B) { benchExecMode(b, false, quiet) })
	}
}

// BenchmarkRecovery measures crash recovery: Open on a copy of a
// durable ASIC project's directory after 10 designer iterations, left
// without Close. "replay" rebuilds the state from the WAL alone;
// "checkpoint" loads the checkpoint that Close wrote over the log.
func BenchmarkRecovery(b *testing.B) {
	po := PersistOptions{NoSync: true, CheckpointEvery: -1}
	src := b.TempDir()
	p, err := Open(src, ASICSchema, Options{Designer: "bench"}, po)
	if err != nil {
		b.Fatal(err)
	}
	designerLoop(b, p, 10)
	records := p.WALSeq()
	cp := copyDir(b, src)
	q, err := Open(cp, "", Options{}, po)
	if err != nil {
		b.Fatal(err)
	}
	if err := q.Close(); err != nil { // checkpoints
		b.Fatal(err)
	}
	for _, c := range []struct{ name, dir string }{{"replay", src}, {"checkpoint", cp}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := copyDir(b, c.dir)
				b.StartTimer()
				r, err := Open(dir, "", Options{}, po)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if err := r.Close(); err != nil {
					b.Fatal(err)
				}
				os.RemoveAll(dir)
				b.StartTimer()
			}
			if c.name == "replay" {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
			}
		})
	}
}
