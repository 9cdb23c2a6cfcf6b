package report

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"flowsched/internal/baseline"
	"flowsched/internal/engine"
	"flowsched/internal/monte"
	"flowsched/internal/par"
	"flowsched/internal/pert"
	"flowsched/internal/predict"
	"flowsched/internal/sched"
	"flowsched/internal/tools"
	"flowsched/internal/vclock"
	"flowsched/internal/workload"
)

// E1TrackingDrift measures the paper's automatic-update advantage:
// the same execution event stream is tracked by the integrated system
// (zero lag by construction) and by a separate PM system fed at status
// meetings of varying cadence. Columns: reporting period, mean lag, max
// lag, stale fraction.
func E1TrackingDrift() (string, error) {
	s, err := NewScenario()
	if err != nil {
		return "", err
	}
	if err := s.Execute(); err != nil {
		return "", err
	}
	// Ground truth events from the engine's event stream.
	var events []baseline.Event
	for _, ev := range s.Mgr.Events() {
		switch ev.Kind {
		case engine.EvTaskStarted:
			events = append(events, baseline.Event{Activity: ev.Activity, Kind: baseline.Start, At: ev.At})
		case engine.EvTaskComplete:
			events = append(events, baseline.Event{Activity: ev.Activity, Kind: baseline.Finish, At: ev.At})
		}
	}
	var b strings.Builder
	b.WriteString("E1 — Integrated vs. separate schedule tracking\n\n")
	b.WriteString("channel       period   meanLag     maxLag      stale%\n")
	id, err := baseline.Drift(baseline.SimulateIntegrated(events))
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "integrated    —        %-11s %-11s %5.1f\n",
		id.MeanLag, id.MaxLag, 100*id.StaleFraction)
	for _, days := range []int{1, 2, 5, 7, 14} {
		cfg := baseline.SeparateConfig{
			Period:       time.Duration(days) * 24 * time.Hour,
			FirstMeeting: vclock.Epoch.Add(time.Duration(days) * 24 * time.Hour),
			MissProb:     0.10,
			Seed:         42,
		}
		reps, err := baseline.SimulateSeparate(events, cfg)
		if err != nil {
			return "", err
		}
		st, err := baseline.Drift(reps)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "separate      %2dd      %-11s %-11s %5.1f\n",
			days, st.MeanLag.Round(time.Hour), st.MaxLag.Round(time.Hour), 100*st.StaleFraction)
	}
	return b.String(), nil
}

// E2Prediction evaluates history-based duration prediction: a sequence of
// completed projects with drifting durations is predicted by each
// predictor, scoring MAPE as the history grows.
func E2Prediction() (string, error) {
	// Synthetic but structured history: durations drift upward with mild
	// noise, sizes grow — the regime where Historical beats Fixed.
	var samples []predict.Sample
	noise := []float64{0.4, -0.3, 0.2, -0.1, 0.3, -0.4, 0.1, -0.2, 0.25, -0.15, 0.05, -0.05}
	for i := 0; i < 12; i++ {
		base := 20.0 + 1.5*float64(i) // hours
		samples = append(samples, predict.Sample{
			Duration: time.Duration((base + noise[i]*4) * float64(time.Hour)),
			Size:     1 + 0.1*float64(i),
		})
	}
	var b strings.Builder
	b.WriteString("E2 — History-based duration prediction (12 projects, rising workload)\n\n")
	b.WriteString("predictor     warmup  N   MAE        MAPE\n")
	preds := []struct {
		name string
		p    predict.Predictor
	}{
		{"mean", predict.Mean{}},
		{"ewma(0.5)", predict.EWMA{Alpha: 0.5}},
		{"regression", predict.Regression{}},
	}
	for _, warmup := range []int{2, 4} {
		for _, pr := range preds {
			acc, err := predict.Evaluate(pr.p, samples, warmup)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%-13s %-7d %-3d %-10s %5.1f%%\n",
				pr.name, warmup, acc.N, acc.MAE.Round(time.Minute), 100*acc.MAPE)
		}
	}
	b.WriteString("\n(regression tracks the trend; plain mean lags it — the paper's\n")
	b.WriteString(" motivation for keeping schedule history queryable)\n")
	return b.String(), nil
}

// E3Scaling sweeps layered flows to show planning-by-simulation and
// execution scale with flow size. Columns: activities, plan span, exec
// instances. The sweep points build isolated engines, so they run on
// the shared worker pool (internal/par); rows are assembled by index,
// keeping the exhibit byte-identical to a serial run.
func E3Scaling() (string, error) {
	sizes := []struct{ d, w int }{{2, 2}, {4, 4}, {6, 6}, {8, 8}}
	rows := make([]string, len(sizes))
	err := par.New(0).ForEachErr(len(sizes), func(i int) error {
		sz := sizes[i]
		sch, err := workload.Layered(workload.LayeredConfig{
			Depth: sz.d, Width: sz.w, FanIn: 2, Seed: 11,
		})
		if err != nil {
			return err
		}
		m, err := engine.New(sch, vclock.Standard(), vclock.Epoch, "bench")
		if err != nil {
			return err
		}
		if err := m.BindDefaults(); err != nil {
			return err
		}
		for _, leaf := range sch.PrimaryInputs() {
			if _, err := m.Import(leaf, []byte("seed "+leaf)); err != nil {
				return err
			}
		}
		tree, err := m.ExtractTree(sch.PrimaryOutputs()...)
		if err != nil {
			return err
		}
		est, err := workload.Estimates(sch, 8*time.Hour, 0.2, 5)
		if err != nil {
			return err
		}
		pr, err := m.Plan(tree, est, sched.PlanOptions{})
		if err != nil {
			return err
		}
		if _, err := m.ExecuteTask(tree, engine.ExecOptions{Plan: &pr.Plan, AutoComplete: true}); err != nil {
			return err
		}
		span := pr.Plan.Finish.Sub(pr.Plan.Start)
		runs, entities := 0, 0
		for _, r := range sch.Rules() {
			_, rs, err := m.Exec.Runs(r.Activity)
			if err != nil {
				return err
			}
			runs += len(rs)
			entities += m.DB.Container(r.Output).Len()
		}
		rows[i] = fmt.Sprintf("%-5d %-5d %-5d %-13s %-8d %d\n",
			sz.d, sz.w, len(sch.Rules()), span.Round(time.Hour), runs, entities)
		return nil
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("E3 — Scaling of planning and execution with flow size\n\n")
	b.WriteString("depth width acts  planSpan      execRuns execEntities\n")
	for _, row := range rows {
		b.WriteString(row)
	}
	return b.String(), nil
}

// E4CriticalPath analyses the ASIC flow's plan with CPM: early/late
// dates, slack, critical path, and PERT completion probabilities.
func E4CriticalPath() (string, error) {
	sch := workload.ASIC()
	fixed, err := workload.Estimates(sch, 10*time.Hour, 0.3, 9)
	if err != nil {
		return "", err
	}
	tp := workload.ThreePoints(fixed)
	var acts []pert.Activity
	for _, r := range sch.Rules() {
		est, err := tp.Estimate(r.Activity, r)
		if err != nil {
			return "", err
		}
		var preds []string
		for _, in := range r.Inputs {
			if p := sch.Producer(in); p != nil {
				preds = append(preds, p.Activity)
			}
		}
		acts = append(acts, pert.Activity{
			Name: r.Activity, Duration: est.Work,
			Optimistic: est.Optimistic, Pessimistic: est.Pessimistic,
			Preds: preds,
		})
	}
	net, err := pert.NewNetwork(acts)
	if err != nil {
		return "", err
	}
	res, err := net.Analyze()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("E4 — CPM/PERT analysis of the ASIC flow plan\n\n")
	b.WriteString("activity    ES      EF      slack   critical\n")
	for _, tm := range res.Timings {
		fmt.Fprintf(&b, "%-11s %-7s %-7s %-7s %v\n",
			tm.Name, tm.EarlyStart.Round(time.Hour), tm.EarlyFinish.Round(time.Hour),
			tm.Slack.Round(time.Hour), tm.Critical)
	}
	fmt.Fprintf(&b, "\nproject duration: %s working time\n", res.Duration.Round(time.Hour))
	fmt.Fprintf(&b, "critical path:    %s\n", strings.Join(res.CriticalPath, " -> "))
	for _, frac := range []float64{0.9, 1.0, 1.1, 1.25} {
		target := time.Duration(float64(res.Duration) * frac)
		fmt.Fprintf(&b, "P(finish within %3.0f%% of plan) = %.2f\n",
			100*frac, res.CompletionProbability(target))
	}
	return b.String(), nil
}

// E5Queries exercises the §IV.B query set over a populated database and
// prints the answers.
func E5Queries() (string, error) {
	s, err := NewScenario()
	if err != nil {
		return "", err
	}
	if err := s.Execute(); err != nil {
		return "", err
	}
	eng, err := newQueryEngine(s)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("E5 — Schedule data and schedule metadata queries (§IV.B)\n\n")
	queries := []string{
		"duration of Create",
		"duration of Simulate",
		"durations of Create",
		"mean duration of Simulate",
		"estimate of Simulate",
		"lineage",
		"load",
		"runs of Create",
	}
	for _, q := range queries {
		ans, err := eng.Eval(q)
		if err != nil {
			return "", fmt.Errorf("report: query %q: %w", q, err)
		}
		fmt.Fprintf(&b, "> %s\n  %s\n", q, ans)
	}
	return b.String(), nil
}

// ASICRiskModels derives the Monte-Carlo activity models for the ASIC
// flow from the standard tool profiles. It is the stochastic model
// behind exhibit E6.
func ASICRiskModels() ([]monte.ActivityModel, error) {
	sch := workload.ASIC()
	profiles := tools.StandardProfiles()
	var models []monte.ActivityModel
	for _, r := range sch.Rules() {
		prof, ok := profiles[r.Tool]
		if !ok {
			return nil, fmt.Errorf("report: no profile for tool %s", r.Tool)
		}
		var preds []string
		for _, in := range r.Inputs {
			if p := sch.Producer(in); p != nil {
				preds = append(preds, p.Activity)
			}
		}
		min := time.Duration(float64(prof.Base) * (1 - prof.Jitter))
		max := time.Duration(float64(prof.Base) * (1 + prof.Jitter))
		models = append(models, monte.ActivityModel{
			Name: r.Activity, Min: min, Mode: prof.Base, Max: max,
			MeanIterations: prof.MeanIterations, Preds: preds,
		})
	}
	return models, nil
}

// E6Risk runs the Monte-Carlo schedule risk analysis over the ASIC flow,
// comparing it with the analytic PERT approximation from E4.
func E6Risk() (string, error) {
	models, err := ASICRiskModels()
	if err != nil {
		return "", err
	}
	res, err := monte.Simulate(models, monte.Config{Trials: 5000, Seed: 1995})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("E6 — Monte-Carlo schedule risk for the ASIC flow (5000 trials)\n\n")
	fmt.Fprintf(&b, "mean span %s; p10 %s, p50 %s, p90 %s\n",
		res.Mean().Round(time.Minute),
		res.Percentile(0.1).Round(time.Minute),
		res.Percentile(0.5).Round(time.Minute),
		res.Percentile(0.9).Round(time.Minute))
	for _, frac := range []float64{1.0, 1.1, 1.25} {
		target := time.Duration(float64(res.Percentile(0.5)) * frac)
		fmt.Fprintf(&b, "P(finish within %3.0f%% of median) = %.2f\n", 100*frac, res.ProbWithin(target))
	}
	b.WriteString("\nactivity criticality (fraction of trials on the critical path):\n")
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	sort.Slice(names, func(i, j int) bool {
		return res.Criticality[names[i]] > res.Criticality[names[j]]
	})
	for _, n := range names {
		fmt.Fprintf(&b, "  %-11s %.2f  (mean iterations %.2f)\n",
			n, res.Criticality[n], res.MeanIterObserved[n])
	}

	// Engine timings: the sharded engine returns bit-identical results
	// for every worker count, so the comparison below is pure speed.
	const timingTrials = 100000
	serial, err := timeSimulate(models, timingTrials, 1)
	if err != nil {
		return "", err
	}
	parallel, err := timeSimulate(models, timingTrials, 0)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\nengine (%d trials, deterministic shards): serial %s; parallel %s on %d cores (%.1fx)\n",
		timingTrials, serial.Round(time.Millisecond), parallel.Round(time.Millisecond),
		runtime.GOMAXPROCS(0), float64(serial)/float64(parallel))
	return b.String(), nil
}

// timeSimulate measures one wall-clock Simulate run at the given worker
// count.
func timeSimulate(models []monte.ActivityModel, trials, workers int) (time.Duration, error) {
	start := time.Now()
	if _, err := monte.Simulate(models, monte.Config{Trials: trials, Seed: 1995, Workers: workers}); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
