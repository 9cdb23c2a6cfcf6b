package report

import (
	"fmt"
	"strings"
	"time"

	"flowsched/internal/engine"
	"flowsched/internal/scenario"
	"flowsched/internal/vclock"
	"flowsched/internal/workload"
)

// E11IncrementalRisk demonstrates the subtree trial-stream memo on the
// sweep's risk dimension: a what-if sweep with Monte-Carlo risk on
// every scenario simulates the baseline model once, shares its
// per-subtree streams across the forks, and re-samples only the
// subtrees each edit dirtied — so total sampling scales with the
// edited subtrees, not the scenario count. The exhibit prints the
// deterministic sampled/reused activity-trial split at growing
// scenario counts (single-activity edits cycling over the ASIC flow's
// late-stage activities), plus one scenario's distribution to show the
// numbers are real. Wall-clock trajectories live in
// BENCH_scenarios.json (risk_sweeps) and BENCH_risk.json
// (-incremental); everything printed here is exact and reproducible.
func E11IncrementalRisk() (string, error) {
	const trials = 1000
	var b strings.Builder
	b.WriteString("E11 — Incremental risk: sweep sampling scales with edited subtrees\n\n")
	fmt.Fprintf(&b, "  %-10s %-15s %-14s %-19s %s\n",
		"scenarios", "sampled trials", "reused trials", "naive (cold) trials", "saved")

	var last *scenario.Report
	for _, sc := range []int{5, 25, 100} {
		m, err := e11manager()
		if err != nil {
			return "", err
		}
		rep, err := scenario.Sweep(m, m.Schema.PrimaryOutputs(), RiskSweepEdits(sc), scenario.Options{
			Workers: 1, // serial: the sampled/reused split is exactly reproducible
			Risk:    &scenario.RiskSpec{Trials: trials, Seed: 1995},
		})
		if err != nil {
			return "", err
		}
		naive := rep.RiskSampledTrials + rep.RiskReusedTrials
		fmt.Fprintf(&b, "  %-10d %-15d %-14d %-19d %.1f%%\n",
			sc, rep.RiskSampledTrials, rep.RiskReusedTrials, naive,
			100*float64(rep.RiskReusedTrials)/float64(naive))
		last = rep
	}

	o := last.Scenarios[0]
	fmt.Fprintf(&b, "\nscenario %q risk (trials %d): mean %s, p50 %s, p90 %s — bit-identical\n",
		o.Name, o.Risk.Trials,
		o.Risk.Mean.Round(time.Minute), o.Risk.P50.Round(time.Minute),
		o.Risk.P90.Round(time.Minute))
	b.WriteString("to a cold simulation of the same edited fork (TestSweepRiskMatchesColdFork).\n")
	b.WriteString("\nEach scenario perturbs one late-stage activity, so its fork re-samples\n")
	b.WriteString("a 1-2 activity subtree and reuses the shared baseline streams for the\n")
	b.WriteString("remaining six or seven; naive cost is (scenarios+2) x activities x trials\n")
	b.WriteString("(the shared pre-warm plus the baseline fork included).\n")
	return b.String(), nil
}

// e11manager builds the same ASIC workload as E8, with simulated tools
// bound and primary inputs imported.
func e11manager() (*engine.Manager, error) {
	sch := workload.ASIC()
	m, err := engine.New(sch, vclock.Standard(), vclock.Epoch, "e11")
	if err != nil {
		return nil, err
	}
	if err := m.BindDefaults(); err != nil {
		return nil, err
	}
	for _, leaf := range sch.PrimaryInputs() {
		if _, err := m.Import(leaf, []byte("seed "+leaf)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// RiskSweepEdits builds n single-activity perturbations cycling over the
// ASIC flow's late-stage activities: the scenarios of E11 and of the
// risk-sweep benchmark.
func RiskSweepEdits(n int) []scenario.Edit {
	acts := []string{"DRC", "LVS", "STA", "GateSim", "Extract"}
	edits := make([]scenario.Edit, n)
	for i := range edits {
		edits[i] = scenario.Edit{
			Name:  fmt.Sprintf("s%03d", i),
			Scale: map[string]float64{acts[i%len(acts)]: 1 + 0.01*float64(i+1)},
		}
	}
	return edits
}
