package flowsched

import (
	"strings"
	"testing"
	"time"
)

// TestFullProjectLifecycle drives one ASIC project through every major
// capability in sequence — the scenario a real adopter would run:
//
//  1. schema + tools + imports
//  2. plan v1 (intuition estimates) + milestone + risk analysis
//  3. execute tracked; slips propagate
//  4. replan v2 from measured history (lineage recorded)
//  5. status, dashboard, outline, queries, CPM
//  6. export, snapshot, restore, and continue in the restored session
func TestFullProjectLifecycle(t *testing.T) {
	p, err := New(ASICSchema, Options{Designer: "lead"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	for class, content := range map[string]string{
		"rtl":         "module top; endmodule",
		"constraints": "create_clock -period 10",
		"testbench":   "initial begin end",
	} {
		if _, err := p.Import(class, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	targets := []string{"drcreport", "lvsreport", "timingreport", "simreport"}

	// --- plan v1 + milestone + risk -----------------------------------
	est := Fixed{Default: 10 * time.Hour}
	plan1, err := p.Plan(targets, est, PlanOptions{
		Assignments: map[string][]string{"Route": {"bob"}, "Synthesize": {"ann"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tapeout := plan1.Finish.Add(14 * 24 * time.Hour)
	if err := p.SetMilestone("tapeout-model", "layout", tapeout); err != nil {
		t.Fatal(err)
	}
	risk, err := p.SimulateRiskWith(targets, RiskOptions{Trials: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if risk.Percentile(0.9) <= risk.Percentile(0.1) {
		t.Fatal("risk distribution degenerate")
	}

	// --- execute tracked -----------------------------------------------
	res, err := p.Run(targets, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 8 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	// The milestone must be achieved (layout produced) with real margin
	// against the generous target.
	ms, err := viewOf(t, p).MilestoneReport()
	if err != nil || len(ms) != 1 || !ms[0].Achieved || ms[0].Margin <= 0 {
		t.Fatalf("milestones = %+v, %v", ms, err)
	}

	// --- replan from history -------------------------------------------
	plan2, err := p.Plan(targets, p.HistoricalEstimator(est), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Version != 2 {
		t.Fatalf("plan version = %d", plan2.Version)
	}
	lineage, err := viewOf(t, p).Query("lineage")
	if err != nil || !strings.Contains(lineage, "schedule/1 -> schedule/2") {
		t.Fatalf("lineage = %q, %v", lineage, err)
	}
	// Historical estimates recorded as such.
	estAns, err := viewOf(t, p).Query("estimate of Route")
	if err != nil || !strings.Contains(estAns, "historical") {
		t.Fatalf("estimate = %q, %v", estAns, err)
	}

	// --- views -----------------------------------------------------------
	g, err := NewGrouping(map[string][]string{
		"Frontend": {"Synthesize", "GateSim"},
		"Backend":  {"Floorplan", "Route", "Extract"},
		"Signoff":  {"DRC", "LVS", "STA"},
	})
	if err != nil {
		t.Fatal(err)
	}
	outline, err := viewOf(t, p).OutlineStatus(g)
	if err != nil || !strings.Contains(outline, "Backend") {
		t.Fatalf("outline = %q, %v", outline, err)
	}
	cpm, err := viewOf(t, p).Analyze()
	if err != nil || len(cpm.CriticalPath) == 0 {
		t.Fatalf("cpm = %+v, %v", cpm, err)
	}
	// plan2 has no actuals yet: dashboard shows 0 done.
	dash, err := viewOf(t, p).Dashboard()
	if err != nil || !strings.Contains(dash, "progress: 0/8") {
		t.Fatalf("dashboard = %v\n%s", err, dash)
	}

	// --- interchange + persistence --------------------------------------
	csvOut, err := viewOf(t, p).ExportPlanCSV()
	if err != nil || strings.Count(csvOut, "\n") != 9 { // header + 8 rows
		t.Fatalf("csv lines = %d, %v", strings.Count(csvOut, "\n"), err)
	}
	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	re, err := Load(blob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.CurrentPlan() == nil || re.CurrentPlan().Version != 2 {
		t.Fatalf("restored plan = %+v", re.CurrentPlan())
	}
	// The restored session continues: execute plan v2 tracked.
	if err := re.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Run(targets, true); err != nil {
		t.Fatal(err)
	}
	st, err := viewOf(t, re).Status()
	if err != nil {
		t.Fatal(err)
	}
	doneCount := 0
	for _, row := range st {
		if row.State == "done" {
			doneCount++
		}
	}
	if doneCount != 8 {
		t.Fatalf("restored execution completed %d/8", doneCount)
	}
	// Database ends with two plans, 16 completed schedule instances
	// across both plan versions, and links everywhere.
	_, _, _, schedInstances := re.Stats()
	if schedInstances < 16 {
		t.Fatalf("schedule instances = %d", schedInstances)
	}
}
