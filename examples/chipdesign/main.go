// Chipdesign: an RTL-to-signoff ASIC implementation flow under a
// three-person team with resource-constrained scheduling.
//
// This is the workload the paper's introduction motivates: a project
// manager plans a multi-week design schedule, designers execute the flow
// (iterating routing until it converges), and the integrated system keeps
// the schedule current — slips propagate automatically, and the critical
// path is recomputed from live schedule instances.
//
//	go run ./examples/chipdesign
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"flowsched"
)

func main() {
	p, err := flowsched.New(flowsched.ASICSchema, flowsched.Options{Designer: "lead"})
	if err != nil {
		log.Fatal(err)
	}
	if err := p.UseSimulatedTools(); err != nil {
		log.Fatal(err)
	}

	// The routing stage is the project risk: bind a slower, more
	// iterative router than the default.
	router, err := flowsched.NewSimTool("router", "maze-router#2", flowsched.ToolProfile{
		Base: 14 * time.Hour, Jitter: 0.35, MeanIterations: 2.5,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := p.BindTool("Route", router); err != nil {
		log.Fatal(err)
	}

	// Import the designer-supplied inputs.
	for class, content := range map[string]string{
		"rtl":         "module alu(input [31:0] a, b, output [31:0] y); ... endmodule",
		"constraints": "create_clock -period 10 clk",
		"testbench":   "initial begin a = 0; b = 0; ... end",
	} {
		if _, err := p.Import(class, []byte(content)); err != nil {
			log.Fatal(err)
		}
	}

	// Plan with a three-person team; one engineer cannot route and run
	// STA at once, so the plan is resource-constrained.
	team := map[string][]string{
		"Synthesize": {"ann"}, "Floorplan": {"bob"}, "Route": {"bob"},
		"Extract": {"cho"}, "DRC": {"cho"}, "LVS": {"cho"},
		"STA": {"ann"}, "GateSim": {"ann"},
	}
	est := flowsched.Fixed{ByActivity: map[string]time.Duration{
		"Synthesize": 16 * time.Hour, "Floorplan": 8 * time.Hour,
		"Route": 24 * time.Hour, "Extract": 6 * time.Hour,
		"DRC": 4 * time.Hour, "LVS": 4 * time.Hour,
		"STA": 8 * time.Hour, "GateSim": 12 * time.Hour,
	}}
	targets := []string{"drcreport", "lvsreport", "timingreport", "simreport"}
	plan, err := p.Plan(targets, est, flowsched.PlanOptions{
		Assignments: team, ResourceConstrained: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan v%d: %d activities, signoff planned %s\n\n",
		plan.Version, len(plan.Activities), plan.Finish.Format("Mon 2006-01-02"))

	// Commit a tape-out milestone one week after the planned signoff and
	// quantify the schedule risk before starting.
	tapeout := plan.Finish.Add(7 * 24 * time.Hour)
	if err := p.SetMilestone("tapeout", "layout", tapeout); err != nil {
		log.Fatal(err)
	}
	risk, err := p.SimulateRiskWith(targets, flowsched.RiskOptions{Trials: 2000, Seed: 1995})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule risk (2000 trials): p50 %s, p90 %s of working time\n\n",
		risk.Percentile(0.5).Round(time.Minute), risk.Percentile(0.9).Round(time.Minute))

	// Critical path before execution, read from a snapshot-pinned view.
	v, err := p.View()
	if err != nil {
		log.Fatal(err)
	}
	cpm, err := v.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("critical path (%s working): %s\n\n",
		cpm.Duration, strings.Join(cpm.CriticalPath, " -> "))

	// Execute the whole flow, tracked. The router iterates; expect slip.
	res, err := p.Run(targets, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("execution outcomes:")
	for _, o := range res.Outcomes {
		fmt.Printf("  %-11s %d iteration(s), finished %s\n",
			o.Activity, o.Iterations, o.Finished.Format("Mon 2006-01-02 15:04"))
	}
	fmt.Println()

	// Status after execution: where did we slip? A fresh view sees it.
	v, err = p.View()
	if err != nil {
		log.Fatal(err)
	}
	rows, err := v.Status()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-11s %-6s %-15s %-15s %s\n", "activity", "state", "planned", "actual", "slip")
	for _, r := range rows {
		fmt.Printf("%-11s %-6s %-15s %-15s %s\n",
			r.Activity, r.State,
			r.PlannedFinish.Format("01-02 15:04"),
			r.ActualFinish.Format("01-02 15:04"),
			r.Slip.Round(time.Minute))
	}
	fmt.Println()

	chart, err := v.Gantt()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(chart)

	// Schedule-data queries for the next project's planning meeting.
	for _, q := range []string{"duration of Route", "mean duration of DRC", "load", "milestones"} {
		ans, err := v.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(ans)
	}

	// The weekly status report the integrated system writes for free.
	weekAgo := v.Now().Add(-7 * 24 * time.Hour)
	sr, err := v.StatusReport(weekAgo, v.Now())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(sr)
}
