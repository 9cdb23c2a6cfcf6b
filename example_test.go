package flowsched_test

import (
	"fmt"
	"log"
	"time"

	"flowsched"
)

// ExampleParseSchema parses the paper's Fig. 4 task schema from the
// construction-rule DSL.
func ExampleParseSchema() {
	sch, err := flowsched.ParseSchema(`
schema circuit
data netlist, stimuli, performance
tool editor, simulator
rule Create:   netlist     <- editor()
rule Simulate: performance <- simulator(netlist, stimuli)
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("primary inputs: ", sch.PrimaryInputs())
	fmt.Println("primary outputs:", sch.PrimaryOutputs())
	fmt.Println(sch.Producer("performance"))
	// Output:
	// primary inputs:  [stimuli]
	// primary outputs: [performance]
	// rule Simulate: performance <- simulator(netlist, stimuli)
}

// ExampleProject_Plan derives a schedule by simulating the flow's
// execution (paper §III).
func ExampleProject_Plan() {
	p, err := flowsched.New(flowsched.Fig4Schema, flowsched.Options{Designer: "ewj"})
	if err != nil {
		log.Fatal(err)
	}
	est := flowsched.Fixed{ByActivity: map[string]time.Duration{
		"Create":   16 * time.Hour,
		"Simulate": 8 * time.Hour,
	}}
	plan, err := p.Plan([]string{"performance"}, est, flowsched.PlanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan v%d covers %v\n", plan.Version, plan.Activities)
	fmt.Printf("project finish: %s\n", plan.Finish.Format("Mon 2006-01-02 15:04"))
	// Output:
	// plan v1 covers [Create Simulate]
	// project finish: Wed 1995-06-07 17:00
}

// ExampleProjectView_Analyze computes the CPM critical path of a plan.
func ExampleProjectView_Analyze() {
	p, err := flowsched.New(flowsched.ASICSchema, flowsched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	targets := []string{"drcreport", "lvsreport", "timingreport", "simreport"}
	if _, err := p.Plan(targets, flowsched.Fixed{Default: 8 * time.Hour},
		flowsched.PlanOptions{}); err != nil {
		log.Fatal(err)
	}
	v, err := p.View()
	if err != nil {
		log.Fatal(err)
	}
	res, err := v.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("critical path:", res.CriticalPath)
	fmt.Println("span:", res.Duration)
	// Output:
	// critical path: [Synthesize Floorplan Route Extract STA]
	// span: 40h0m0s
}

// ExampleProjectView_Query shows §IV.B schedule-metadata queries: plan
// lineage after two planning passes.
func ExampleProjectView_Query() {
	p, err := flowsched.New(flowsched.Fig4Schema, flowsched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	est := flowsched.Fixed{Default: 8 * time.Hour}
	if _, err := p.Plan([]string{"performance"}, est, flowsched.PlanOptions{}); err != nil {
		log.Fatal(err)
	}
	if _, err := p.Plan([]string{"performance"}, est, flowsched.PlanOptions{}); err != nil {
		log.Fatal(err)
	}
	v, err := p.View()
	if err != nil {
		log.Fatal(err)
	}
	ans, err := v.Query("lineage")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ans)
	// Output:
	// plan lineage: schedule/1 -> schedule/2
}

// ExampleProjectView_DeadlineMargin checks a plan against a tape-out date.
func ExampleProjectView_DeadlineMargin() {
	p, err := flowsched.New(flowsched.Fig4Schema, flowsched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := p.Plan([]string{"performance"},
		flowsched.Fixed{Default: 8 * time.Hour}, flowsched.PlanOptions{}); err != nil {
		log.Fatal(err)
	}
	deadline := time.Date(1995, time.June, 9, 17, 0, 0, 0, time.UTC) // Friday
	v, err := p.View()
	if err != nil {
		log.Fatal(err)
	}
	margin, err := v.DeadlineMargin(deadline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("margin before tape-out: %s of working time\n", margin)
	// Output:
	// margin before tape-out: 24h0m0s of working time
}
