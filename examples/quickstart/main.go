// Quickstart: the paper's Fig. 4 circuit-design flow, end to end.
//
// A netlist is created with an editor; a circuit simulator applied to the
// netlist and stimuli yields a performance report. We plan the task by
// simulating its execution, run it for real (the simulated designer
// iterates until the design goals are met), and watch the schedule track
// itself: actual starts recorded automatically, final data linked to
// schedule instances, slips propagated.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"flowsched"
)

func main() {
	// 1. Create the project from the paper's example task schema.
	p, err := flowsched.New(flowsched.Fig4Schema, flowsched.Options{Designer: "ewj"})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Bind simulated CAD tools and import the hand-written stimuli.
	if err := p.UseSimulatedTools(); err != nil {
		log.Fatal(err)
	}
	if _, err := p.Import("stimuli", []byte("pulse 0 5 1ns 1ns 1ns 10ns 20ns\n")); err != nil {
		log.Fatal(err)
	}

	// 3. Plan: derive the schedule by simulating the flow's execution.
	est := flowsched.Fixed{ByActivity: map[string]time.Duration{
		"Create":   16 * time.Hour, // two working days
		"Simulate": 8 * time.Hour,  // one working day
	}}
	plan, err := p.Plan([]string{"performance"}, est, flowsched.PlanOptions{
		Assignments: map[string][]string{"Create": {"ewj"}, "Simulate": {"ewj"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan v%d: project finish %s\n\n",
		plan.Version, plan.Finish.Format("Mon 2006-01-02 15:04"))

	// 4. Execute, tracked against the plan.
	res, err := p.Run([]string{"performance"}, true)
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range res.Outcomes {
		fmt.Printf("%-10s took %d iteration(s); final design data: %s\n",
			o.Activity, o.Iterations, o.FinalEntity.ID)
	}

	// 5. Examine status: tree view, Gantt chart, queries.
	fmt.Println()
	v, err := p.View()
	if err != nil {
		log.Fatal(err)
	}
	tree, err := v.TaskTreeView("performance")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tree)
	chart, err := v.Gantt()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(chart)
	for _, q := range []string{"duration of Create", "duration of Simulate", "lineage"} {
		ans, err := v.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(ans)
	}

	// 6. The database now shows the paper's Fig. 7 state: entity
	// instances linked to schedule instances.
	fmt.Println()
	fmt.Println(p.DatabaseDump())
}
