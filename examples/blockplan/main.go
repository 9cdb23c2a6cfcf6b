// Blockplan: architectural schedule management — the paper's future work
// (§V): "a schedule model that considers the architectural decomposition
// as well as the task flow … allowing greater precision in tracking,
// predicting, and optimizing design schedules."
//
// A chip is decomposed into blocks (core{alu, regfile}, cache, io); each
// leaf block runs its own copy of the circuit task flow, with durations
// scaled by block size. The architectural schedule rolls block windows up
// the tree, execution actuals roll up too, a chip-level slip is
// attributed down to the leaf block that caused it, and team-size
// optimization answers how many designers the next spin needs.
//
//	go run ./examples/blockplan
package main

import (
	"fmt"
	"log"
	"time"

	"flowsched"
	"flowsched/internal/arch"
)

func main() {
	// Architectural decomposition with block sizes (cell counts).
	decomp, err := arch.NewDecomposition(&arch.Block{
		Name: "chip",
		Children: []*arch.Block{
			{Name: "core", Children: []*arch.Block{
				{Name: "alu", Size: 12000},
				{Name: "regfile", Size: 8000},
			}},
			{Name: "cache", Size: 30000},
			{Name: "io", Size: 5000},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Each leaf block is a flowsched project running the Fig. 4 flow;
	// estimates scale with block size (1h of work per 1000 cells per
	// activity).
	projects := make(map[string]*flowsched.Project)
	estFor := func(size float64) flowsched.Estimator {
		return flowsched.Fixed{Default: time.Duration(size/1000) * time.Hour}
	}
	planLeaf := func(block string, size float64) (time.Time, time.Time, error) {
		p, err := flowsched.New(flowsched.Fig4Schema, flowsched.Options{Designer: block + "-team"})
		if err != nil {
			return time.Time{}, time.Time{}, err
		}
		if err := p.UseSimulatedTools(); err != nil {
			return time.Time{}, time.Time{}, err
		}
		if _, err := p.Import("stimuli", []byte("vectors for "+block)); err != nil {
			return time.Time{}, time.Time{}, err
		}
		plan, err := p.Plan([]string{"performance"}, estFor(size), flowsched.PlanOptions{})
		if err != nil {
			return time.Time{}, time.Time{}, err
		}
		projects[block] = p
		return plan.Start, plan.Finish, nil
	}

	sched, err := decomp.Plan(planLeaf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("architectural plan (rolled up):")
	fmt.Println(sched.Report())

	// Execute every block's flow; record actuals into the block schedule.
	for _, leaf := range decomp.Leaves() {
		p := projects[leaf.Name]
		if _, err := p.Run([]string{"performance"}, true); err != nil {
			log.Fatal(err)
		}
		v, err := p.View()
		if err != nil {
			log.Fatal(err)
		}
		rows, err := v.Status()
		if err != nil {
			log.Fatal(err)
		}
		start := rows[0].ActualStart
		finish := rows[len(rows)-1].ActualFinish
		if err := sched.RecordActual(leaf.Name, start, finish, true); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("after execution:")
	fmt.Println(sched.Report())

	// Attribute the chip-level slip down the tree.
	chain, err := sched.SlipAttribution("chip")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chip slip %s, attributed: %v\n\n",
		sched.Of("chip").Slip().Round(time.Minute), chain)

	// Optimize the team for the next spin of the biggest block.
	next, err := flowsched.New(flowsched.ASICSchema, flowsched.Options{Designer: "cache-team"})
	if err != nil {
		log.Fatal(err)
	}
	targets := []string{"drcreport", "lvsreport", "timingreport", "simreport"}
	tp, err := next.OptimizeTeam(targets, flowsched.Fixed{Default: 10 * time.Hour}, 6, 1.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("next spin of cache as full ASIC flow: %d designer(s) reach makespan %s (critical path %s)\n",
		tp.Size, tp.Makespan, tp.CriticalPath)
	for _, a := range tp.Assignments {
		fmt.Printf("  %-11s %-4s %6s .. %s\n", a.Task, a.Resource, a.Start, a.Finish)
	}
}
