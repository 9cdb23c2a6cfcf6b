// Multiproject: using previous schedule data to plan future projects.
//
// The paper's §I names this as a key advantage of integration: "previous
// schedule data can be used to predict the duration of future projects."
// Here three generations of the same circuit flow are executed; each new
// project is planned from the measured history of its predecessors, and
// the example compares intuition-based estimates against history-based
// ones.
//
//	go run ./examples/multiproject
package main

import (
	"fmt"
	"log"
	"time"

	"flowsched"
)

// executeProject runs one full fig4 project and returns it.
func executeProject(gen int, est flowsched.Estimator) (*flowsched.Project, error) {
	p, err := flowsched.New(flowsched.Fig4Schema, flowsched.Options{
		Designer: fmt.Sprintf("designer-gen%d", gen),
	})
	if err != nil {
		return nil, err
	}
	if err := p.UseSimulatedTools(); err != nil {
		return nil, err
	}
	// Each generation's stimuli differ, so tool runtimes differ too.
	if _, err := p.Import("stimuli", []byte(fmt.Sprintf("vectors for generation %d", gen))); err != nil {
		return nil, err
	}
	if _, err := p.Plan([]string{"performance"}, est, flowsched.PlanOptions{}); err != nil {
		return nil, err
	}
	if _, err := p.Run([]string{"performance"}, true); err != nil {
		return nil, err
	}
	return p, nil
}

func plannedVsActual(p *flowsched.Project) (est, actual time.Duration, err error) {
	v, err := p.View()
	if err != nil {
		return 0, 0, err
	}
	rows, err := v.Status()
	if err != nil {
		return 0, 0, err
	}
	cal := p.Calendar()
	for _, r := range rows {
		est += cal.WorkBetween(r.PlannedStart, r.PlannedFinish)
		actual += cal.WorkBetween(r.ActualStart, r.ActualFinish)
	}
	return est, actual, nil
}

func main() {
	// Generation 1 is planned from pure intuition.
	intuition := flowsched.Fixed{ByActivity: map[string]time.Duration{
		"Create": 16 * time.Hour, "Simulate": 8 * time.Hour,
	}}
	fmt.Println("generation 1: planned from designer intuition")
	g1, err := executeProject(1, intuition)
	if err != nil {
		log.Fatal(err)
	}
	report(g1)

	// Generation 2 is planned from generation 1's measured history.
	fmt.Println("generation 2: planned from generation 1 history")
	g2, err := executeProject(2, g1.HistoricalEstimator(intuition))
	if err != nil {
		log.Fatal(err)
	}
	report(g2)

	// Generation 3 uses generation 2's history (which itself accumulated
	// both projects' schedule instances via the estimator chain).
	fmt.Println("generation 3: planned from generation 2 history")
	g3, err := executeProject(3, g2.HistoricalEstimator(intuition))
	if err != nil {
		log.Fatal(err)
	}
	report(g3)

	// Show the basis recorded on generation 3's estimates: they are
	// historical, not fixed.
	v, err := g3.View()
	if err != nil {
		log.Fatal(err)
	}
	for _, act := range []string{"Create", "Simulate"} {
		ans, err := v.Query("estimate of " + act)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(ans)
	}
}

func report(p *flowsched.Project) {
	est, actual, err := plannedVsActual(p)
	if err != nil {
		log.Fatal(err)
	}
	errFrac := 0.0
	if actual > 0 {
		errFrac = 100 * (float64(est) - float64(actual)) / float64(actual)
	}
	fmt.Printf("  planned %v vs actual %v working time (error %+.0f%%)\n\n",
		est.Round(time.Minute), actual.Round(time.Minute), errFrac)
}
