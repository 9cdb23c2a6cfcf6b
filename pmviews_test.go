package flowsched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// durableDesigner is designerProject on a durable project: Open in a
// temporary directory, without fsync.
func durableDesigner(tb testing.TB, iterations int) *Project {
	tb.Helper()
	p, err := Open(tb.TempDir(), ASICSchema, Options{Designer: "bench"}, PersistOptions{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	designerLoop(tb, p, iterations)
	return p
}

// addMilestones sets n milestones on p's current plan, named from
// prefix, over the four sign-off classes, due 1 to 10 workdays out.
func addMilestones(tb testing.TB, p *Project, prefix string, n int) {
	tb.Helper()
	cal := p.Calendar()
	classes := []string{"drcreport", "lvsreport", "timingreport", "simreport"}
	for i := 0; i < n; i++ {
		target := cal.AddWork(p.Now(), cal.Workdays(i%10+1))
		if err := p.SetMilestone(fmt.Sprintf("%s%d", prefix, i), classes[i%len(classes)], target); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestDurableMilestoneRendersParseOnce: in a durable project only each
// container's latest entry keeps its decoded payload, so a render that
// read the milestone container through the store alone would parse
// every other milestone's JSON each time. After a first render, a
// repeated milestone report or Gantt chart on the same snapshot
// allocates no more for 48 milestones than for 24: it parses none.
func TestDurableMilestoneRendersParseOnce(t *testing.T) {
	p := durableDesigner(t, 2)
	allocs := func() (report, chart float64) {
		v, err := p.View()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.MilestoneReport(); err != nil { // the first render decodes
			t.Fatal(err)
		}
		report = testing.AllocsPerRun(10, func() {
			if _, err := v.MilestoneReport(); err != nil {
				t.Fatal(err)
			}
		})
		chart = testing.AllocsPerRun(10, func() {
			if _, err := v.Gantt(); err != nil {
				t.Fatal(err)
			}
		})
		return report, chart
	}
	addMilestones(t, p, "a", 24)
	report24, chart24 := allocs()
	addMilestones(t, p, "b", 24)
	report48, chart48 := allocs()
	t.Logf("allocs per render: report %.0f -> %.0f, Gantt %.0f -> %.0f for 24 -> 48 milestones",
		report24, report48, chart24, chart48)
	if report48 > report24 {
		t.Errorf("milestone report: %.0f allocs for 48 milestones, %.0f for 24: milestones are parsed again", report48, report24)
	}
	// The chart draws one marker per milestone, about six allocations
	// each; parsing a milestone's JSON costs about eight more.
	if perMilestone := (chart48 - chart24) / 24; perMilestone > 10 {
		t.Errorf("Gantt: %.1f more allocs per milestone: milestones are parsed again", perMilestone)
	}
}

// TestViewReadsMilestonesDurable races milestone reports and Gantt
// charts on fresh views of a durable project, which share the live
// schedule space's decoded milestones, against a writer that plans,
// sets milestones and runs the activities that achieve them. Each
// report must agree with its own view: milestones of the view's plan
// only, each achieved exactly when the view shows its producer done.
func TestViewReadsMilestonesDurable(t *testing.T) {
	p := durableDesigner(t, 1)
	producer := map[string]string{
		"drcreport": "DRC", "lvsreport": "LVS", "timingreport": "STA", "simreport": "GateSim",
	}
	check := func() error {
		v, err := p.View()
		if err != nil {
			return err
		}
		rows, err := v.MilestoneReport()
		if err != nil {
			return err
		}
		status, err := v.Status()
		if err != nil {
			return err
		}
		done := map[string]bool{}
		for _, s := range status {
			done[s.Activity] = s.State == "done"
		}
		for _, r := range rows {
			if r.PlanVersion != v.PlanVersion() {
				return fmt.Errorf("plan v%d view reports milestone %s of plan v%d", v.PlanVersion(), r.Name, r.PlanVersion)
			}
			if r.Achieved != done[producer[r.Class]] {
				return fmt.Errorf("version %d: %s achieved=%v, %s done=%v",
					v.Version(), r.Name, r.Achieved, producer[r.Class], done[producer[r.Class]])
			}
		}
		_, err = v.Gantt()
		return err
	}
	stop := make(chan struct{})
	errs := make(chan error, 3)
	var reads atomic.Int64 // completed read passes
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := check(); err != nil {
					errs <- err
					return
				}
				reads.Add(1)
			}
		}()
	}
	targets := []string{"drcreport", "lvsreport", "timingreport", "simreport"}
	// At least six rounds, and on until a read pass has overlapped them.
	for round := 0; round < 6 || reads.Load() == 0 && round < 200; round++ {
		if _, err := p.Import("rtl", []byte(fmt.Sprintf("module top%d", round))); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Plan(targets, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
			t.Fatal(err)
		}
		addMilestones(t, p, fmt.Sprintf("r%d-early", round), 4)
		if _, err := p.Run(targets, true); err != nil {
			t.Fatal(err)
		}
		addMilestones(t, p, fmt.Sprintf("r%d-late", round), 4)
		if _, err := p.Propagate(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}
}
