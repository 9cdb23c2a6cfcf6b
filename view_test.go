package flowsched

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestViewReadsRaceFreeDuringWrites polls every ProjectView read surface
// from a second goroutine, each pass on a fresh View, while the test
// goroutine keeps importing, planning, executing, propagating and
// setting milestones, and also polls Project.CurrentPlan. Plan adds plan
// versions and Propagate rewrites the newest one; a view decodes its own
// plan from its snapshot and CurrentPlan returns a copy, so under -race
// this must report no data race, and every read of a planned snapshot
// must succeed.
func TestViewReadsRaceFreeDuringWrites(t *testing.T) {
	p := prepared(t)
	targets := []string{"performance"}
	est := Fixed{Default: 8 * time.Hour}
	if _, err := p.Plan(targets, est, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	g, err := NewGrouping(map[string][]string{"circuit": {"Create", "Simulate"}})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	stop := sync.OnceFunc(func() { close(done) })
	defer stop() // a failed write round must not leave the reader spinning
	result := make(chan error, 1)
	var reads atomic.Int64 // completed read passes
	go func() {
		for {
			select {
			case <-done:
				result <- nil
				return
			default:
			}
			if err := readEverything(p, g, targets); err != nil {
				result <- err
				return
			}
			if pl := p.CurrentPlan(); pl == nil || pl.Version == 0 {
				result <- fmt.Errorf("CurrentPlan = %+v while writes run", pl)
				return
			}
			reads.Add(1)
		}
	}()

	// Write at least 30 rounds, and on until the reader has completed a
	// pass, so that reads overlap writes however the two goroutines are
	// scheduled.
	for round := 0; round < 30 || reads.Load() == 0 && round < 1000; round++ {
		if _, err := p.Import("stimuli", []byte(fmt.Sprintf("pulse %d", round))); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Plan(targets, est, PlanOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(targets, true); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Propagate(); err != nil {
			t.Fatal(err)
		}
		if err := p.SetMilestone(fmt.Sprintf("m%d", round), "performance", p.Now().Add(30*24*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	if err := <-result; err != nil {
		t.Fatal(err)
	}
	if reads.Load() == 0 {
		t.Fatal("reader never completed a pass")
	}
	t.Logf("%d read passes overlapped the write rounds", reads.Load())
}

// TestViewReadsRaceFreeWithLazyPayloads: an in-memory project produces
// its payload bytes only when asked. View readers decode entries, a
// second reader produces the bytes of every entry of store snapshots,
// and the writer takes a Snapshot after each round — all at once, so
// bytes are produced while the same entries are read and retired. Run
// it with -race. The last Snapshot still loads back to itself.
func TestViewReadsRaceFreeWithLazyPayloads(t *testing.T) {
	p := prepared(t)
	targets := []string{"performance"}
	est := Fixed{Default: 8 * time.Hour}
	if _, err := p.Plan(targets, est, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	g, err := NewGrouping(map[string][]string{"circuit": {"Create", "Simulate"}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	stop := sync.OnceFunc(func() { close(done) })
	defer stop()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var err error
				if r == 0 {
					err = readEverything(p, g, targets)
				} else {
					for _, c := range p.mgr.DB.Snapshot().Containers() {
						for _, e := range c.Entries() {
							if raw := e.Payload(); raw != nil && !json.Valid(raw) {
								err = fmt.Errorf("%s: invalid payload %s", e.ID, raw)
							}
						}
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var snap []byte
	for round := 0; round < 15; round++ {
		if _, err := p.Import("stimuli", []byte(fmt.Sprintf("pulse %d", round))); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Plan(targets, est, PlanOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(targets, round%2 == 0); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Propagate(); err != nil {
			t.Fatal(err)
		}
		if snap, err = p.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	re, err := Load(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again, err := re.Snapshot(); err != nil || string(again) != string(snap) {
		t.Fatalf("the last Snapshot does not load back to itself (%v)", err)
	}
}

// readEverything takes one view and calls every read it offers.
func readEverything(p *Project, g *Grouping, targets []string) error {
	v, err := p.View()
	if err != nil {
		return err
	}
	now := v.Now()
	reads := []func() error{
		func() error { _, err := v.Status(); return err },
		func() error { _, err := v.Gantt(); return err },
		func() error { _, err := v.TaskTreeView(targets...); return err },
		func() error { _, err := v.Dashboard(); return err },
		func() error { _, err := v.Analyze(); return err },
		func() error { _, err := v.MilestoneReport(); return err },
		func() error { _, err := v.StatusReport(now.Add(-7*24*time.Hour), now); return err },
		func() error { _, err := v.Query("lineage"); return err },
		func() error { _, err := v.OutlineStatus(g); return err },
		func() error { _, err := v.DeadlineMargin(now); return err },
		func() error { _, err := v.ExportPlanCSV(); return err },
		func() error { _, err := v.ExportMPX(); return err },
		func() error { _, err := v.RiskFingerprint(targets, RiskOptions{Trials: 100, Seed: 1}); return err },
	}
	for i, read := range reads {
		if err := read(); err != nil {
			return fmt.Errorf("read %d at store version %d: %w", i, v.Version(), err)
		}
	}
	return nil
}
