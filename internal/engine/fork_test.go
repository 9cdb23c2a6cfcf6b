package engine

import (
	"sync"
	"testing"
	"time"

	"flowsched/internal/sched"
)

// run plans and executes the manager's full flow, returning the plan.
func runFlow(t *testing.T, m *Manager) *sched.Plan {
	t.Helper()
	tree, err := m.ExtractTree("performance")
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Plan(tree, sched.Fixed{Default: 4 * time.Hour}, sched.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ExecuteTask(tree, ExecOptions{Plan: &res.Plan, AutoComplete: true}); err != nil {
		t.Fatal(err)
	}
	return &res.Plan
}

func TestForkIsIndependent(t *testing.T) {
	m := ready(t)
	plan := runFlow(t, m)

	f, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if f.DB.Dump() != m.DB.Dump() {
		t.Fatal("fork database differs from parent at fork time")
	}
	if len(f.Events()) != len(m.Events()) {
		t.Fatal("fork lost the parent's event history")
	}
	if f.Clock.Now() != m.Clock.Now() {
		t.Fatal("fork clock not at parent's virtual now")
	}

	parentDump := m.DB.Dump()
	// Re-plan and re-execute only in the fork.
	fplan := runFlow(t, f)
	if fplan.Version != plan.Version+1 {
		t.Fatalf("fork plan version = %d, want %d", fplan.Version, plan.Version+1)
	}
	if m.DB.Dump() != parentDump {
		t.Fatal("fork execution leaked into parent database")
	}
	if _, _, err := m.Sched.PlanByVersion(fplan.Version); err == nil {
		t.Fatal("parent sees fork's plan version")
	}
	// Fork's design store is independent: new data filed in the fork
	// never appears in the parent (identical re-run bytes deduplicate, so
	// force fresh content).
	parentObjects := m.Data.TotalObjects()
	if _, err := f.Data.Put("stimuli", []byte("fork-only vectors\n"), "", f.Clock.Now()); err != nil {
		t.Fatal(err)
	}
	if m.Data.TotalObjects() != parentObjects {
		t.Fatal("fork design-data write leaked into parent store")
	}
	// Parent keeps working after the fork diverged.
	if _, err := m.Import("stimuli", []byte("pulse 1 9 2ns\n")); err != nil {
		t.Fatal(err)
	}
	if got := f.DB.Container("stimuli").Len(); got != 1 {
		t.Fatalf("parent import visible in fork: %d stimuli entries", got)
	}
	// Rebinding tools in the fork leaves the parent binding alone.
	if f.Tools.For("Create") == nil || m.Tools.For("Create") == nil {
		t.Fatal("tool bindings missing after fork")
	}
}

func TestAtViewIsConsistentAndReadOnly(t *testing.T) {
	m := ready(t)
	plan := runFlow(t, m)

	r := m.AtView(nil)
	wantDump := m.DB.Dump()

	// Reads work and agree with the live state at snapshot time.
	if _, p, err := r.Sched.CurrentPlan(); err != nil || p.Version != plan.Version {
		t.Fatalf("view-bound CurrentPlan: %v", err)
	}
	st, err := r.Sched.Status(plan, m.Clock.Now())
	if err != nil || len(st) == 0 {
		t.Fatalf("view-bound Status: %v", err)
	}
	if _, _, err := r.Exec.LatestEntity("performance"); err != nil {
		t.Fatalf("view-bound LatestEntity: %v", err)
	}

	// Writes on the view-bound spaces fail without touching the DB.
	if err := r.Sched.MarkStarted(plan, "Create", m.Clock.Now()); err == nil {
		t.Fatal("view-bound MarkStarted succeeded")
	}
	if _, err := r.Exec.BeginRun("Create", "editor#1", "ewj", m.Clock.Now()); err == nil {
		t.Fatal("view-bound BeginRun succeeded")
	}
	tree, _ := m.ExtractTree("performance")
	if _, err := r.Sched.Plan(tree, m.Clock.Now(), sched.Fixed{Default: time.Hour}, sched.PlanOptions{}); err == nil {
		t.Fatal("view-bound Plan succeeded")
	}

	// Later live writes don't reach the view.
	if _, err := m.Import("stimuli", []byte("late import\n")); err != nil {
		t.Fatal(err)
	}
	if c := r.Sched.Reader().Container("stimuli"); c.Len() != 1 {
		t.Fatalf("view sees %d stimuli entries, want 1", c.Len())
	}
	if m.DB.Dump() == wantDump {
		t.Fatal("live dump unchanged after import")
	}
}

// Satellite: Events/EventsSince polled concurrently with an executing
// manager must be race-free (run under -race in tier-1).
func TestEventsPollingDuringExecution(t *testing.T) {
	m := ready(t)
	tree, err := m.ExtractTree("performance")
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Plan(tree, sched.Fixed{Default: 4 * time.Hour}, sched.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	var polled int
	wg.Add(1)
	go func() { // poller: the hercules `events` pattern
		defer wg.Done()
		seq := 0
		for {
			evs := m.EventsSince(seq)
			seq += len(evs)
			polled += len(evs)
			select {
			case <-done:
				polled += len(m.EventsSince(seq))
				return
			default:
			}
		}
	}()
	if _, err := m.ExecuteTask(tree, ExecOptions{Plan: &res.Plan, AutoComplete: true, Parallel: true}); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	if total := len(m.Events()); polled != total {
		t.Fatalf("poller saw %d events, stream has %d", polled, total)
	}
}
