package engine

import (
	"errors"
	"testing"
	"time"

	"flowsched/internal/sched"
	"flowsched/internal/tools"
)

func TestBackoffWait(t *testing.T) {
	b := Backoff{Initial: time.Hour, Factor: 2, Max: 5 * time.Hour}
	cases := []struct {
		streak int
		want   time.Duration
	}{
		{0, 0}, {1, time.Hour}, {2, 2 * time.Hour}, {3, 4 * time.Hour},
		{4, 5 * time.Hour}, {10, 5 * time.Hour},
	}
	for _, c := range cases {
		if got := b.wait(c.streak); got != c.want {
			t.Errorf("wait(%d) = %v, want %v", c.streak, got, c.want)
		}
	}
	if got := (Backoff{}).wait(3); got != 0 {
		t.Errorf("zero backoff wait = %v, want 0", got)
	}
	// Factor defaults to 2 when unset.
	if got := (Backoff{Initial: time.Hour}).wait(2); got != 2*time.Hour {
		t.Errorf("default-factor wait = %v, want 2h", got)
	}
}

// TestBackoffConsumesVirtualTime: retries after failures wait on the
// calendar, so the same flaky execution finishes later with backoff than
// without, and the retries surface as run-retry events.
func TestBackoffConsumesVirtualTime(t *testing.T) {
	run := func(b Backoff) (*ExecResult, []Event) {
		m := newManager(t)
		m.BindTool("Create", &flakyTool{class: "editor", instance: "flaky#1", failures: 2})
		sim, _ := tools.DefaultFor("simulator", "s#1")
		m.BindTool("Simulate", sim)
		m.Import("stimuli", []byte("v"))
		tree, _ := m.ExtractTree("performance")
		res, err := m.ExecuteTask(tree, ExecOptions{
			MaxFailures: 3,
			Recovery:    Recovery{Backoff: b},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, m.Events()
	}
	plain, _ := run(Backoff{})
	slow, evs := run(Backoff{Initial: 4 * time.Hour, Factor: 2})
	if !slow.Finished.After(plain.Finished) {
		t.Fatalf("backoff finish %v not after plain finish %v", slow.Finished, plain.Finished)
	}
	retries := 0
	for _, e := range evs {
		if e.Kind == EvRunRetry {
			retries++
		}
	}
	if retries != 2 {
		t.Fatalf("run-retry events = %d, want 2", retries)
	}
}

// hangTool hangs (an absurd virtual runtime) on its first call, then
// behaves normally.
type hangTool struct {
	calls int
}

func (h *hangTool) Instance() string { return "hang#1" }
func (h *hangTool) Class() string    { return "editor" }
func (h *hangTool) Run(inputs map[string][]byte, iteration int) (tools.Result, error) {
	h.calls++
	if h.calls == 1 {
		return tools.Result{Output: []byte("late"), Work: 1000 * time.Hour, GoalMet: true}, nil
	}
	return tools.Result{Output: []byte("ok"), Work: 2 * time.Hour, GoalMet: true}, nil
}

// TestRunDeadlineAbortsHungTool: a run deadline converts a hang into a
// failed run charged exactly the deadline of working time; the retry then
// completes the activity.
func TestRunDeadlineAbortsHungTool(t *testing.T) {
	m := newManager(t)
	m.BindTool("Create", &hangTool{})
	sim, _ := tools.DefaultFor("simulator", "s#1")
	m.BindTool("Simulate", sim)
	m.Import("stimuli", []byte("v"))
	tree, _ := m.ExtractTree("performance")
	res, err := m.ExecuteTask(tree, ExecOptions{
		Recovery: Recovery{RunDeadline: 72 * time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	create := res.Outcomes[0]
	if create.Failures != 1 {
		t.Fatalf("failures = %d, want 1 (the aborted hang)", create.Failures)
	}
	var timeouts int
	for _, e := range m.Events() {
		if e.Kind == EvRunTimeout {
			timeouts++
		}
	}
	if timeouts != 1 {
		t.Fatalf("run-timeout events = %d, want 1", timeouts)
	}
	// The hang cost 72h of work, not 1000h: well under 1000h of calendar
	// distance on the standard calendar.
	if span := create.Finished.Sub(create.Started); span > 60*24*time.Hour {
		t.Fatalf("span %v suggests the full hang was charged", span)
	}
	// Without a deadline the hang runs to completion and is accepted.
	m2 := newManager(t)
	m2.BindTool("Create", &hangTool{})
	m2.BindTool("Simulate", sim)
	m2.Import("stimuli", []byte("v"))
	tree2, _ := m2.ExtractTree("performance")
	res2, err := m2.ExecuteTask(tree2, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcomes[0].Failures != 0 {
		t.Fatal("hang failed without a deadline")
	}
	if !res2.Finished.After(res.Finished) {
		t.Fatal("undeadlined hang finished earlier than the aborted one")
	}
}

// TestFailoverRotatesToAlternate: with a dead active instance and a
// working alternate, failover completes the activity on the alternate and
// emits a tool-failover event.
func TestFailoverRotatesToAlternate(t *testing.T) {
	m := newManager(t)
	m.BindTool("Create", &flakyTool{class: "editor", instance: "dead#1", failures: 99})
	good, _ := tools.DefaultFor("editor", "good#2")
	if err := m.Tools.AddAlternate("Create", good); err != nil {
		t.Fatal(err)
	}
	sim, _ := tools.DefaultFor("simulator", "s#1")
	m.BindTool("Simulate", sim)
	m.Import("stimuli", []byte("v"))
	tree, _ := m.ExtractTree("performance")
	res, err := m.ExecuteTask(tree, ExecOptions{
		Recovery: Recovery{Failover: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("outcomes = %d, want 2", len(res.Outcomes))
	}
	failovers := 0
	for _, e := range m.Events() {
		if e.Kind == EvFailover {
			failovers++
		}
	}
	if failovers == 0 {
		t.Fatal("no tool-failover event emitted")
	}
	// The accepting run executed on the alternate instance.
	_, runs, _ := m.Exec.Runs("Create")
	if last := runs[len(runs)-1]; last.Tool != "good#2" {
		t.Fatalf("final run tool = %s, want good#2", last.Tool)
	}
}

// retryAfterErr is a failure that knows when retrying can succeed.
type retryAfterErr struct{ until time.Time }

func (e *retryAfterErr) Error() string         { return "resource gone until " + e.until.Format("01-02 15:04") }
func (e *retryAfterErr) RetryAfter() time.Time { return e.until }

// TestRetryAfterStretchesBackoff: when a failure carries RetryAfter, the
// retry cursor jumps to that instant instead of hammering a dead resource
// through the failure budget.
func TestRetryAfterStretchesBackoff(t *testing.T) {
	m := newManager(t)
	outageEnd := t0.Add(10 * 24 * time.Hour)
	fail := &scriptedTool{
		instance: "lic#1", class: "editor",
		errs: []error{&retryAfterErr{until: outageEnd}},
	}
	m.BindTool("Create", fail)
	sim, _ := tools.DefaultFor("simulator", "s#1")
	m.BindTool("Simulate", sim)
	m.Import("stimuli", []byte("v"))
	tree, _ := m.ExtractTree("performance")
	res, err := m.ExecuteTask(tree, ExecOptions{
		Recovery: Recovery{Backoff: Backoff{Initial: time.Hour}},
	})
	if err != nil {
		t.Fatal(err)
	}
	create := res.Outcomes[0]
	if create.Failures != 1 {
		t.Fatalf("failures = %d, want 1", create.Failures)
	}
	// The accepting run started only after the outage lifted.
	if !create.Finished.After(outageEnd) {
		t.Fatalf("finished %v before the outage end %v", create.Finished, outageEnd)
	}
}

// scriptedTool returns the scripted errors in order, then succeeds.
type scriptedTool struct {
	instance, class string
	errs            []error
	calls           int
}

func (s *scriptedTool) Instance() string { return s.instance }
func (s *scriptedTool) Class() string    { return s.class }
func (s *scriptedTool) Run(inputs map[string][]byte, iteration int) (tools.Result, error) {
	s.calls++
	if s.calls <= len(s.errs) {
		return tools.Result{Work: time.Hour}, s.errs[s.calls-1]
	}
	return tools.Result{Output: []byte("ok"), Work: 2 * time.Hour, GoalMet: true}, nil
}

// TestContinueOnBlockFencesSubtree: in the diamond, a dead B blocks; D
// (needing B's output) is fenced; A and C still complete, and the tracked
// plan reports both as blocked with growing slip.
func TestContinueOnBlockFencesSubtree(t *testing.T) {
	m := diamondManager(t)
	m.BindTool("B", &flakyTool{class: "t", instance: "deadB#1", failures: 99})
	tree, _ := m.ExtractTree("merged")
	pr, err := m.Plan(tree, sched.Fixed{Default: 8 * time.Hour}, sched.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.ExecuteTask(tree, ExecOptions{
		Plan: &pr.Plan, AutoComplete: true,
		Recovery: Recovery{ContinueOnBlock: true},
	})
	if err != nil {
		t.Fatalf("graceful degradation aborted: %v", err)
	}
	if len(res.Blocked) != 2 || res.Blocked[0] != "B" || res.Blocked[1] != "D" {
		t.Fatalf("blocked = %v, want [B D]", res.Blocked)
	}
	done := map[string]bool{}
	for _, o := range res.Outcomes {
		done[o.Activity] = true
	}
	if !done["A"] || !done["C"] || done["B"] || done["D"] {
		t.Fatalf("outcomes = %v, want exactly A and C", done)
	}
	blockedEvents := 0
	for _, e := range m.Events() {
		if e.Kind == EvBlocked {
			blockedEvents++
		}
	}
	if blockedEvents != 2 {
		t.Fatalf("activity-blocked events = %d, want 2", blockedEvents)
	}
	// The tracked plan reports the blockage as slip, not as a dead plan.
	if _, err := m.Sched.Propagate(&pr.Plan, m.Clock.Now()); err != nil {
		t.Fatal(err)
	}
	sts, err := m.Sched.Status(&pr.Plan, m.Clock.Now().Add(14*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]sched.State{}
	var blockedSlip time.Duration
	for _, st := range sts {
		states[st.Activity] = st.State
		if st.Activity == "B" {
			blockedSlip = st.Slip
		}
	}
	if states["B"] != sched.Blocked || states["D"] != sched.Blocked {
		t.Fatalf("states = %v, want B and D blocked", states)
	}
	if states["A"] != sched.Done || states["C"] != sched.Done {
		t.Fatalf("states = %v, want A and C done", states)
	}
	if blockedSlip <= 0 {
		t.Fatal("blocked activity reports no slip")
	}
	// Recovery: rebind a working tool and re-execute — completion clears
	// the blocked flag. (AutoComplete is off: A and C are already
	// complete under this plan, so B and D are completed explicitly.)
	m.BindTool("B", &fixedTool{instance: "B#2", work: 4 * time.Hour})
	res, err = m.ExecuteTask(tree, ExecOptions{Plan: &pr.Plan})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if o.Activity == "B" || o.Activity == "D" {
			if err := m.CompleteActivity(&pr.Plan, o.Activity, o.FinalEntity.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	sts, _ = m.Sched.Status(&pr.Plan, m.Clock.Now())
	for _, st := range sts {
		if st.State == sched.Blocked {
			t.Fatalf("activity %s still blocked after recovery", st.Activity)
		}
	}
}

// TestCheckpointResumeRunsNothingTwice is the acceptance criterion: a
// killed execution resumed via the ExecError checkpoint re-runs zero
// already-completed activities, verified by run-entry counts.
func TestCheckpointResumeRunsNothingTwice(t *testing.T) {
	m := diamondManager(t)
	m.BindTool("D", &flakyTool{class: "t", instance: "deadD#1", failures: 99})
	tree, _ := m.ExtractTree("merged")
	_, err := m.ExecuteTask(tree, ExecOptions{})
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want *ExecError", err)
	}
	if got := ee.Completed(); len(got) != 3 {
		t.Fatalf("completed = %v, want A, B, C", got)
	}
	if ee.Snapshot == nil {
		t.Fatal("checkpoint carries no store snapshot")
	}
	// The completed work is durable and queryable through the snapshot.
	for _, class := range []string{"src", "left", "right"} {
		c := ee.Snapshot.Container(class)
		if c == nil || c.Len() == 0 {
			t.Fatalf("snapshot has no %s entities", class)
		}
	}
	runsBefore := map[string]int{}
	for _, act := range []string{"A", "B", "C"} {
		_, runs, _ := m.Exec.Runs(act)
		runsBefore[act] = len(runs)
		if runsBefore[act] == 0 {
			t.Fatalf("no runs recorded for completed activity %s", act)
		}
	}

	// Fix the tool, resume from the checkpoint.
	m.BindTool("D", &fixedTool{instance: "D#2", work: 4 * time.Hour})
	res, err := ee.Resume()
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if len(res.Resumed) != 3 {
		t.Fatalf("resumed = %v, want A, B, C skipped", res.Resumed)
	}
	for _, act := range []string{"A", "B", "C"} {
		_, runs, _ := m.Exec.Runs(act)
		if len(runs) != runsBefore[act] {
			t.Fatalf("resume re-ran %s: %d runs, had %d", act, len(runs), runsBefore[act])
		}
	}
	_, druns, _ := m.Exec.Runs("D")
	if len(druns) == 0 {
		t.Fatal("resume did not run D")
	}
	resumed := 0
	for _, e := range m.Events() {
		if e.Kind == EvResumed {
			resumed++
		}
	}
	if resumed != 3 {
		t.Fatalf("activity-resumed events = %d, want 3", resumed)
	}
	// Resuming twice keeps working (the error value is reusable).
	if _, err := ee.Resume(); err != nil {
		t.Fatalf("second resume failed: %v", err)
	}
}

// corruptingTool emits marked output on iteration 1 and clean output
// afterwards.
type corruptingTool struct{}

func (c *corruptingTool) Instance() string { return "corr#1" }
func (c *corruptingTool) Class() string    { return "editor" }
func (c *corruptingTool) Run(inputs map[string][]byte, iteration int) (tools.Result, error) {
	out := []byte("clean design data")
	if iteration == 1 {
		out = []byte("BAD design data")
	}
	return tools.Result{Output: out, Work: 2 * time.Hour, GoalMet: true}, nil
}

// TestVerifyForcesIteration: a Verify hook rejecting the first iteration's
// output forces a second iteration; the corrupt version stays filed but
// is not the final entity.
func TestVerifyForcesIteration(t *testing.T) {
	m := newManager(t)
	m.BindTool("Create", &corruptingTool{})
	sim, _ := tools.DefaultFor("simulator", "s#1")
	m.BindTool("Simulate", sim)
	m.Import("stimuli", []byte("v"))
	tree, _ := m.ExtractTree("performance")
	res, err := m.ExecuteTask(tree, ExecOptions{
		Recovery: Recovery{Verify: func(act string, out []byte) error {
			if string(out[:3]) == "BAD" {
				return errors.New("checksum mismatch")
			}
			return nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	create := res.Outcomes[0]
	if create.Iterations != 2 {
		t.Fatalf("iterations = %d, want 2 (verify forced one more)", create.Iterations)
	}
	_, ent, err := m.Exec.LatestEntity("netlist")
	if err != nil || ent == nil {
		t.Fatalf("latest netlist entity: %v", err)
	}
	obj, err := m.Data.Get(ent.Data)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Bytes[:5]) != "clean" {
		t.Fatalf("accepted output %q is the corrupt version", obj.Bytes)
	}
	verifyEvents := 0
	for _, e := range m.Events() {
		if e.Kind == EvVerifyFailed {
			verifyEvents++
		}
	}
	if verifyEvents != 1 {
		t.Fatalf("verify-failed events = %d, want 1", verifyEvents)
	}
}
