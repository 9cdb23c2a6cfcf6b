package engine

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"flowsched/internal/flow"
	"flowsched/internal/store"
)

// Recovery is an execution's fault-tolerance policy. The zero value
// reproduces the engine's historical behaviour: no backoff, no run
// deadline, no failover, abort the execution on the first exhausted
// activity.
type Recovery struct {
	// Backoff inserts virtual-time waits between retries of a failed
	// run. A failed run costs calendar time — the paper's slip tracking
	// sees the waits as schedule pressure, exactly like the re-run
	// iterations of §IV.C.
	Backoff Backoff
	// RunDeadline caps one run's virtual working time. A run whose tool
	// reports more work than this (a hung simulator) is aborted on the
	// virtual clock: the activity is charged exactly RunDeadline of
	// working time and the run is recorded as failed. Zero disables.
	RunDeadline time.Duration
	// Failover rotates the activity's binding to the next alternate
	// tool instance (tools.Registry.AddAlternate) after each failed
	// run, so a dead license pool or broken install does not consume
	// the whole failure budget.
	Failover bool
	// ContinueOnBlock degrades gracefully: an activity that exhausts
	// its policy is marked blocked, its dependent subtree is fenced
	// off, and the rest of the flow plus the schedule tracker keep
	// running — the blockage surfaces as slip on the tracked plan
	// instead of invalidating it. Without it the execution aborts with
	// an *ExecError carrying a checkpoint.
	ContinueOnBlock bool
	// Verify, when set, validates an accepted run's output bytes (a
	// checksum or design-rule check). A verification failure does not
	// fail the run — the version is filed — but the design goals count
	// as unmet, forcing another iteration instead of completing the
	// task with corrupt data.
	Verify func(activity string, output []byte) error
}

// Backoff is an exponential virtual-time retry policy: the wait before
// retry n (1-based failure streak) is Initial*Factor^(n-1), capped at
// Max. The waits are working time on the project calendar.
type Backoff struct {
	// Initial is the wait after the first failure. Zero disables backoff.
	Initial time.Duration
	// Factor multiplies the wait per additional consecutive failure
	// (default 2).
	Factor float64
	// Max caps a single wait (0 = uncapped).
	Max time.Duration
}

// wait computes the backoff before the retry following failure number
// streak (>= 1).
func (b Backoff) wait(streak int) time.Duration {
	if b.Initial <= 0 || streak < 1 {
		return 0
	}
	f := b.Factor
	if f <= 0 {
		f = 2
	}
	w := float64(b.Initial)
	for i := 1; i < streak; i++ {
		w *= f
		if b.Max > 0 && w >= float64(b.Max) {
			return b.Max
		}
	}
	if b.Max > 0 && w > float64(b.Max) {
		return b.Max
	}
	return time.Duration(w)
}

// DefaultRecovery is a production-shaped policy: half-hour backoff
// doubling to a day, three-day run deadline, failover across alternates,
// and graceful degradation instead of aborting.
func DefaultRecovery() Recovery {
	return Recovery{
		Backoff:         Backoff{Initial: 30 * time.Minute, Factor: 2, Max: 24 * time.Hour},
		RunDeadline:     72 * time.Hour,
		Failover:        true,
		ContinueOnBlock: true,
	}
}

// ErrGoalNotMet is the terminal cause when an activity's iteration
// bound runs out before the design goals are met.
var ErrGoalNotMet = errors.New("design goals not met within the iteration bound")

// retryAfter is implemented by run errors that know when retrying can
// succeed (fault.LicenseError): the retry cursor jumps to that instant
// instead of burning the failure budget against a known-dead resource.
type retryAfter interface{ RetryAfter() time.Time }

// ActivityFailedError is the typed terminal failure of one activity: it
// exhausted its recovery policy (consecutive-failure bound or iteration
// bound). The completed-activity list names everything that finished
// before the failure — that work is durable in the task database and
// remains queryable; a checkpoint resume re-runs none of it.
type ActivityFailedError struct {
	// Activity is the failing activity.
	Activity string
	// Attempts is the number of tool applications this execution made
	// for the activity; Failures how many of them failed.
	Attempts int
	Failures int
	// Cause is the last run's error (or ErrGoalNotMet).
	Cause error
	// Completed lists the activities that completed before the failure,
	// in execution order.
	Completed []string
}

func (e *ActivityFailedError) Error() string {
	return fmt.Sprintf("engine: activity %s failed after %d attempt(s) (%d failed): %v",
		e.Activity, e.Attempts, e.Failures, e.Cause)
}

// Unwrap exposes the last cause to errors.Is/As.
func (e *ActivityFailedError) Unwrap() error { return e.Cause }

// ExecError is the typed failure of ExecuteTask: it carries the last
// consistent store snapshot (completed work is durable — nothing is
// discarded), the partial result, and a Resume path that continues from
// the completed activities rather than restarting the execution.
type ExecError struct {
	// Failed is the activity failure that aborted the execution.
	Failed *ActivityFailedError
	// Partial is the execution result up to the failure (completed
	// outcomes, started/partial timestamps).
	Partial *ExecResult
	// Snapshot is an immutable view of the task database at the moment
	// of the failure — the checkpoint a post-mortem inspects.
	Snapshot *store.View

	mgr  *Manager
	tree *flow.Tree
	opt  ExecOptions
}

func (e *ExecError) Error() string {
	done := "nothing completed"
	if n := len(e.Failed.Completed); n > 0 {
		done = fmt.Sprintf("%d completed: %s", n, strings.Join(e.Failed.Completed, ", "))
	}
	return fmt.Sprintf("%v (%s; resume continues from the checkpoint)", e.Failed, done)
}

// Unwrap exposes the activity failure to errors.Is/As.
func (e *ExecError) Unwrap() error { return e.Failed }

// Completed lists the activities whose final data is already accepted
// and durable; Resume skips them.
func (e *ExecError) Completed() []string {
	return append([]string(nil), e.Failed.Completed...)
}

// Resume continues the failed execution from its checkpoint: completed
// activities are rehydrated from the task database (their accepted
// entity instances feed dependents) and re-run zero times; only the
// failed activity and everything after it execute again, from the
// current virtual time. Rebind a working tool (or let backoff outlive
// the outage) before resuming, or the same failure recurs — in which
// case Resume returns a fresh *ExecError whose checkpoint includes any
// newly completed work.
func (e *ExecError) Resume() (_ *ExecResult, err error) {
	if e == nil || e.mgr == nil {
		return nil, fmt.Errorf("engine: nothing to resume")
	}
	skip := make(map[string]bool, len(e.Failed.Completed))
	for _, a := range e.Failed.Completed {
		skip[a] = true
	}
	opt := e.opt
	if opt.Plan != nil { // writes since the failure may have propagated it
		if _, opt.Plan, err = e.mgr.Sched.PlanByVersion(opt.Plan.Version); err != nil {
			return nil, err
		}
	}
	return opt.commit(e.mgr.execute(e.tree, opt, skip))
}
