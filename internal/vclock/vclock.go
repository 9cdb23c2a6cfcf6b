// Package vclock provides the virtual time base used throughout flowsched.
//
// All flow executions, schedule simulations, and tool runs advance a
// simulated clock rather than wall time, which makes every experiment
// deterministic and lets a multi-week design project "run" in microseconds.
// The package also models business calendars (working days and hours) so
// that schedule arithmetic — "this task takes three working days" — matches
// what a project-management system would compute.
//
// # Calendar arithmetic
//
// NextWorkInstant, AddWork and WorkBetween work on day numbers: an
// instant splits into its civil day, counted from 1970-01-01 in the
// instant's own location, and an offset into that day. The working days
// between two day numbers are counted by whole weeks, less the holidays
// between them, found by binary search in a sorted index the calendar
// builds when it is made; AddWork inverts that count. A call costs
// O(log holidays) whatever the span, where it used to walk the span one
// day at a time.
//
// The day walk stays as the reference the arithmetic must equal — same
// instant, same Location — and as the path for a span in which the
// location's UTC offset changes, as read from time.Time.ZoneBounds: the
// arithmetic holds only where every civil day lasts 86400 s. The walk
// steps to the next civil midnight with time.Date, so a 25-hour day
// ends and a 23-hour one loses no work. A day's working window is
// measured in elapsed time from the day's midnight as time.Date gives
// it.
//
// A Calendar is immutable: holidays are given to NewCalendar. WorkBetween
// saturates at the largest time.Duration, as time.Time.Sub does.
package vclock

import (
	"fmt"
	"sync"
	"time"
)

// Epoch is the default project start used when none is specified:
// Monday, 1995-06-05 09:00 UTC (the week DAC 1995 took place).
var Epoch = time.Date(1995, time.June, 5, 9, 0, 0, 0, time.UTC)

// Clock is a monotonic virtual clock. The zero value is not usable; create
// one with New or NewAt. Clock is safe for concurrent use.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// New returns a clock starting at Epoch.
func New() *Clock { return NewAt(Epoch) }

// NewAt returns a clock starting at the given instant.
func NewAt(start time.Time) *Clock { return &Clock{now: start} }

// Now reports the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time.
// Advancing by a negative duration is a programming error and panics:
// virtual time, like real time, is monotonic.
func (c *Clock) Advance(d time.Duration) time.Time {
	if d < 0 {
		panic(fmt.Sprintf("vclock: Advance by negative duration %v", d))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// AdvanceTo moves the clock forward to t. If t is not after the current
// time the clock is unchanged. It returns the (possibly unchanged) time.
func (c *Clock) AdvanceTo(t time.Time) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
	return c.now
}

// Set rewinds or forwards the clock unconditionally. It exists for tests
// and for restoring persisted sessions; simulation code should use Advance.
func (c *Clock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
}
