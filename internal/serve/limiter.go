package serve

import (
	"context"
	"errors"
	"sync"

	"flowsched/internal/obs"
)

// Route weights for the admission limiter. Admission is capacity-based,
// not count-based: a simulation-heavy route consumes heavyWeight units
// of Options.MaxInFlight while cheap snapshot reads consume one, so one
// budget bounds total work rather than request count. Operational
// surfaces (metrics, health, debugging) weigh zero — an overloaded
// server must stay observable, or the operator cannot see why it is
// shedding.
const (
	lightWeight = 1
	planWeight  = 4
	heavyWeight = 8
)

// routeWeight maps a route name to its admission weight.
func routeWeight(name string) int64 {
	switch name {
	case "risk", "whatif":
		return heavyWeight
	// Writes are admission-weighted by the work behind them: a run
	// executes the flow (as heavy as a simulation), a plan simulates
	// scheduling, the bookkeeping writes cost a read's unit. /events
	// stays free — SSE streams park for hours and must not hold
	// admission units; a parked stream is one goroutine blocked on the
	// event log.
	case "run":
		return heavyWeight
	case "plan":
		return planWeight
	case "track", "complete", "import", "milestone", "propagate", "edit", "fork":
		return lightWeight
	case "metrics", "healthz", "trace", "events", "debug_requests", "debug_trace", "schedules":
		return 0
	}
	return lightWeight
}

// errShedQueueFull is returned by acquire when the wait queue is at
// capacity: the request is shed immediately rather than queued behind
// work the server already cannot keep up with.
var errShedQueueFull = errors.New("serve: admission queue full")

// limiter is a weighted semaphore with a bounded FIFO wait queue.
// Requests whose weight fits run immediately; otherwise they queue (up
// to maxQueue) and are granted strictly in arrival order — no
// barging, so a stream of cheap requests cannot starve a queued heavy
// one. A request whose context ends while queued leaves the queue and
// never holds capacity.
type limiter struct {
	capacity int64
	maxQueue int

	mu    sync.Mutex
	used  int64
	queue []*waiter

	depth *obs.Gauge // serve_queue_depth
}

type waiter struct {
	weight  int64
	ready   chan struct{}
	granted bool // guarded by limiter.mu
}

func newLimiter(capacity int64, maxQueue int, depth *obs.Gauge) *limiter {
	if capacity <= 0 {
		return nil
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &limiter{capacity: capacity, maxQueue: maxQueue, depth: depth}
}

// acquire blocks until weight units are granted, the queue overflows
// (errShedQueueFull), or ctx ends (ctx.Err()). A weight above the total
// capacity is clamped: the heaviest request can always run, alone.
func (l *limiter) acquire(ctx context.Context, weight int64) error {
	if l == nil || weight <= 0 {
		return nil
	}
	if weight > l.capacity {
		weight = l.capacity
	}
	l.mu.Lock()
	if len(l.queue) == 0 && l.used+weight <= l.capacity {
		l.used += weight
		l.mu.Unlock()
		return nil
	}
	if len(l.queue) >= l.maxQueue {
		l.mu.Unlock()
		return errShedQueueFull
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	l.queue = append(l.queue, w)
	l.depth.Set(int64(len(l.queue)))
	l.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		l.mu.Lock()
		if w.granted {
			// Lost the race: the grant landed between ctx ending and the
			// lock. Give the capacity back rather than serve a dead
			// request.
			l.used -= w.weight
			l.grantLocked()
			l.mu.Unlock()
			return ctx.Err()
		}
		for i, q := range l.queue {
			if q == w {
				l.queue = append(l.queue[:i], l.queue[i+1:]...)
				break
			}
		}
		l.depth.Set(int64(len(l.queue)))
		l.mu.Unlock()
		return ctx.Err()
	}
}

// release returns weight units and wakes queued waiters in FIFO order.
func (l *limiter) release(weight int64) {
	if l == nil || weight <= 0 {
		return
	}
	if weight > l.capacity {
		weight = l.capacity
	}
	l.mu.Lock()
	l.used -= weight
	l.grantLocked()
	l.mu.Unlock()
}

func (l *limiter) grantLocked() {
	for len(l.queue) > 0 {
		w := l.queue[0]
		if l.used+w.weight > l.capacity {
			break
		}
		l.used += w.weight
		w.granted = true
		l.queue = l.queue[1:]
		close(w.ready)
	}
	l.depth.Set(int64(len(l.queue)))
}
