package serve

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"flowsched"
	"flowsched/internal/obs"
)

// Virtual-time cron schedules: "re-plan the chip hourly", "run the
// regression flow weekly" — the Schedule/Hourly/Daily/Weekly shape of
// workflow schedulers, but evaluated against the project's *virtual*
// clock, not the wall. Virtual time only moves when work executes, so
// schedules fire deterministically: after every successful write the
// server checks whether the clock crossed a boundary and fires what
// came due, each firing a normal write (under the write lock, events
// on the stream, visible to every SSE subscriber). A fire that lands
// multiple periods late collapses the catch-up: it runs once and the
// next-fire instant advances past now — schedules describe cadence,
// not a backlog.
//
// Surface:
//
//	GET    /schedules                      list (with next virtual fire)
//	POST   /schedules?kind=daily&action=plan&targets=a,b&hours=8
//	DELETE /schedules?id=3
//
// kind: hourly | daily | weekly | every (with &every=4h30m)
// action: plan, run or propagate; the rest of the query is the action's
//         op, parsed by flowsched.ParseOp exactly as its write route
//         parses it, and each fire applies that op.

// Schedule is one virtual-time cron entry.
type Schedule struct {
	ID      int           `json:"id"`
	Kind    string        `json:"kind"`            // hourly|daily|weekly|every
	Every   time.Duration `json:"every,omitempty"` // period for kind "every"
	Action  string        `json:"action"`          // plan|run|propagate: the op's kind
	Op      flowsched.Op  `json:"op"`              // what a fire applies, in its String form
	Next    time.Time     `json:"next"`            // next virtual fire instant
	Fired   int           `json:"fired"`
	LastErr string        `json:"lastError,omitempty"`
}

// period is the schedule's virtual cadence.
func (sc *Schedule) period() time.Duration {
	switch sc.Kind {
	case "hourly":
		return time.Hour
	case "daily":
		return 24 * time.Hour
	case "weekly":
		return 7 * 24 * time.Hour
	default:
		return sc.Every
	}
}

// scheduler owns the entries behind its own lock; fires run outside it
// (each under the project write lock).
type scheduler struct {
	mu     sync.Mutex
	m      map[int]*Schedule
	seq    int
	fires  *obs.CounterVec // serve_schedule_fires_total{action}
	errs   *obs.Counter    // serve_schedule_errors_total
	active *obs.Gauge      // serve_schedules
}

func newScheduler(reg *obs.Registry) *scheduler {
	return &scheduler{
		m:      make(map[int]*Schedule),
		fires:  reg.CounterVec("serve_schedule_fires_total", "action"),
		errs:   reg.Counter("serve_schedule_errors_total"),
		active: reg.Gauge("serve_schedules"),
	}
}

// parseSchedule builds a Schedule from query parameters; spec strings
// from the flowservd -schedule flag funnel through the same names.
func parseSchedule(q url.Values, now time.Time) (*Schedule, error) {
	sc := &Schedule{Kind: q.Get("kind"), Action: q.Get("action")}
	switch sc.Kind {
	case "hourly", "daily", "weekly":
	case "every":
		raw := q.Get("every")
		if raw == "" {
			return nil, badRequest("kind=every needs &every=4h30m")
		}
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			return nil, badRequest("bad every %q: want a positive duration", raw)
		}
		sc.Every = d
	default:
		return nil, badRequest("bad kind %q: want hourly|daily|weekly|every", sc.Kind)
	}
	if sc.Action != "plan" && sc.Action != "run" && sc.Action != "propagate" {
		return nil, badRequest("bad action %q: want plan|run|propagate", sc.Action)
	}
	var err error
	if sc.Op, err = flowsched.ParseOp(sc.Action, q, nil); err != nil {
		return nil, err
	}
	sc.Next = nextAligned(now, sc)
	return sc, nil
}

// nextAligned picks the first virtual fire after now: hourly and daily
// schedules align to the period boundary (top of the virtual hour /
// virtual midnight UTC), longer and custom periods simply count from
// creation.
func nextAligned(now time.Time, sc *Schedule) time.Time {
	p := sc.period()
	switch sc.Kind {
	case "hourly", "daily":
		return now.Truncate(p).Add(p)
	default:
		return now.Add(p)
	}
}

func (sd *scheduler) add(sc *Schedule) *Schedule {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	sd.seq++
	sc.ID = sd.seq
	sd.m[sc.ID] = sc
	sd.active.Set(int64(len(sd.m)))
	return sc
}

func (sd *scheduler) del(id int) bool {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	if _, ok := sd.m[id]; !ok {
		return false
	}
	delete(sd.m, id)
	sd.active.Set(int64(len(sd.m)))
	return true
}

func (sd *scheduler) list() []Schedule {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	out := make([]Schedule, 0, len(sd.m))
	for _, sc := range sd.m {
		out = append(out, *sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// due returns the schedules whose next fire is at or before the
// virtual now, each at most once per sweep.
func (sd *scheduler) due(now time.Time) []*Schedule {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	var out []*Schedule
	for _, sc := range sd.m {
		if !sc.Next.After(now) {
			out = append(out, sc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// runDueSchedules fires every schedule the virtual clock has crossed.
// Called after each successful write; each fire is itself a write (and
// may advance the clock further — a run usually does), but one sweep
// fires each schedule at most once and pushes its next instant past
// the post-fire now, so sweeps terminate.
func (s *Server) runDueSchedules() {
	for _, sc := range s.sched.due(s.p.Now()) {
		err := s.doWrite(s.p, func(p *flowsched.Project) error {
			_, err := sc.Op.Apply(p)
			return err
		})
		s.sched.mu.Lock()
		sc.Fired++
		if err != nil {
			sc.LastErr = err.Error()
			s.sched.errs.Inc()
		} else {
			sc.LastErr = ""
		}
		now := s.p.Now()
		next := sc.Next
		for !next.After(now) {
			next = next.Add(sc.period())
		}
		sc.Next = next
		s.sched.mu.Unlock()
		s.sched.fires.With(sc.Action).Inc()
	}
}

// AddSchedule installs a schedule from a flag-style spec:
// "kind:action[:targets[:hours]]", with kind "every=4h" for custom
// periods — e.g. "daily:run:performance" or "every=4h:plan:chip:6".
func (s *Server) AddSchedule(spec string) (*Schedule, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 {
		return nil, fmt.Errorf("bad schedule %q: want kind:action[:targets[:hours]]", spec)
	}
	vals := url.Values{"action": {parts[1]}}
	if k, v, ok := strings.Cut(parts[0], "="); ok {
		vals.Set("kind", k)
		vals.Set("every", v)
	} else {
		vals.Set("kind", parts[0])
	}
	if len(parts) > 2 {
		vals.Set("targets", parts[2])
	}
	if len(parts) > 3 {
		vals.Set("hours", parts[3])
	}
	sc, err := parseSchedule(vals, s.p.Now())
	if err != nil {
		return nil, fmt.Errorf("bad schedule %q: %w", spec, err)
	}
	return s.sched.add(sc), nil
}

// schedulesRoute is the schedule CRUD surface.
func (s *Server) schedulesRoute(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, struct {
			Now       time.Time  `json:"now"`
			Schedules []Schedule `json:"schedules"`
		}{s.p.Now(), s.sched.list()})
	case http.MethodPost:
		if s.opt.ReadOnly {
			s.writeError(w, r, "schedules", errReadOnly)
			return
		}
		sc, err := parseSchedule(r.URL.Query(), s.p.Now())
		if err != nil {
			s.writeError(w, r, "schedules", err)
			return
		}
		s.sched.add(sc)
		s.writes.With("schedules", "ok").Inc()
		writeJSON(w, http.StatusOK, sc)
	case http.MethodDelete:
		if s.opt.ReadOnly {
			s.writeError(w, r, "schedules", errReadOnly)
			return
		}
		id, err := qInt(r.URL.Query(), "id", 0)
		if err != nil || id <= 0 {
			s.writeError(w, r, "schedules", badRequest("missing id: pass ?id=N"))
			return
		}
		if !s.sched.del(id) {
			s.writeError(w, r, "schedules", &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("no schedule %d", id)})
			return
		}
		s.writes.With("schedules", "ok").Inc()
		writeJSON(w, http.StatusOK, struct {
			Deleted int `json:"deleted"`
		}{id})
	default:
		w.Header().Set("Allow", "GET, POST, DELETE")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}
