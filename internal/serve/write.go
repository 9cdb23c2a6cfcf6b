package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"flowsched"
)

// The mutating HTTP surface. Every write route shares one shape:
//
//   - POST only; GETs answer 405 and Options.ReadOnly answers 403.
//   - Writes serialize through the per-project write lock — the
//     server's own mutex standalone, the host registry's entry lock
//     (host.Handle.Do) in host mode — because facade mutators assume a
//     single writer.
//   - Optimistic concurrency via If-Match against the store version
//     that every read already stamps in X-Flowsched-Version: a designer
//     edits against the state they saw, and a stale If-Match answers
//     409 carrying the current version (header and body) so the client
//     re-reads and retries. Without If-Match the write is
//     unconditional.
//   - Errors map through writeError: 400 malformed request, 409
//     version conflict or fork-session limit, 422 execution failure
//     (the write ran and the flow failed — domain outcome, not
//     transport), 503 quarantined durable project (structured JSON
//     naming ErrQuarantined so operators can alert on the sentinel).
//   - On success the response carries the post-write store version in
//     X-Flowsched-Version — the token to If-Match the next write on.
//
// A successful write may advance the virtual clock (a run always
// does), so due virtual-time schedules fire right after it; see
// schedule.go.

// writeFunc performs one route's mutation against the locked project
// and returns the JSON payload of the success response.
type writeFunc func(p *flowsched.Project, r *http.Request) (any, error)

// conflictError is an If-Match mismatch: someone committed between the
// client's read and its write.
type conflictError struct{ current uint64 }

func (e *conflictError) Error() string {
	return fmt.Sprintf("version conflict: store is at %d", e.current)
}

// forkLimitError is the fork-session budget (Options.MaxForks) running
// out; also a 409 — the resource exists, the state refuses.
type forkLimitError struct{ max int }

func (e *forkLimitError) Error() string {
	return fmt.Sprintf("fork limit reached: %d sessions held; DELETE one first", e.max)
}

// errReadOnly gates every mutating route under Options.ReadOnly.
var errReadOnly = &httpError{code: http.StatusForbidden, msg: "server is read-only"}

// parseIfMatch reads the optional If-Match header: a store version,
// bare or in exactly one pair of quotes (ETag style). ok reports whether
// the header was sent.
func parseIfMatch(r *http.Request) (version uint64, ok bool, err error) {
	raw := strings.TrimSpace(r.Header.Get("If-Match"))
	if raw == "" {
		return 0, false, nil
	}
	if len(raw) >= 2 && raw[0] == '"' && raw[len(raw)-1] == '"' {
		raw = raw[1 : len(raw)-1]
	}
	v, perr := strconv.ParseUint(raw, 10, 64)
	if perr != nil {
		return 0, false, badRequest("bad If-Match %q: want a store version", r.Header.Get("If-Match"))
	}
	return v, true, nil
}

// doWrite runs fn under the project's write lock. The main project
// uses the host's per-project lock when one is wired (Options.writeVia,
// i.e. host.Handle.Do), so HTTP writes serialize with checkpoints and
// embedded writers; fork sessions are server-local and always use the
// server's own mutex.
func (s *Server) doWrite(target *flowsched.Project, fn func(*flowsched.Project) error) error {
	if target == s.p && s.opt.writeVia != nil {
		return s.opt.writeVia(fn)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return fn(target)
}

// writeTarget resolves which project a write addresses: the server's
// own, or a named fork session (?fork=name).
func (s *Server) writeTarget(r *http.Request) (p *flowsched.Project, isFork bool, err error) {
	name := r.URL.Query().Get("fork")
	if name == "" {
		return s.p, false, nil
	}
	fs, ok := s.forks.get(name)
	if !ok {
		return nil, false, &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("no fork session %q", name)}
	}
	return fs.p, true, nil
}

// handleWrite registers one mutating route.
func (s *Server) handleWrite(pattern, name string, fn writeFunc) {
	s.mux.HandleFunc(pattern, s.instrument(name, func(w http.ResponseWriter, r *http.Request) {
		s.serveWrite(w, r, name, fn)
	}))
}

func (s *Server) serveWrite(w http.ResponseWriter, r *http.Request, name string, fn writeFunc) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.opt.ReadOnly {
		s.writeError(w, r, name, errReadOnly)
		return
	}
	target, isFork, err := s.writeTarget(r)
	if err != nil {
		s.writeError(w, r, name, err)
		return
	}
	ifMatch, haveMatch, err := parseIfMatch(r)
	if err != nil {
		s.writeError(w, r, name, err)
		return
	}

	var payload any
	var newVersion uint64
	var vnow time.Time
	err = s.doWrite(target, func(p *flowsched.Project) error {
		if haveMatch && p.Version() != ifMatch {
			return &conflictError{current: p.Version()}
		}
		var ferr error
		payload, ferr = fn(p, r)
		newVersion, vnow = p.Version(), p.Now()
		return ferr
	})
	if err != nil {
		s.writeError(w, r, name, err)
		return
	}
	if !isFork {
		// The write may have moved the virtual clock across a schedule
		// boundary; fire whatever came due (each takes the write lock
		// itself).
		s.runDueSchedules()
	}
	if ri := reqInfoFrom(r); ri != nil {
		ri.version, ri.vnow = newVersion, vnow
	}
	s.storeVersion.Set(int64(s.p.Version()))
	s.writes.With(name, "ok").Inc()
	w.Header().Set("X-Flowsched-Version", strconv.FormatUint(newVersion, 10))
	w.Header().Set("X-Flowsched-Now", strconv.FormatInt(vnow.UnixNano(), 10))
	body, ctype, err := jsonBody(payload)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.Write(body)
}

// writeErrorBody is the structured JSON error of the write path.
type writeErrorBody struct {
	Error          string   `json:"error"`
	CurrentVersion *uint64  `json:"currentVersion,omitempty"`
	Quarantined    bool     `json:"quarantined,omitempty"`
	Sentinel       string   `json:"sentinel,omitempty"`
	Failed         string   `json:"failed,omitempty"`
	Completed      []string `json:"completed,omitempty"`
}

// writeError maps a write failure onto status + structured JSON — the
// error-mapping table the tests pin.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, name string, err error) {
	body := writeErrorBody{Error: err.Error()}
	code := http.StatusBadRequest
	outcome := "invalid"

	var ce *conflictError
	var fe *forkLimitError
	var xe *flowsched.ExecError
	switch {
	case errors.As(err, &ce):
		// Stale If-Match: tell the client where the store actually is,
		// in the body and in the same header reads stamp, so the retry
		// needs no extra round trip.
		code, outcome = http.StatusConflict, "conflict"
		cur := ce.current
		body.CurrentVersion = &cur
		w.Header().Set("X-Flowsched-Version", strconv.FormatUint(cur, 10))
		s.conflicts.Inc()
	case errors.Is(err, flowsched.ErrQuarantined):
		// The project's WAL is wedged: reads still serve, writes must
		// not pretend to be server bugs. 503 + the sentinel's name so
		// probes and operators key off it.
		code, outcome = http.StatusServiceUnavailable, "quarantined"
		body.Quarantined = true
		body.Sentinel = "ErrQuarantined"
	case errors.As(err, &fe):
		code, outcome = http.StatusConflict, "fork_limit"
	case errors.As(err, &xe):
		// The write ran and the flow failed — a domain outcome carried
		// back to the designer, not a transport error.
		code, outcome = http.StatusUnprocessableEntity, "failed"
		if xe.Failed != nil {
			body.Failed = xe.Failed.Activity
			body.Completed = xe.Failed.Completed
		}
	case errors.Is(err, context.Canceled):
		code, outcome = statusClientClosedRequest, "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		code, outcome = http.StatusServiceUnavailable, "canceled"
		w.Header().Set("Retry-After", retryAfterValue(s.opt.RetryAfter))
	default:
		code = errCode(err) // *httpError keeps its code; others are 400
		if code == http.StatusForbidden {
			outcome = "readonly"
		}
	}
	if ri := reqInfoFrom(r); ri != nil {
		ri.errMsg = err.Error()
	}
	s.writes.With(name, outcome).Inc()
	b, _ := json.MarshalIndent(body, "", "  ")
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

// writeTargets resolves the "targets" parameter against the locked
// project (default: the tracked plan's targets).
func writeTargets(p *flowsched.Project, r *http.Request) ([]string, error) {
	if t := r.URL.Query().Get("targets"); t != "" {
		return strings.Split(t, ","), nil
	}
	if pl := p.CurrentPlan(); pl != nil && len(pl.Targets) > 0 {
		return pl.Targets, nil // CurrentPlan returns a copy
	}
	return nil, badRequest("no targets: pass ?targets=a,b or plan first")
}

func qBool(r *http.Request, name string, def bool) (bool, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	b, err := strconv.ParseBool(raw)
	if err != nil {
		return false, badRequest("bad %s %q: want true|false", name, raw)
	}
	return b, nil
}

// writeRoutes registers the mutating surface.
func (s *Server) writeRoutes() {
	s.handleWrite("/plan", "plan", writePlan)
	s.handleWrite("/run", "run", writeRun)
	s.handleWrite("/track", "track", writeTrack)
	s.handleWrite("/complete", "complete", writeComplete)
	s.handleWrite("/import", "import", writeImport)
	s.handleWrite("/milestone", "milestone", writeMilestone)
	s.handleWrite("/propagate", "propagate", writePropagate)
	s.handleWrite("/edit", "edit", writeEdit)
	s.mux.HandleFunc("/fork", s.instrument("fork", s.forkRoute))
	s.mux.HandleFunc("/schedules", s.instrument("schedules", s.schedulesRoute))
}

// writePlan derives a new tracked plan: POST /plan?targets=a,b&hours=8.
func writePlan(p *flowsched.Project, r *http.Request) (any, error) {
	targets, err := writeTargets(p, r)
	if err != nil {
		return nil, err
	}
	hours, err := qInt(r.URL.Query(), "hours", 8)
	if err != nil {
		return nil, err
	}
	if hours <= 0 {
		return nil, badRequest("bad hours %d: want > 0", hours)
	}
	pl, err := p.Plan(targets, flowsched.Fixed{Default: time.Duration(hours) * time.Hour}, flowsched.PlanOptions{})
	if err != nil {
		return nil, err
	}
	return struct {
		PlanVersion int      `json:"planVersion"`
		Targets     []string `json:"targets"`
		Activities  int      `json:"activities"`
	}{pl.Version, targets, len(pl.Activities)}, nil
}

// writeRun executes the flow: POST /run?targets=&parallel=&autocomplete=.
func writeRun(p *flowsched.Project, r *http.Request) (any, error) {
	targets, err := writeTargets(p, r)
	if err != nil {
		return nil, err
	}
	parallel, err := qBool(r, "parallel", false)
	if err != nil {
		return nil, err
	}
	auto, err := qBool(r, "autocomplete", true)
	if err != nil {
		return nil, err
	}
	res, err := p.RunWith(targets, flowsched.RunOptions{AutoComplete: auto, Parallel: parallel})
	if err != nil {
		return nil, err
	}
	return struct {
		Targets    []string  `json:"targets"`
		Activities int       `json:"activities"`
		Started    time.Time `json:"started"`
		Finished   time.Time `json:"finished"`
	}{targets, len(res.Outcomes), res.Started, res.Finished}, nil
}

// writeTrack applies hand-collected actuals: POST /track with a CSV
// body of activity,start,finish,done rows — the paper's manual status
// tracking, over HTTP.
func writeTrack(p *flowsched.Project, r *http.Request) (any, error) {
	defer r.Body.Close()
	body := io.LimitReader(r.Body, 1<<20)
	n, err := p.ImportActualsCSV(body)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return struct {
		Applied int `json:"applied"`
	}{n}, nil
}

// writeComplete links an activity to its final entity instance:
// POST /complete?activity=Name&entity=id.
func writeComplete(p *flowsched.Project, r *http.Request) (any, error) {
	activity := r.URL.Query().Get("activity")
	if activity == "" {
		return nil, badRequest("missing activity: pass ?activity=Name")
	}
	entity := r.URL.Query().Get("entity")
	if entity == "" {
		return nil, badRequest("missing entity: pass ?entity=id (the final design data instance)")
	}
	if err := p.Complete(activity, entity); err != nil {
		return nil, err
	}
	return struct {
		Completed string `json:"completed"`
		Entity    string `json:"entity"`
	}{activity, entity}, nil
}

// writeImport registers primary design data: POST /import?class=X with
// the entity's content as the body.
func writeImport(p *flowsched.Project, r *http.Request) (any, error) {
	class := r.URL.Query().Get("class")
	if class == "" {
		return nil, badRequest("missing class: pass ?class=name")
	}
	defer r.Body.Close()
	data, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	id, err := p.Import(class, data)
	if err != nil {
		return nil, err
	}
	return struct {
		ID    string `json:"id"`
		Class string `json:"class"`
	}{id, class}, nil
}

// writeMilestone commits a named target date:
// POST /milestone?name=&class=&target=RFC3339.
func writeMilestone(p *flowsched.Project, r *http.Request) (any, error) {
	name := r.URL.Query().Get("name")
	class := r.URL.Query().Get("class")
	rawTarget := r.URL.Query().Get("target")
	if name == "" || class == "" || rawTarget == "" {
		return nil, badRequest("milestone needs ?name=&class=&target=RFC3339")
	}
	target, err := time.Parse(time.RFC3339, rawTarget)
	if err != nil {
		return nil, badRequest("bad target %q: want RFC3339", rawTarget)
	}
	if err := p.SetMilestone(name, class, target); err != nil {
		return nil, err
	}
	return struct {
		Milestone string    `json:"milestone"`
		Class     string    `json:"class"`
		Target    time.Time `json:"target"`
	}{name, class, target}, nil
}

// writePropagate re-projects the plan for slips: POST /propagate.
func writePropagate(p *flowsched.Project, _ *http.Request) (any, error) {
	finish, err := p.Propagate()
	if err != nil {
		return nil, err
	}
	return struct {
		Finish time.Time `json:"finish"`
	}{finish}, nil
}

// writeEdit promotes a what-if edit into the tracked reality:
// POST /edit?spec=name=Act*1.5;Act2+3h (the hercules what-if syntax).
func writeEdit(p *flowsched.Project, r *http.Request) (any, error) {
	spec := r.URL.Query().Get("spec")
	if spec == "" {
		return nil, badRequest("missing spec: pass ?spec=name=Act*1.5;Act+3h")
	}
	e, err := flowsched.ParseScenarioEdit(spec)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if err := p.ApplyScenarioEdit(e); err != nil {
		return nil, badRequest("%v", err)
	}
	return struct {
		Applied string `json:"applied"`
	}{e.Name}, nil
}

// forkSessions holds the server's named what-if forks: cheap
// copy-on-write branches a designer mutates through the same write
// routes (?fork=name) and reads through every read route (?fork=name),
// without ever touching the tracked project.
type forkSessions struct {
	mu     sync.Mutex
	m      map[string]forkSession
	seq    int
	opened uint64 // sessions ever opened: the source of forkSession.id
	max    int
}

// forkSession is one named fork. Its id is unique for the server's
// life, unlike its name, which a new session may take once the old one
// is deleted; response-cache keys carry the id, so a new session is
// never answered from its predecessor's entries.
type forkSession struct {
	p  *flowsched.Project
	id uint64
}

const defaultMaxForks = 8

func (f *forkSessions) limit() int {
	if f.max <= 0 {
		return defaultMaxForks
	}
	return f.max
}

func (f *forkSessions) get(name string) (forkSession, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fs, ok := f.m[name]
	return fs, ok
}

func (f *forkSessions) put(name string, p *flowsched.Project) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.m == nil {
		f.m = make(map[string]forkSession)
	}
	if name == "" {
		f.seq++
		name = fmt.Sprintf("f%d", f.seq)
	} else if _, ok := f.m[name]; ok {
		return "", &httpError{code: http.StatusConflict, msg: fmt.Sprintf("fork session %q already exists", name)}
	}
	if len(f.m) >= f.limit() {
		return "", &forkLimitError{max: f.limit()}
	}
	f.opened++
	f.m[name] = forkSession{p: p, id: f.opened}
	return name, nil
}

func (f *forkSessions) del(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.m[name]; !ok {
		return false
	}
	delete(f.m, name)
	return true
}

func (f *forkSessions) list() map[string]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]uint64, len(f.m))
	for name, fs := range f.m {
		out[name] = fs.p.Version()
	}
	return out
}

// forkRoute manages fork sessions:
//
//	POST   /fork?name=x   branch the tracked project (name optional)
//	GET    /fork          list sessions and their store versions
//	DELETE /fork?name=x   discard a session
//
// A session is mutated and read through any route's ?fork=name. Forks
// are in-memory only — never durable, never streamed — and die with
// the server.
func (s *Server) forkRoute(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		body, ctype, err := jsonBody(struct {
			Forks map[string]uint64 `json:"forks"`
		}{s.forks.list()})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", ctype)
		w.Write(body)
	case http.MethodPost:
		if s.opt.ReadOnly {
			s.writeError(w, r, "fork", errReadOnly)
			return
		}
		ifMatch, haveMatch, err := parseIfMatch(r)
		if err != nil {
			s.writeError(w, r, "fork", err)
			return
		}
		var f *flowsched.Project
		var at uint64
		err = s.doWrite(s.p, func(p *flowsched.Project) error {
			if haveMatch && p.Version() != ifMatch {
				return &conflictError{current: p.Version()}
			}
			var ferr error
			f, ferr = p.Fork()
			at = p.Version()
			return ferr
		})
		if err != nil {
			s.writeError(w, r, "fork", err)
			return
		}
		name, err := s.forks.put(r.URL.Query().Get("name"), f)
		if err != nil {
			s.writeError(w, r, "fork", err)
			return
		}
		s.writes.With("fork", "ok").Inc()
		w.Header().Set("X-Flowsched-Version", strconv.FormatUint(at, 10))
		body, ctype, merr := jsonBody(struct {
			Fork    string `json:"fork"`
			Version uint64 `json:"version"`
		}{name, at})
		if merr != nil {
			http.Error(w, merr.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", ctype)
		w.Write(body)
	case http.MethodDelete:
		if s.opt.ReadOnly {
			s.writeError(w, r, "fork", errReadOnly)
			return
		}
		name := r.URL.Query().Get("name")
		if name == "" {
			s.writeError(w, r, "fork", badRequest("missing name: pass ?name=session"))
			return
		}
		if !s.forks.del(name) {
			s.writeError(w, r, "fork", &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("no fork session %q", name)})
			return
		}
		s.writes.With("fork", "ok").Inc()
		body, ctype, _ := jsonBody(struct {
			Deleted string `json:"deleted"`
		}{name})
		w.Header().Set("Content-Type", ctype)
		w.Write(body)
	default:
		w.Header().Set("Allow", "GET, POST, DELETE")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}
