package serve

import (
	"context"
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
//   - Each route is one op kind: the query and the body parse into a
//     flowsched.Op (the grammar hercules and schedules share), and the
//     op applies under the lock.
//   - Errors map through writeError: 400 malformed request, 409
//     version conflict or fork-session limit, 413 body over 1 MiB, 422
//     execution failure (the write ran and the flow failed — domain
//     outcome, not transport), 503 quarantined durable project
//     (structured JSON naming ErrQuarantined so operators can alert on
//     the sentinel).
//   - On success the response carries the post-write store version in
//     X-Flowsched-Version — the token to If-Match the next write on.
//
// A successful write may advance the virtual clock (a run always
// does), so due virtual-time schedules fire right after it; see
// schedule.go.

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
func (s *Server) writeTarget(name string) (p *flowsched.Project, isFork bool, err error) {
	if name == "" {
		return s.p, false, nil
	}
	fs, ok := s.forks.get(name)
	if !ok {
		return nil, false, &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("no fork session %q", name)}
	}
	return fs.p, true, nil
}

// maxWriteBody caps a write's body (an import's content, a track's CSV
// rows); a larger body answers 413 instead of being cut short.
const maxWriteBody = 1 << 20

// serveWrite answers one write route: the op of the route's kind,
// parsed from the query and the body, applied under the write lock.
func (s *Server) serveWrite(w http.ResponseWriter, r *http.Request, kind string) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.opt.ReadOnly {
		s.writeError(w, r, kind, errReadOnly)
		return
	}
	q := r.URL.Query()
	target, isFork, err := s.writeTarget(q.Get("fork"))
	if err != nil {
		s.writeError(w, r, kind, err)
		return
	}
	ifMatch, haveMatch, err := parseIfMatch(r)
	if err != nil {
		s.writeError(w, r, kind, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWriteBody))
	if err != nil {
		s.writeError(w, r, kind, err)
		return
	}
	op, err := flowsched.ParseOp(kind, q, body)
	if err != nil {
		s.writeError(w, r, kind, err)
		return
	}

	var res flowsched.OpResult
	var newVersion uint64
	var vnow time.Time
	err = s.doWrite(target, func(p *flowsched.Project) error {
		if haveMatch && p.Version() != ifMatch {
			return &conflictError{current: p.Version()}
		}
		var ferr error
		res, ferr = op.Apply(p)
		newVersion, vnow = p.Version(), p.Now()
		return ferr
	})
	if err != nil {
		s.writeError(w, r, kind, err)
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
	s.writes.With(kind, "ok").Inc()
	w.Header().Set("X-Flowsched-Version", strconv.FormatUint(newVersion, 10))
	w.Header().Set("X-Flowsched-Now", strconv.FormatInt(vnow.UnixNano(), 10))
	writeJSON(w, http.StatusOK, opPayload(op, res))
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
	var me *http.MaxBytesError
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
	case errors.As(err, &me):
		code, outcome = http.StatusRequestEntityTooLarge, "too_large"
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
	writeJSON(w, code, body)
}

// writeRoutes registers the mutating surface: one route per op kind,
// named after it, plus fork sessions and schedules.
func (s *Server) writeRoutes() {
	for _, kind := range flowsched.OpKinds {
		s.mux.HandleFunc("/"+kind, s.instrument(kind, func(w http.ResponseWriter, r *http.Request) {
			s.serveWrite(w, r, kind)
		}))
	}
	s.mux.HandleFunc("/fork", s.instrument("fork", s.forkRoute))
	s.mux.HandleFunc("/schedules", s.instrument("schedules", s.schedulesRoute))
}

// opPayload formats an applied op as its route's JSON response.
func opPayload(op flowsched.Op, res flowsched.OpResult) map[string]any {
	switch op.Kind {
	case "plan":
		return map[string]any{"planVersion": res.Plan.Version, "targets": res.Targets, "activities": len(res.Plan.Activities)}
	case "run":
		return map[string]any{"targets": res.Targets, "activities": len(res.Run.Outcomes), "started": res.Run.Started, "finished": res.Run.Finished}
	case "track":
		return map[string]any{"applied": res.Applied}
	case "complete":
		return map[string]any{"completed": op.Activity, "entity": op.Entity}
	case "import":
		return map[string]any{"id": res.ID, "class": op.Class}
	case "milestone":
		return map[string]any{"milestone": op.Name, "class": op.Class, "target": op.Target}
	case "propagate":
		return map[string]any{"finish": res.Finish}
	default: // edit
		return map[string]any{"applied": res.Edit.Name}
	}
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
		writeJSON(w, http.StatusOK, struct {
			Forks map[string]uint64 `json:"forks"`
		}{s.forks.list()})
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
		writeJSON(w, http.StatusOK, struct {
			Fork    string `json:"fork"`
			Version uint64 `json:"version"`
		}{name, at})
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
		writeJSON(w, http.StatusOK, struct {
			Deleted string `json:"deleted"`
		}{name})
	default:
		w.Header().Set("Allow", "GET, POST, DELETE")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}
