package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"flowsched"
	"flowsched/internal/host"
	"flowsched/internal/obs"
)

// Host is the multi-tenant server: one process serving every project
// under a durable root. Routing is path-scoped — every single-project
// read surface is mounted under /p/{id}/ with identical semantics, so
// a client of the one-project server just prefixes its paths.
//
// Each request pins its project for the duration (a registry handle),
// so an eviction racing a slow read never tears the response: the
// pinned instance finishes serving from its snapshot, the WAL closes
// at the last release, and the next request re-loads from disk to the
// same store version.
//
// Per-project servers (mux, memo cache, fingerprint cache, request
// metrics) are built lazily on first touch and rebuilt whenever the
// registry hands back a different project instance (i.e. after an
// evict + re-load), so caches never serve a stale instance.
type Host struct {
	reg *host.Registry
	opt Options
	// hreg carries host-level metrics: the per-tenant request counter
	// and the registry's load/evict/resident families.
	hreg *obs.Registry
	mux  *http.ServeMux
	srv  *http.Server

	mu      sync.Mutex
	servers map[string]*projServer

	reqs     *obs.CounterVec // serve_requests_by_project_total{project}
	rejected *obs.Counter    // serve_host_rejected_total
	shed     *obs.CounterVec // serve_shed_total{route,reason} (tenant_quota sheds)

	// lim is the host-wide admission limiter, shared by every
	// per-project server: one budget bounds total in-flight work no
	// matter how many tenants are resident.
	lim *limiter
	// tb enforces per-tenant fair share in front of the shared limiter.
	tb *tenantBuckets

	// afterPin, when set, runs after a request pins its project and
	// before it is served — a test seam for racing evictions against
	// in-flight requests.
	afterPin func(id string)
}

// projServer binds a per-project Server to the project instance it was
// built over, so a re-loaded instance gets a fresh server (and fresh
// caches).
type projServer struct {
	p   *flowsched.Project
	srv *Server
}

// NewHost builds the multi-tenant server: it opens a project registry
// with hostOpt (wiring the host's metrics registry in when hostOpt.Obs
// is unset) and serves every project under hostOpt.Root. opt configures
// both the HTTP server and every per-project Server.
func NewHost(hostOpt host.Options, opt Options) (*Host, error) {
	if opt.Addr == "" {
		opt.Addr = ":8080"
	}
	if opt.ReadTimeout <= 0 {
		opt.ReadTimeout = 5 * time.Second
	}
	if opt.WriteTimeout <= 0 {
		opt.WriteTimeout = 2 * time.Minute
	}
	if opt.IdleTimeout <= 0 {
		opt.IdleTimeout = 2 * time.Minute
	}
	hreg := obs.NewRegistry()
	if hostOpt.Obs == nil {
		hostOpt.Obs = obs.NewWith(hreg, nil)
	}
	reg, err := host.NewRegistry(hostOpt)
	if err != nil {
		return nil, err
	}
	h := &Host{
		reg: reg, opt: opt, hreg: hreg,
		mux:     http.NewServeMux(),
		servers: make(map[string]*projServer),
		reqs: hreg.BoundedCounterVec("serve_requests_by_project_total",
			obs.DefaultMaxSeries, "project"),
		rejected: hreg.Counter("serve_host_rejected_total"),
		shed:     hreg.CounterVec("serve_shed_total", "route", "reason"),
		tb:       newTenantBuckets(opt.TenantRate, opt.TenantBurst),
	}
	if opt.RetryAfter <= 0 {
		opt.RetryAfter = time.Second
		h.opt.RetryAfter = opt.RetryAfter
	}
	if opt.MaxInFlight > 0 {
		qd := opt.QueueDepth
		if qd == 0 {
			qd = 2 * opt.MaxInFlight
		}
		h.lim = newLimiter(int64(opt.MaxInFlight), qd, hreg.Gauge("serve_queue_depth"))
	}
	h.mux.HandleFunc("/projects", h.projects)
	h.mux.HandleFunc("POST /p/{id}/reopen", h.reopen)
	h.mux.HandleFunc("/p/{id}/", h.dispatch)
	h.mux.HandleFunc("/metrics", h.metrics)
	h.mux.HandleFunc("/healthz", h.healthz)
	h.srv = &http.Server{
		Addr: opt.Addr, Handler: h.mux,
		ReadTimeout: opt.ReadTimeout, WriteTimeout: opt.WriteTimeout,
		IdleTimeout: opt.IdleTimeout,
	}
	return h, nil
}

// Projects returns the underlying registry (for seeding, tests, and
// operational tooling).
func (h *Host) Projects() *host.Registry { return h.reg }

// Handler returns the route handler (for tests and embedding).
func (h *Host) Handler() http.Handler { return h.mux }

// Registry returns the host-level metrics registry.
func (h *Host) Registry() *obs.Registry { return h.hreg }

// ListenAndServe serves until Shutdown (or a listener error).
func (h *Host) ListenAndServe() error { return h.srv.ListenAndServe() }

// Serve serves on an existing listener (Options.Addr is ignored).
func (h *Host) Serve(l net.Listener) error { return h.srv.Serve(l) }

// Shutdown is the graceful drain: the listener closes, in-flight
// requests complete (bounded by ctx), and then every resident project
// is checkpointed and its WAL closed — restart replays nothing.
func (h *Host) Shutdown(ctx context.Context) error {
	// End every project's SSE streams first: each live subscriber gets
	// a terminal frame and its handler returns, so the listener drain
	// below never waits on a parked stream.
	h.mu.Lock()
	for _, ps := range h.servers {
		ps.srv.CloseStreams()
	}
	h.mu.Unlock()
	err := h.srv.Shutdown(ctx)
	if cerr := h.reg.Close(); err == nil {
		err = cerr
	}
	return err
}

// dispatch routes /p/{id}/... to the project's server, pinning the
// project for the request's duration.
func (h *Host) dispatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !host.ValidID(id) {
		h.rejected.Inc()
		http.Error(w, fmt.Sprintf("invalid project id %q", id), http.StatusNotFound)
		return
	}
	if !h.tb.allow(id) {
		h.shed.With(routeOf(id, r), "tenant_quota").Inc()
		w.Header().Set("Retry-After", retryAfterValue(h.opt.RetryAfter))
		http.Error(w, fmt.Sprintf("project %q over its fair-share quota", id),
			http.StatusServiceUnavailable)
		return
	}
	hd, err := h.reg.Get(id)
	if err != nil {
		h.rejected.Inc()
		code := http.StatusNotFound
		if !strings.Contains(err.Error(), "unknown project") {
			code = http.StatusInternalServerError
		}
		http.Error(w, err.Error(), code)
		return
	}
	defer hd.Release()
	if h.afterPin != nil {
		h.afterPin(id)
	}
	h.reqs.With(id).Inc()
	w.Header().Set("X-Flowsched-Project", id)
	s := h.serverFor(id, hd.Project())
	http.StripPrefix("/p/"+id, s.Handler()).ServeHTTP(w, r)
}

// serverFor returns the per-project server for this exact project
// instance, building one when the project was just loaded (or
// re-loaded after an eviction — instance identity is the cache key).
func (h *Host) serverFor(id string, p *flowsched.Project) *Server {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ps, ok := h.servers[id]; ok && ps.p == p {
		return ps.srv
	}
	opt := h.opt
	// All per-project servers draw from the host's one admission budget
	// (and its one queue-depth gauge) rather than each minting their own.
	opt.lim = h.lim
	// Writes go through the registry's per-project lock (Handle.Do),
	// not the sub-server's own mutex, so an HTTP write serializes with
	// checkpoints, drain, and any embedded writer sharing the registry.
	// The request already holds a pin, so this nested Get is a cheap
	// refcount bump on the resident instance.
	opt.writeVia = func(fn func(*flowsched.Project) error) error {
		hd, err := h.reg.Get(id)
		if err != nil {
			return err
		}
		defer hd.Release()
		return hd.Do(fn)
	}
	ps := &projServer{p: p, srv: New(p, opt)}
	h.servers[id] = ps
	return ps.srv
}

// routeOf extracts the per-project route from a /p/{id}/... path for
// shed-metric labeling ("/p/alpha/risk" → "risk").
func routeOf(id string, r *http.Request) string {
	rest := strings.TrimPrefix(r.URL.Path, "/p/"+id)
	rest = strings.TrimPrefix(rest, "/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "root"
	}
	return rest
}

// reopen evicts and re-loads a project, re-running clean-prefix WAL
// recovery — the operator path that lifts a disk-fault quarantine once
// the underlying storage is healthy again. Responds with the reloaded
// project's health.
func (h *Host) reopen(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !host.ValidID(id) {
		h.rejected.Inc()
		http.Error(w, fmt.Sprintf("invalid project id %q", id), http.StatusNotFound)
		return
	}
	hd, err := h.reg.Reopen(id)
	if err != nil {
		code := http.StatusInternalServerError
		if strings.Contains(err.Error(), "unknown project") {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	defer hd.Release()
	hl := hd.Health()
	writeJSON(w, http.StatusOK, struct {
		Project     string `json:"project"`
		Reopened    bool   `json:"reopened"`
		Quarantined bool   `json:"quarantined"`
		WALSeq      uint64 `json:"walSeq"`
	}{id, true, hl.Quarantined, hl.WALSeq})
}

// projects lists every project under the root, resident or not.
func (h *Host) projects(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	list, err := h.reg.List()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if list == nil {
		list = []host.ProjectInfo{}
	}
	writeJSON(w, http.StatusOK, struct {
		Projects []host.ProjectInfo `json:"projects"`
	}{list})
}

// metrics serves the host-level registry: per-tenant request counters
// and the project registry's load/evict/resident families. Per-project
// serving metrics live at /p/{id}/metrics.
func (h *Host) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, h.hreg.PromText())
}

// healthz aggregates project health across the root: "ok" only when no
// project — resident (live state) or on disk (quarantine marker from a
// wedged process) — is quarantined. Degraded hosts answer 503 with the
// quarantined ids, so one probe finds the tenants needing a reopen.
func (h *Host) healthz(w http.ResponseWriter, _ *http.Request) {
	list, err := h.reg.List()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resident := 0
	quarantined := []string{}
	for _, pi := range list {
		if pi.Resident {
			resident++
		}
		if pi.Quarantined {
			quarantined = append(quarantined, pi.ID)
		}
	}
	status, code := "ok", http.StatusOK
	if len(quarantined) > 0 {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	writeJSON(w, code, struct {
		Status        string   `json:"status"`
		Projects      int      `json:"projects"`
		Resident      int      `json:"resident"`
		ResidentBytes int64    `json:"residentBytes"`
		Quarantined   []string `json:"quarantined,omitempty"`
	}{status, len(list), resident, h.reg.ResidentBytes(), quarantined})
}
