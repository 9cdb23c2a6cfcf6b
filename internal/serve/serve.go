// Package serve exposes a project's read surfaces over HTTP — the
// serving tier the paper's architecture implies: schedule state lives
// in the flow-management database precisely so that every stakeholder
// (designers, project management, reporting tools) reads one consistent
// picture of plan vs. actual (§IV.B–C).
//
// Consistency is the contract: every request is answered from one
// Manager.AtView snapshot of the task database, captured at arrival.
// A response never tears — its sections all describe the same store
// version and the same virtual instant — even while the project plans
// and executes concurrently. The snapshot identity is echoed on every
// response (X-Flowsched-Version, X-Flowsched-Now), so clients can
// correlate reads.
//
// Rendered reads are held in one response cache (respCache) with
// singleflight semantics, and every route has exactly one key. /risk is
// keyed by a canonical hash of its derived inputs
// (ProjectView.RiskFingerprint), so a store advance that leaves the
// risk model alone is still a cache hit (X-Flowsched-Cache:
// fingerprint) and re-runs zero simulation trials. Every other route,
// /whatif included, is keyed by snapshot identity and dropped the
// moment the project's store advances (X-Flowsched-Cache: hit); serve
// does not call ProjectView.WhatIfFingerprint, whose hash of
// schedule-space watermarks moves with nearly every write. The
// server carries its own request-scoped metrics (latency histogram,
// in-flight gauge, per-route counters, cache events per key kind)
// exposed on /metrics alongside the project's own registry.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowsched"
	"flowsched/internal/obs"
)

// Options configures a Server.
type Options struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// CacheEntries bounds the cached responses held at once per key
	// kind (default 256 snapshot-keyed, 256 fingerprint-keyed).
	// Snapshot-keyed entries are cleared whenever the store advances.
	CacheEntries int
	// DisableCache turns response memoization off: every request
	// renders from its own snapshot. Responses stay snapshot-consistent
	// individually; byte-identity across equal snapshots is then up to
	// the renderers (they are deterministic).
	DisableCache bool
	// ReadTimeout, WriteTimeout, IdleTimeout bound request handling
	// (defaults 5s / 2m / 2m). WriteTimeout must cover the slowest
	// cold read — a large risk simulation or what-if sweep.
	ReadTimeout, WriteTimeout, IdleTimeout time.Duration
	// TraceSampleRate is the fraction of requests whose full span tree
	// is retained in the flight recorder (every round(1/rate)-th
	// request). 0 selects the default 0.01 (every 100th); negative
	// disables sampling. Requests slower than SlowTraceThreshold keep
	// their traces regardless — tail-based retention means the requests
	// most worth explaining are always explained.
	TraceSampleRate float64
	// SlowTraceThreshold is the latency at or above which a request's
	// trace is always retained. 0 selects the default 500ms; negative
	// disables the slow path.
	SlowTraceThreshold time.Duration
	// EnablePprof mounts the stdlib net/http/pprof handlers under
	// /debug/pprof/. Off by default: profiles expose internals, so the
	// operator opts in (flowservd -pprof).
	EnablePprof bool
	// DisableRequestObs turns off per-request tracing and flight
	// recording (labeled metrics stay). The bench harness uses it to
	// price the request-observability layer; production servers should
	// leave it on.
	DisableRequestObs bool
	// MaxInFlight is the admission-control capacity in weight units:
	// /risk and /whatif consume 8 units each, other read surfaces 1,
	// operational routes (metrics, healthz, trace, events, debug) none.
	// 0 disables admission control (every request runs immediately).
	MaxInFlight int
	// QueueDepth bounds requests waiting for admission; arrivals beyond
	// it are shed with 503 + Retry-After instead of queuing. Defaults to
	// 2×MaxInFlight when admission control is on.
	QueueDepth int
	// RetryAfter is the Retry-After hint on shed responses
	// (default 1s).
	RetryAfter time.Duration
	// RouteDeadline bounds each snapshot-pinned request's rendering
	// time; on expiry the simulation stops cooperatively and the client
	// gets 503 + Retry-After. 0 (the default) disables it.
	RouteDeadline time.Duration
	// TenantRate and TenantBurst (Host only) give every project a
	// fair-share token bucket: each request to /p/{id}/... spends one
	// token, refilled at TenantRate per second up to TenantBurst, so one
	// hot tenant cannot starve the rest. TenantRate 0 disables the
	// buckets. TenantBurst defaults to max(1, ceil(TenantRate)).
	TenantRate  float64
	TenantBurst int
	// ReadOnly disables every mutating route (writes, scenario edits,
	// fork sessions, schedule CRUD): POSTs answer 403. The read-only
	// server of earlier releases, for deployments that mutate through
	// the Go facade or CLI only.
	ReadOnly bool
	// MaxForks bounds the concurrently held fork sessions (default 8);
	// POST /fork beyond it answers 409 until one is deleted.
	MaxForks int

	// lim, when set, replaces the server's own limiter — the multi-
	// tenant Host shares one admission budget across all its per-project
	// servers.
	lim *limiter
	// writeVia, when set, routes every write through the host's
	// per-project write lock (host.Handle.Do) instead of the server's
	// own mutex, so HTTP writes serialize with checkpoints, eviction,
	// and any embedded writers sharing the registry.
	writeVia func(func(*flowsched.Project) error) error
}

// Server serves one project's read surfaces.
type Server struct {
	p     *flowsched.Project
	opt   Options
	reg   *obs.Registry
	cache *respCache
	mux   *http.ServeMux
	srv   *http.Server

	inflight     *obs.Gauge
	requests     *obs.CounterVec   // serve_requests_total{route,cache}
	latency      *obs.HistogramVec // serve_request_seconds{route}
	storeVersion *obs.Gauge
	projDropped  *obs.Gauge // project tracer's dropped-span count, set at scrape

	flight        *obs.FlightRecorder
	traceKeeps    *obs.Counter // requests whose span tree was retained
	traceDiscards *obs.Counter // requests traced but not retained
	reqSeq        atomic.Uint64
	sampleEvery   uint64 // retain every Nth request's trace; 0 = never
	slowThresh    time.Duration

	lim      *limiter
	shed     *obs.CounterVec // serve_shed_total{route,reason}
	canceled *obs.CounterVec // serve_requests_canceled_total{route}

	draining       chan struct{} // closed once by CloseStreams: SSE streams end
	drainOnce      sync.Once
	sseSubscribers *obs.Gauge   // serve_sse_subscribers
	sseStreams     *obs.Counter // serve_sse_streams_total
	sseSent        *obs.Counter // serve_sse_events_sent_total

	wmu       sync.Mutex      // serializes writes in standalone mode (see Options.writeVia)
	writes    *obs.CounterVec // serve_writes_total{route,outcome}
	conflicts *obs.Counter    // serve_write_conflicts_total

	forks forkSessions // named what-if fork sessions (POST /fork, ?fork=)
	sched *scheduler   // virtual-time cron schedules (/schedules)
}

// New builds a server over a project. The project stays fully usable —
// the server only ever takes snapshots of it.
func New(p *flowsched.Project, opt Options) *Server {
	if opt.Addr == "" {
		opt.Addr = ":8080"
	}
	if opt.CacheEntries <= 0 {
		opt.CacheEntries = 256
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
	reg := obs.NewRegistry()
	s := &Server{
		p: p, opt: opt, reg: reg,
		cache:         newRespCache(opt.CacheEntries, reg),
		mux:           http.NewServeMux(),
		inflight:      reg.Gauge("serve_requests_in_flight"),
		requests:      reg.CounterVec("serve_requests_total", "route", "cache"),
		latency:       reg.HistogramVec("serve_request_seconds", LatencyBuckets, "route"),
		storeVersion:  reg.Gauge("serve_store_version"),
		projDropped:   reg.Gauge("project_trace_dropped_spans"),
		flight:        obs.NewFlightRecorder(obs.DefaultFlightRing, obs.DefaultFlightSlow),
		traceKeeps:    reg.Counter("serve_trace_retained_total"),
		traceDiscards: reg.Counter("serve_trace_discarded_total"),
		shed:          reg.CounterVec("serve_shed_total", "route", "reason"),
		canceled:      reg.CounterVec("serve_requests_canceled_total", "route"),
		writes:        reg.CounterVec("serve_writes_total", "route", "outcome"),
		conflicts:     reg.Counter("serve_write_conflicts_total"),

		draining:       make(chan struct{}),
		sseSubscribers: reg.Gauge("serve_sse_subscribers"),
		sseStreams:     reg.Counter("serve_sse_streams_total"),
		sseSent:        reg.Counter("serve_sse_events_sent_total"),
	}
	s.forks.max = opt.MaxForks
	s.sched = newScheduler(reg)
	if opt.RetryAfter <= 0 {
		opt.RetryAfter = time.Second
		s.opt.RetryAfter = opt.RetryAfter
	}
	s.lim = opt.lim
	if s.lim == nil && opt.MaxInFlight > 0 {
		qd := opt.QueueDepth
		if qd == 0 {
			qd = 2 * opt.MaxInFlight
		}
		s.lim = newLimiter(int64(opt.MaxInFlight), qd, reg.Gauge("serve_queue_depth"))
	}
	s.flight.Instrument(reg, "serve_flight")
	rate := opt.TraceSampleRate
	if rate == 0 {
		rate = 0.01
	}
	if rate > 0 {
		if rate > 1 {
			rate = 1
		}
		s.sampleEvery = uint64(math.Round(1 / rate))
	}
	s.slowThresh = opt.SlowTraceThreshold
	if s.slowThresh == 0 {
		s.slowThresh = 500 * time.Millisecond
	}
	s.routes()
	s.srv = &http.Server{
		Addr: opt.Addr, Handler: s.mux,
		ReadTimeout: opt.ReadTimeout, WriteTimeout: opt.WriteTimeout,
		IdleTimeout: opt.IdleTimeout,
	}
	return s
}

// Handler returns the route handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's own metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// ListenAndServe serves until Shutdown (or a listener error).
func (s *Server) ListenAndServe() error { return s.srv.ListenAndServe() }

// Serve serves on an existing listener (Options.Addr is ignored).
func (s *Server) Serve(l net.Listener) error { return s.srv.Serve(l) }

// Shutdown drains gracefully: SSE streams end first (every live stream
// gets a terminal "shutdown" frame and its handler returns, so streams
// never wedge the drain), then the listener closes and in-flight
// requests run to completion (bounded by ctx).
func (s *Server) Shutdown(ctx context.Context) error {
	s.CloseStreams()
	return s.srv.Shutdown(ctx)
}

// CloseStreams ends every live SSE stream with a terminal frame without
// shutting the HTTP server down — the Host drains its per-project
// servers this way before closing its own listener. Streams opened
// afterwards get 503 + Retry-After.
func (s *Server) CloseStreams() { s.drainOnce.Do(func() { close(s.draining) }) }

// httpError carries a status code through a renderer error path.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func errCode(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.code
	}
	return http.StatusBadRequest
}

// statusClientClosedRequest is nginx's convention for "the client went
// away before we answered" — no stdlib constant exists.
const statusClientClosedRequest = 499

// retryAfterValue renders Options.RetryAfter for the Retry-After
// header, rounding up so a sub-second hint never becomes "0".
func retryAfterValue(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// renderFunc renders one route's body from a pinned view.
type renderFunc func(v *flowsched.ProjectView, rq *readReq) ([]byte, string, error)

// readReq is one snapshot-pinned read: its query is parsed once, and
// the fork lookup, the cache key and the renderer all read the parsed
// values. /risk's parameters are parsed once too, by whichever of the
// key and the renderer asks first.
type readReq struct {
	r *http.Request
	q url.Values

	risk       riskParams
	riskErr    error
	riskParsed bool
}

// riskParams returns the request's parsed /risk parameters.
func (rq *readReq) riskParams(v *flowsched.ProjectView) (riskParams, error) {
	if !rq.riskParsed {
		rq.risk, rq.riskErr = parseRiskParams(v, rq.q)
		rq.riskParsed = true
	}
	return rq.risk, rq.riskErr
}

func (s *Server) routes() {
	// Snapshot-pinned, memoized read surfaces.
	s.handleView("/status", "status", renderStatus)
	s.handleView("/gantt", "gantt", renderGantt)
	s.handleView("/tasktree", "tasktree", renderTaskTree)
	s.handleView("/dashboard", "dashboard", renderDashboard)
	s.handleView("/analyze", "analyze", renderAnalyze)
	s.handleView("/milestones", "milestones", renderMilestones)
	s.handleView("/query", "query", renderQuery)
	s.handleView("/report", "report", renderReport)
	s.handleView("/risk", "risk", renderRisk)
	s.handleView("/whatif", "whatif", renderWhatIf)
	s.handleView("/predict", "predict", renderPredict)
	s.handleView("/version", "version", renderVersion)

	// Mutating surfaces (write.go) and virtual-time schedules
	// (schedule.go). Registered even under Options.ReadOnly so clients
	// get a deliberate 403, not a confusing 404.
	s.writeRoutes()

	// Live (uncached) surfaces.
	s.mux.HandleFunc("/metrics", s.instrument("metrics", s.metrics))
	s.mux.HandleFunc("/trace", s.instrument("trace", s.trace))
	s.mux.HandleFunc("/events", s.instrument("events", s.events))
	s.mux.HandleFunc("/healthz", s.instrument("healthz", s.healthz))

	// Post-hoc inspection surfaces.
	s.mux.HandleFunc("/debug/requests", s.instrument("debug_requests", s.debugRequests))
	s.mux.HandleFunc("/debug/trace", s.instrument("debug_trace", s.debugTrace))
	if s.opt.EnablePprof {
		s.registerPprof()
	}
}

// instrument wraps a handler with the request-scoped observability:
// the labeled request counter and latency histogram, the in-flight
// gauge, a per-request trace (W3C traceparent accepted and emitted,
// the trace ID echoed as X-Flowsched-Trace), and a flight record on
// completion. Span trees are retained tail-based: every sampleEvery-th
// request, plus every request at or over the slow threshold.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	latency := s.latency.With(name)
	weight := routeWeight(name)
	return func(w http.ResponseWriter, r *http.Request) {
		if s.lim != nil && weight > 0 {
			if err := s.lim.acquire(r.Context(), weight); err != nil {
				if errors.Is(err, errShedQueueFull) {
					s.shed.With(name, "queue_full").Inc()
					w.Header().Set("Retry-After", retryAfterValue(s.opt.RetryAfter))
					http.Error(w, "server overloaded", http.StatusServiceUnavailable)
				} else {
					// The client (or its deadline) gave up while queued.
					s.canceled.With(name).Inc()
					http.Error(w, "request canceled while queued", statusClientClosedRequest)
				}
				return
			}
			defer s.lim.release(weight)
		}
		s.inflight.Add(1)
		start := time.Now()
		if s.opt.DisableRequestObs {
			defer func() {
				s.inflight.Add(-1)
				latency.ObserveDuration(time.Since(start))
			}()
			sw := &statusWriter{ResponseWriter: w}
			h(sw, r)
			s.requests.With(name, "").Inc()
			return
		}

		seq := s.reqSeq.Add(1)
		ri := &reqInfo{tracer: obs.NewTracer(defaultRequestSpans)}
		if id, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			ri.traceID = id
		} else {
			ri.traceID = obs.NewTraceID()
		}
		ri.root = ri.tracer.Start(nil, "serve."+name, s.p.Now())
		w.Header().Set("X-Flowsched-Trace", ri.traceID)
		w.Header().Set("traceparent", obs.FormatTraceparent(ri.traceID))

		sw := &statusWriter{ResponseWriter: w}
		h(sw, withReqInfo(r, ri))
		ri.root.End(s.p.Now())

		elapsed := time.Since(start)
		s.inflight.Add(-1)
		latency.ObserveEx(elapsed.Seconds(), ri.traceID)
		s.requests.With(name, ri.cache).Inc()

		rec := obs.FlightRecord{
			TraceID: ri.traceID, Route: name, Status: sw.status,
			Start: start, Latency: elapsed,
			StoreVersion: ri.version, VirtualNow: ri.vnow, Cache: ri.cache,
			SampledTrials: ri.sampledTrials, ReusedTrials: ri.reusedTrials,
			Error: ri.errMsg,
		}
		keep := s.sampleEvery > 0 && seq%s.sampleEvery == 0
		if s.slowThresh >= 0 && elapsed >= s.slowThresh {
			keep = true
		}
		if keep {
			rec.Spans = ri.tracer.Spans()
			s.traceKeeps.Inc()
		} else {
			s.traceDiscards.Inc()
		}
		s.flight.Record(rec)
	}
}

// handleView registers a snapshot-pinned route: one View per request,
// the response cache in front of the renderer, and the snapshot
// identity echoed in response headers.
func (s *Server) handleView(pattern, name string, fn renderFunc) {
	s.mux.HandleFunc(pattern, s.instrument(name, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		rq := &readReq{r: r, q: r.URL.Query()}
		proj, session := s.p, uint64(0)
		if fname := rq.q.Get("fork"); fname != "" {
			// Read a fork session's state through the same routes
			// (write.go): a designer inspects a what-if branch with the
			// full read surface before deciding to promote or discard.
			fs, ok := s.forks.get(fname)
			if !ok {
				http.Error(w, fmt.Sprintf("no fork session %q", fname), http.StatusNotFound)
				return
			}
			proj, session = fs.p, fs.id
		}
		v, err := proj.View()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		ri := reqInfoFrom(r)
		if ri != nil {
			// Divert the view's span output to the request's tracer,
			// nested under the request root; project metrics keep flowing.
			v = v.CaptureTrace(ri.tracer, ri.root)
			ri.version, ri.vnow = v.Version(), v.Now()
		}
		// Bind the request lifetime to the view: a client disconnect (or
		// the route deadline) cancels the simulation work underneath.
		ctx := r.Context()
		if s.opt.RouteDeadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opt.RouteDeadline)
			defer cancel()
		}
		v = v.WithContext(ctx)
		s.storeVersion.Set(int64(v.Version()))
		w.Header().Set("X-Flowsched-Version", strconv.FormatUint(v.Version(), 10))
		w.Header().Set("X-Flowsched-Now", strconv.FormatInt(v.Now().UnixNano(), 10))

		var body []byte
		var ctype string
		cacheState := "off"
		if s.opt.DisableCache {
			body, ctype, err = fn(v, rq)
		} else {
			key, fingerprint := cacheKey(name, session, v, rq)
			// Only the server's own project advances the snapshot
			// generation; a fork's versions continue its parent's.
			var version uint64
			if session == 0 {
				version = v.Version()
			}
			var hit bool
			// Retry loop: a singleflight follower can inherit the
			// *leader's* cancellation (the leader's client hung up
			// mid-render). When that happens and this request is still
			// live, re-probe the cache — the failed entry was dropped, so
			// the retry renders fresh under this request's own context.
			for {
				body, ctype, hit, err = s.cache.do(key, fingerprint, version, func() ([]byte, string, error) {
					return fn(v, rq)
				})
				if err != nil && !hit &&
					(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) &&
					ctx.Err() == nil {
					continue
				}
				break
			}
			switch {
			case hit && fingerprint:
				cacheState = "fingerprint"
			case hit:
				cacheState = "hit"
			default:
				cacheState = "miss"
			}
		}
		w.Header().Set("X-Flowsched-Cache", cacheState)
		if ri != nil {
			ri.cache = cacheState
		}
		if err != nil {
			if ri != nil {
				ri.errMsg = err.Error()
			}
			code := errCode(err)
			switch {
			case errors.Is(err, context.Canceled):
				s.canceled.With(name).Inc()
				code = statusClientClosedRequest
			case errors.Is(err, context.DeadlineExceeded):
				s.canceled.With(name).Inc()
				w.Header().Set("Retry-After", retryAfterValue(s.opt.RetryAfter))
				code = http.StatusServiceUnavailable
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", ctype)
		w.Write(body)
	}))
}

// cacheKey returns the request's one response-cache key and whether it
// is an input fingerprint. /risk is keyed by its derived risk inputs, so
// its entry outlives store advances that leave them unchanged; its query
// part leaves out workers, which changes no byte of the answer. A
// request the view cannot fingerprint (a bad parameter, an unknown
// target) falls back to the snapshot key and renders its error
// uncached. Every other route is keyed by the full snapshot identity:
// the fork session (0 for the server's own project), the store version
// and the virtual instant (the clock can tick between store writes, and
// rendered output shows "now").
func cacheKey(name string, session uint64, v *flowsched.ProjectView, rq *readReq) (string, bool) {
	if name == "risk" {
		if fp, err := riskFingerprint(v, rq); err == nil {
			return name + "?" + canonicalQuery(rq.q, "workers") + "|" + fp, true
		}
	}
	return fmt.Sprintf("%d.%d.%d|%s?%s", session, v.Version(), v.Now().UnixNano(), name, canonicalQuery(rq.q, "")), false
}

// canonicalQuery renders the query parameters in sorted-key order
// (value order preserved), leaving out the omit key, so equivalent
// requests share one memo entry regardless of parameter spelling order.
func canonicalQuery(q url.Values, omit string) string {
	keys := make([]string, 0, len(q))
	for k := range q {
		if k != omit {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		for _, val := range q[k] {
			if b.Len() > 0 {
				b.WriteByte('&')
			}
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(val)
		}
	}
	return b.String()
}

func jsonBody(v any) ([]byte, string, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, "", err
	}
	return append(b, '\n'), "application/json; charset=utf-8", nil
}

// writeJSON answers v as indented JSON with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, ctype, err := jsonBody(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.WriteHeader(code)
	w.Write(body)
}

func textBody(t string) ([]byte, string, error) {
	return []byte(t), "text/plain; charset=utf-8", nil
}

// targetsParam resolves the "targets" parameter, defaulting to the
// snapshot plan's targets.
func targetsParam(v *flowsched.ProjectView, q url.Values) ([]string, error) {
	if t := q.Get("targets"); t != "" {
		return strings.Split(t, ","), nil
	}
	if t := v.Targets(); len(t) > 0 {
		return t, nil
	}
	return nil, badRequest("no targets: pass ?targets=a,b or plan first")
}

func renderStatus(v *flowsched.ProjectView, _ *readReq) ([]byte, string, error) {
	rows, err := v.Status()
	if err != nil {
		return nil, "", err
	}
	return jsonBody(struct {
		Now         time.Time                  `json:"now"`
		PlanVersion int                        `json:"planVersion"`
		Activities  []flowsched.ActivityStatus `json:"activities"`
	}{v.Now(), v.PlanVersion(), rows})
}

func renderGantt(v *flowsched.ProjectView, _ *readReq) ([]byte, string, error) {
	chart, err := v.Gantt()
	if err != nil {
		return nil, "", err
	}
	return textBody(chart)
}

func renderTaskTree(v *flowsched.ProjectView, rq *readReq) ([]byte, string, error) {
	targets, err := targetsParam(v, rq.q)
	if err != nil {
		return nil, "", err
	}
	tree, err := v.TaskTreeView(targets...)
	if err != nil {
		return nil, "", err
	}
	return textBody(tree)
}

func renderDashboard(v *flowsched.ProjectView, _ *readReq) ([]byte, string, error) {
	d, err := v.Dashboard()
	if err != nil {
		return nil, "", err
	}
	return textBody(d)
}

func renderAnalyze(v *flowsched.ProjectView, _ *readReq) ([]byte, string, error) {
	cpm, err := v.Analyze()
	if err != nil {
		return nil, "", err
	}
	return jsonBody(cpm)
}

func renderMilestones(v *flowsched.ProjectView, _ *readReq) ([]byte, string, error) {
	rows, err := v.MilestoneReport()
	if err != nil {
		return nil, "", err
	}
	return jsonBody(struct {
		Now        time.Time                   `json:"now"`
		Milestones []flowsched.MilestoneStatus `json:"milestones"`
	}{v.Now(), rows})
}

func renderQuery(v *flowsched.ProjectView, rq *readReq) ([]byte, string, error) {
	q := rq.q.Get("q")
	if q == "" {
		return nil, "", badRequest("missing query: pass ?q=...")
	}
	out, err := v.Query(q)
	if err != nil {
		return nil, "", err
	}
	return textBody(out)
}

func renderReport(v *flowsched.ProjectView, rq *readReq) ([]byte, string, error) {
	to := v.Now()
	from := to.Add(-7 * 24 * time.Hour)
	var err error
	if f := rq.q.Get("from"); f != "" {
		if from, err = time.Parse(time.RFC3339, f); err != nil {
			return nil, "", badRequest("bad from %q: want RFC3339", f)
		}
	}
	if t := rq.q.Get("to"); t != "" {
		if to, err = time.Parse(time.RFC3339, t); err != nil {
			return nil, "", badRequest("bad to %q: want RFC3339", t)
		}
	}
	out, err := v.StatusReport(from, to)
	if err != nil {
		return nil, "", err
	}
	return textBody(out)
}

// riskSummary is the JSON shape of /risk: the distribution summarized,
// not the raw per-trial durations.
type riskSummary struct {
	Targets     []string           `json:"targets"`
	Trials      int                `json:"trials"`
	Seed        int64              `json:"seed"`
	Mean        time.Duration      `json:"mean"`
	P10         time.Duration      `json:"p10"`
	P50         time.Duration      `json:"p50"`
	P80         time.Duration      `json:"p80"`
	P90         time.Duration      `json:"p90"`
	P95         time.Duration      `json:"p95"`
	Criticality map[string]float64 `json:"criticality"`
}

// maxRiskTrials bounds /risk's trials: 10M durations are 80 MB per
// target run, and the trial streams behind them several times that.
const maxRiskTrials = 10_000_000

// riskParams is the parsed /risk request, shared between the renderer
// and the cache key so both describe the same run.
type riskParams struct {
	targets []string
	trials  int
	seed    int64
	workers int
}

func parseRiskParams(v *flowsched.ProjectView, q url.Values) (riskParams, error) {
	var p riskParams
	var err error
	if p.targets, err = targetsParam(v, q); err != nil {
		return p, err
	}
	if p.trials, err = qInt(q, "trials", 1000); err != nil {
		return p, err
	}
	if p.trials < 1 || p.trials > maxRiskTrials {
		return p, badRequest("bad trials %d: want 1..%d", p.trials, maxRiskTrials)
	}
	if p.seed, err = qInt64(q, "seed", 1995); err != nil {
		return p, err
	}
	if p.workers, err = qInt(q, "workers", 0); err != nil {
		return p, err
	}
	return p, nil
}

// riskFingerprint keys /risk responses by the derived risk model and
// sampling configuration — not the store version, because the
// distribution depends only on those inputs (worker count is excluded:
// runs are bit-identical for any worker count). The view's risk-model
// memo answers it without deriving anything at a warm tool-binding
// generation, and pins the model set renderRisk then simulates.
func riskFingerprint(v *flowsched.ProjectView, rq *readReq) (string, error) {
	p, err := rq.riskParams(v)
	if err != nil {
		return "", err
	}
	return v.RiskFingerprint(p.targets, flowsched.RiskOptions{Trials: p.trials, Seed: p.seed})
}

func renderRisk(v *flowsched.ProjectView, rq *readReq) ([]byte, string, error) {
	p, err := rq.riskParams(v)
	if err != nil {
		return nil, "", err
	}
	res, err := v.SimulateRiskWith(p.targets, flowsched.RiskOptions{
		Trials: p.trials, Seed: p.seed, Workers: p.workers,
	})
	if err != nil {
		return nil, "", err
	}
	if ri := reqInfoFrom(rq.r); ri != nil {
		ri.sampledTrials = int64(res.SampledActivityTrials)
		ri.reusedTrials = int64(res.ReusedActivityTrials)
	}
	return jsonBody(riskSummary{
		Targets: p.targets, Trials: len(res.Durations), Seed: p.seed,
		Mean: res.Mean(),
		P10:  res.Percentile(0.10), P50: res.Percentile(0.50),
		P80: res.Percentile(0.80), P90: res.Percentile(0.90),
		P95:         res.Percentile(0.95),
		Criticality: res.Criticality,
	})
}

// parseWhatIfParams is the shared /whatif request parsing.
func parseWhatIfParams(v *flowsched.ProjectView, q url.Values) (targets []string, edits []flowsched.ScenarioEdit, err error) {
	if targets, err = targetsParam(v, q); err != nil {
		return nil, nil, err
	}
	specs := q["edit"]
	if len(specs) == 0 {
		return nil, nil, badRequest("no scenarios: pass ?edit=name=Act*1.5;Act+3h;parallel (repeatable)")
	}
	edits = make([]flowsched.ScenarioEdit, 0, len(specs))
	for _, spec := range specs {
		e, err := flowsched.ParseScenarioEdit(spec)
		if err != nil {
			return nil, nil, badRequest("%v", err)
		}
		edits = append(edits, e)
	}
	return targets, edits, nil
}

func renderWhatIf(v *flowsched.ProjectView, rq *readReq) ([]byte, string, error) {
	targets, edits, err := parseWhatIfParams(v, rq.q)
	if err != nil {
		return nil, "", err
	}
	rep, err := v.Scenarios(targets, edits, flowsched.ScenarioOptions{})
	if err != nil {
		return nil, "", err
	}
	if rq.q.Get("format") == "json" {
		return jsonBody(rep)
	}
	return textBody(rep.Render())
}

func renderPredict(v *flowsched.ProjectView, rq *readReq) ([]byte, string, error) {
	activity := rq.q.Get("activity")
	if activity == "" {
		return nil, "", badRequest("missing activity: pass ?activity=Name")
	}
	alpha, err := qFloat(rq.q, "alpha", 0)
	if err != nil {
		return nil, "", err
	}
	size, err := qFloat(rq.q, "size", 0)
	if err != nil {
		return nil, "", err
	}
	var sizes []float64
	if raw := rq.q.Get("sizes"); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			f, err := strconv.ParseFloat(part, 64)
			if err != nil {
				return nil, "", badRequest("bad sizes element %q", part)
			}
			sizes = append(sizes, f)
		}
	}
	pr, err := v.PredictDuration(activity, flowsched.PredictOptions{
		Method: rq.q.Get("method"), Alpha: alpha,
		Size: size, Sizes: sizes,
	})
	if err != nil {
		return nil, "", err
	}
	return jsonBody(pr)
}

func renderVersion(v *flowsched.ProjectView, _ *readReq) ([]byte, string, error) {
	return jsonBody(struct {
		StoreVersion uint64    `json:"storeVersion"`
		PlanVersion  int       `json:"planVersion"`
		Now          time.Time `json:"now"`
	}{v.Version(), v.PlanVersion(), v.Now()})
}

// metrics serves the server's own registry followed by the project's
// registry in one Prometheus text page.
func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	s.projDropped.Set(s.p.TraceDropped())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.reg.PromText())
	fmt.Fprint(w, s.p.MetricsText())
}

func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	depth, err := qInt(r.URL.Query(), "depth", 0)
	if err != nil {
		http.Error(w, err.Error(), errCode(err))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.p.TraceTree(depth))
}

// events serves the event stream in two modes sharing one cursor
// space: the default JSON poll returns the tail past ?since plus the
// "next" cursor to resume from, and SSE (Accept: text/event-stream or
// ?stream=sse) follows the event log from the same cursor and pushes
// each event as it is appended, with the same cursors as event IDs so
// Last-Event-ID resumes exactly where a poll (or a dropped stream) left
// off.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	since, err := qInt(r.URL.Query(), "since", 0)
	if err != nil {
		http.Error(w, err.Error(), errCode(err))
		return
	}
	if since < 0 {
		// A negative cursor is a client bug (cursor underflow), and
		// silently replaying the whole stream would hide it behind a
		// huge download. Refuse loudly.
		http.Error(w, fmt.Sprintf("bad since %d: cursor must be >= 0", since), http.StatusBadRequest)
		return
	}
	if wantsSSE(r) {
		s.eventsSSE(w, r, since)
		return
	}
	evs, next := s.p.EventsPage(since)
	if evs == nil {
		evs = []flowsched.Event{}
	}
	writeJSON(w, http.StatusOK, struct {
		Since  int               `json:"since"`
		Next   int               `json:"next"`
		Events []flowsched.Event `json:"events"`
	}{since, next, evs})
}

// healthz reports the project's real serving state. A quarantined
// project (its WAL failed; see flowsched.Project.Health) is still
// serving reads, but writes are refused — that is "degraded", answered
// with 503 so load balancers and probes stop routing write traffic at
// it while operators still get the full payload.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	h := s.p.Health()
	status, code := "ok", http.StatusOK
	if h.Quarantined {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	writeJSON(w, code, struct {
		Status      string    `json:"status"`
		Now         time.Time `json:"now"`
		Durable     bool      `json:"durable"`
		Quarantined bool      `json:"quarantined,omitempty"`
		Error       string    `json:"error,omitempty"`
		WALSeq      uint64    `json:"walSeq,omitempty"`
	}{status, s.p.Now(), h.Durable, h.Quarantined, h.Err, h.WALSeq})
}

func qInt(q url.Values, name string, def int) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("bad %s %q: want integer", name, raw)
	}
	return n, nil
}

func qInt64(q url.Values, name string, def int64) (int64, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, badRequest("bad %s %q: want integer", name, raw)
	}
	return n, nil
}

func qFloat(q url.Values, name string, def float64) (float64, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, badRequest("bad %s %q: want number", name, raw)
	}
	return f, nil
}
