// Request-scoped observability for the serving path: per-request trace
// IDs (W3C traceparent in, traceparent + X-Flowsched-Trace out), a
// request-scoped span tracer threaded through the rendering facade via
// context, tail-based trace retention (a sampling knob plus an
// always-keep latency threshold), and the flight recorder every
// completed request lands in.
package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"time"

	"flowsched/internal/obs"
)

// defaultRequestSpans bounds each request's private tracer. A cold
// 1M-trial /risk render emits on the order of 70 spans (root + monte
// root + 64 shards); a deep what-if sweep a few hundred — 4096 leaves
// generous headroom without letting one request hold megabytes.
const defaultRequestSpans = 4096

// LatencyBuckets suits the serving path's real latency spread, which
// BENCH_serve.json documents: microsecond-scale memo and fingerprint
// hits, hundreds of microseconds for cheap cold renders, out through
// multi-second cold 1M-trial /risk simulations. Bounds in seconds.
var LatencyBuckets = []float64{
	5e-6, 10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30,
}

// reqInfo rides the request context: the per-request tracer and root
// span for the facade to nest under, plus the fields the handler layers
// fill in as the request progresses, harvested into the flight record
// when the request completes. It is written only by the goroutine
// serving the request.
type reqInfo struct {
	traceID string
	tracer  *obs.Tracer
	root    *obs.Span

	cache         string
	version       uint64
	vnow          time.Time
	sampledTrials int64
	reusedTrials  int64
	errMsg        string
}

type reqInfoKey struct{}

// reqInfoFrom returns the request's reqInfo, or nil when request
// observability is disabled.
func reqInfoFrom(r *http.Request) *reqInfo {
	ri, _ := r.Context().Value(reqInfoKey{}).(*reqInfo)
	return ri
}

func withReqInfo(r *http.Request, ri *reqInfo) *http.Request {
	return r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri))
}

// statusWriter records the response status for the flight record.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so SSE streams can push each
// event through the connection as it happens.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the real connection —
// the SSE handler uses it to clear the server's write deadline on
// long-lived streams.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// debugRequests serves the flight recorder's two tiers as JSON.
func (s *Server) debugRequests(w http.ResponseWriter, _ *http.Request) {
	recent, slowest := s.flight.Snapshot()
	if recent == nil {
		recent = []obs.FlightRecord{}
	}
	if slowest == nil {
		slowest = []obs.FlightRecord{}
	}
	writeJSON(w, http.StatusOK, struct {
		Recent  []obs.FlightRecord `json:"recent"`
		Slowest []obs.FlightRecord `json:"slowest"`
	}{recent, slowest})
}

// debugTrace serves one retained request's span tree by trace ID:
// /debug/trace?id=<traceID>[&format=json].
func (s *Server) debugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing id: pass ?id=<traceID>", http.StatusBadRequest)
		return
	}
	rec, ok := s.flight.Find(id)
	if !ok {
		http.Error(w, "trace not retained: "+id, http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		blob, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(append(blob, '\n'))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte(obs.RenderTree(rec.Spans, 0)))
}

// registerPprof mounts the stdlib profiling handlers under
// /debug/pprof/ (Options.EnablePprof).
func (s *Server) registerPprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
