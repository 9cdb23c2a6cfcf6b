package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is not
// usable; obtain one from Registry.Counter. All methods are nil-safe
// and safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value reports the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (pool occupancy, sizes).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value reports the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed cumulative-style buckets
// (recorded per-bucket, exposed cumulatively like Prometheus). Each
// bucket optionally remembers the last exemplar observed into it — a
// trace ID plus the observed value — so a tail bucket links directly
// to a recorded trace.
type Histogram struct {
	bounds    []float64      // ascending upper bounds; implicit +Inf last
	counts    []atomic.Int64 // len(bounds)+1
	count     atomic.Int64
	sum       atomic.Uint64 // float64 bits, CAS-updated
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar ties one observation to the trace that produced it.
type Exemplar struct {
	TraceID string  `json:"traceId"`
	Value   float64 `json:"value"`
}

// init lays out an empty histogram over bounds, which must be
// ascending and are shared, never written.
func (h *Histogram) init(bounds []float64) {
	h.bounds = bounds
	h.counts = make([]atomic.Int64, len(bounds)+1)
	h.exemplars = make([]atomic.Pointer[Exemplar], len(bounds)+1)
}

// DefBuckets covers both clocks: sub-millisecond wall compute up
// through multi-week virtual design time, in seconds.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60, 600,
	3600, 4 * 3600, 24 * 3600, 7 * 24 * 3600,
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveEx records one sample and, when traceID is non-empty, stamps
// it as the containing bucket's last exemplar.
func (h *Histogram) ObserveEx(v float64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// buckets snapshots the cumulative bucket counts (and per-bucket
// exemplars, where present).
func (h *Histogram) buckets() []Bucket {
	out := make([]Bucket, 0, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		b := Bucket{UpperBound: ub, Count: cum}
		if len(h.exemplars) == len(h.counts) {
			b.Exemplar = h.exemplars[i].Load()
		}
		out = append(out, b)
	}
	return out
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the running sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Registry is a thread-safe named-metric registry. Metrics are created
// lazily on first use and live for the registry's lifetime; hot paths
// should look a metric up once and cache the handle. All methods are
// nil-safe, returning nil (no-op) handles from a nil registry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]anyVec // every exposed family, plain or labeled
	detached []anyVec          // families that lost their name to another kind; see register
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]anyVec)}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	return register[Counter](r, name, true, 0, nil, nil).plain()
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	return register[Gauge](r, name, true, 0, nil, nil).plain()
}

// Histogram returns (creating if needed) the named histogram. buckets
// are ascending upper bounds in the observed unit; nil selects
// DefBuckets. The first registration wins: later callers get the
// existing histogram regardless of the buckets they pass.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	return register[Histogram](r, name, true, 0, buckets, nil).plain()
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound;
	// math.Inf(1) for the last bucket.
	UpperBound float64 `json:"-"`
	// Count is the cumulative observation count up to UpperBound.
	Count int64 `json:"count"`
	// Exemplar is the last exemplar observed into this bucket, if any.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// MarshalJSON renders the bound as a Prometheus-style string ("+Inf"
// for the last bucket) — JSON has no infinity literal.
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = formatFloat(b.UpperBound)
	}
	return json.Marshal(struct {
		Le       string    `json:"le"`
		Count    int64     `json:"count"`
		Exemplar *Exemplar `json:"exemplar,omitempty"`
	}{le, b.Count, b.Exemplar})
}

// MetricSnapshot is one metric's point-in-time state. Series from a
// labeled family share a Name and differ in Labels.
type MetricSnapshot struct {
	Name string `json:"name"`
	// Kind is "counter", "gauge", or "histogram".
	Kind string `json:"kind"`
	// Labels are the series' label key/value pairs (labeled families
	// only; nil for plain metrics).
	Labels map[string]string `json:"labels,omitempty"`
	// Value holds the counter/gauge value, or the histogram sum.
	Value float64 `json:"value"`
	// Count is the histogram observation count (histograms only).
	Count int64 `json:"observations,omitempty"`
	// Buckets are the cumulative histogram buckets (histograms only).
	Buckets []Bucket `json:"buckets,omitempty"`
}

// promLabels renders the series' labels as the inner part of a
// Prometheus label set — `k1="v1",k2="v2"`, keys sorted, values
// escaped — or "" for an unlabeled metric.
func (m MetricSnapshot) promLabels() string {
	if len(m.Labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m.Labels))
	for k := range m.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + `="` + promEscape(m.Labels[k]) + `"`
	}
	return strings.Join(parts, ",")
}

// promEscape escapes a label value for the Prometheus text format:
// backslash, double quote, and newline.
func promEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Snapshot captures every metric — plain and labeled — sorted by name,
// then by label set within a family.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]MetricSnapshot, 0, len(r.families))
	for _, f := range r.families {
		out = f.appendSnapshot(out)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].promLabels() < out[j].promLabels()
	})
	return out
}

// WriteProm writes the registry in the Prometheus text exposition
// format, families sorted by name (one TYPE line per family), label
// values escaped. Histogram buckets carrying an exemplar append it
// OpenMetrics-style: `# {trace_id="..."} value`.
func (r *Registry) WriteProm(w io.Writer) error {
	last := ""
	for _, m := range r.Snapshot() {
		if m.Name != last {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
				return err
			}
			last = m.Name
		}
		inner := m.promLabels()
		switch m.Kind {
		case "histogram":
			for _, b := range m.Buckets {
				le := "+Inf"
				if !math.IsInf(b.UpperBound, 1) {
					le = formatFloat(b.UpperBound)
				}
				sep := ""
				if inner != "" {
					sep = ","
				}
				ex := ""
				if b.Exemplar != nil {
					ex = fmt.Sprintf(" # {trace_id=%q} %s", b.Exemplar.TraceID, formatFloat(b.Exemplar.Value))
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d%s\n", m.Name, inner, sep, le, b.Count, ex); err != nil {
					return err
				}
			}
			suffix := ""
			if inner != "" {
				suffix = "{" + inner + "}"
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
				m.Name, suffix, formatFloat(m.Value), m.Name, suffix, m.Count); err != nil {
				return err
			}
		default:
			suffix := ""
			if inner != "" {
				suffix = "{" + inner + "}"
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", m.Name, suffix, formatFloat(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// PromText renders the Prometheus exposition as a string.
func (r *Registry) PromText() string {
	var b strings.Builder
	_ = r.WriteProm(&b)
	return b.String()
}

// JSON dumps the full snapshot as indented JSON.
func (r *Registry) JSON() ([]byte, error) {
	snap := r.Snapshot()
	if snap == nil {
		snap = []MetricSnapshot{}
	}
	return json.MarshalIndent(snap, "", "  ")
}

// formatFloat renders v the way Prometheus text format expects:
// integral values without an exponent, others in shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
