package obs

import (
	"sort"
	"strings"
	"sync"
)

// DefaultMaxSeries bounds the live series a labeled family may hold
// before new label combinations overflow into the reserved
// OverflowValue series. The bound exists so a label fed from request
// input (a route, a cache tier, a fault kind) can never grow the
// registry without limit: past the bound, increments still count, they
// just lose dimensionality.
const DefaultMaxSeries = 64

// OverflowValue is the reserved label value carried (on every label
// key) by a family's overflow series. Real series never use it: a
// caller-supplied value equal to OverflowValue is itself routed to the
// overflow series rather than minting a counterfeit "real" one.
const OverflowValue = "other"

// labelSep joins interned label values; it cannot appear in a metric
// label value that round-trips through the exposition escaper anyway,
// and the interned key is never exposed.
const labelSep = "\x1f"

// family describes one metric family once: its name, kind, label keys,
// series bound and histogram buckets. It interns label values into
// series keys and decides which new combinations become real series.
type family struct {
	name    string
	kind    string    // "counter", "gauge" or "histogram"
	plain   bool      // a plain metric: one unlabeled series, made with the family
	keys    []string  // sorted label keys
	perm    []int     // perm[i] = position in caller order of sorted key i
	max     int       // series bound, the overflow series included
	buckets []float64 // ascending histogram bucket bounds, shared by every series

	// Guarded by the owning Vec's mu.
	overflow bool  // the overflow series has been minted
	dropped  int64 // distinct label combinations routed to overflow
}

// appendKey appends the interned key of caller-order values to buf: the
// values in sorted-key order joined by labelSep, or the overflow key when
// any value is OverflowValue. It returns false on arity mismatch.
func (f *family) appendKey(buf []byte, values []string) ([]byte, bool) {
	if len(values) != len(f.keys) {
		return buf, false
	}
	for _, v := range values {
		if v == OverflowValue {
			return f.appendOverflowKey(buf), true
		}
	}
	for i, p := range f.perm {
		if i > 0 {
			buf = append(buf, labelSep...)
		}
		buf = append(buf, values[p]...)
	}
	return buf, true
}

// appendOverflowKey appends the overflow series' key to buf.
func (f *family) appendOverflowKey(buf []byte) []byte {
	for i := range f.keys {
		if i > 0 {
			buf = append(buf, labelSep...)
		}
		buf = append(buf, OverflowValue...)
	}
	return buf
}

func (f *family) overflowKey() string { return string(f.appendOverflowKey(nil)) }

// admit decides, given the live series count, whether a new interned
// key may become a real series (true) or must be the overflow series
// (false). The overflow series itself occupies one of the max slots,
// reserved up front so it is always available.
func (f *family) admit(key string, live int) bool {
	if key == f.overflowKey() {
		f.overflow = true
		return true
	}
	if live < f.max-1 || (f.overflow && live < f.max) {
		return true
	}
	f.dropped++
	f.overflow = true
	return false
}

// labels reconstructs the key->value map for an interned key; nil for
// a family without label keys.
func (f *family) labels(key string) map[string]string {
	if len(f.keys) == 0 {
		return nil
	}
	vals := strings.Split(key, labelSep)
	m := make(map[string]string, len(f.keys))
	for i, k := range f.keys {
		if i < len(vals) {
			m[k] = vals[i]
		}
	}
	return m
}

// lintName names the family's kind the way Lint reports it.
func (f *family) lintName() string {
	if f.plain {
		return f.kind
	}
	return f.kind + " vec"
}

// Vec is one metric family: a Counter, Gauge or Histogram per distinct
// label-value combination, all sharing the family's description. A
// labeled family holds at most its bound of live series; further
// combinations share the reserved OverflowValue series. A plain metric
// (Registry.Counter, Gauge, Histogram) is a family with no label keys
// whose single series is made with it. All methods are nil-safe.
type Vec[M Counter | Gauge | Histogram] struct {
	ls  *family // the family's description
	one *M      // the plain metric's series; nil for a labeled family

	mu     sync.RWMutex
	series map[string]*M
}

// CounterVec is a family of counters.
type CounterVec = Vec[Counter]

// GaugeVec is a family of gauges.
type GaugeVec = Vec[Gauge]

// HistogramVec is a family of histograms; every series shares the
// family's bucket bounds.
type HistogramVec = Vec[Histogram]

// anyVec is what the registry needs of a Vec, whatever its series
// type.
type anyVec interface {
	desc() *family
	appendSnapshot(out []MetricSnapshot) []MetricSnapshot
	Len() int
}

func (v *Vec[M]) desc() *family { return v.ls }

// newSeries makes one series of the family.
func (v *Vec[M]) newSeries() *M {
	m := new(M)
	if h, ok := any(m).(*Histogram); ok {
		h.init(v.ls.buckets)
	}
	return m
}

// With returns the series for the given label values, in the key order
// the family was declared with. A nil receiver or a value count that
// does not match the declared keys yields a nil (no-op) series. Finding
// an existing series allocates nothing: the key is built on the stack.
func (v *Vec[M]) With(values ...string) *M {
	if v == nil {
		return nil
	}
	var buf [128]byte
	b, ok := v.ls.appendKey(buf[:0], values)
	if !ok {
		return nil
	}
	v.mu.RLock()
	m := v.series[string(b)]
	v.mu.RUnlock()
	if m != nil {
		return m
	}
	return v.mint(string(b))
}

// mint returns the series for an interned key that had none when With
// looked, making it, or routing the key to the overflow series, under
// the write lock.
func (v *Vec[M]) mint(key string) *M {
	v.mu.Lock()
	defer v.mu.Unlock()
	if m := v.series[key]; m != nil {
		return m
	}
	if !v.ls.admit(key, len(v.series)) {
		key = v.ls.overflowKey()
		if m := v.series[key]; m != nil {
			return m
		}
	}
	m := v.newSeries()
	v.series[key] = m
	return m
}

// Len reports the live series count (the overflow series included).
func (v *Vec[M]) Len() int {
	if v == nil {
		return 0
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.series)
}

// Overflowed reports whether any label combination has been routed to
// the reserved overflow series, and how many distinct combinations
// were.
func (v *Vec[M]) Overflowed() (bool, int64) {
	if v == nil {
		return false, 0
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.ls.dropped > 0, v.ls.dropped
}

// plain returns the plain metric's series (nil from a nil family).
func (v *Vec[M]) plain() *M {
	if v == nil {
		return nil
	}
	return v.one
}

// appendSnapshot appends every series as a MetricSnapshot.
func (v *Vec[M]) appendSnapshot(out []MetricSnapshot) []MetricSnapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for key, m := range v.series {
		s := MetricSnapshot{Name: v.ls.name, Kind: v.ls.kind, Labels: v.ls.labels(key)}
		switch m := any(m).(type) {
		case *Counter:
			s.Value = float64(m.Value())
		case *Gauge:
			s.Value = float64(m.Value())
		case *Histogram:
			s.Value, s.Count, s.Buckets = m.Sum(), m.Count(), m.buckets()
		}
		out = append(out, s)
	}
	return out
}

// register returns the family registered under name, creating it from
// the given description on first use. The first registration wins:
// later callers asking for the same kind get the existing family
// regardless of the keys, bound or buckets they pass. A caller asking
// for another kind, or for a plain metric where a labeled family holds
// the name (or the reverse), gets a detached family: it works, but it
// is never exposed, and Lint reports the collision.
func register[M Counter | Gauge | Histogram](r *Registry, name string, plain bool, maxSeries int, buckets []float64, keys []string) *Vec[M] {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	v, ok := r.families[name].(*Vec[M])
	r.mu.RUnlock()
	if ok && v.ls.plain == plain {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, taken := r.families[name]
	if v, ok := f.(*Vec[M]); ok && v.ls.plain == plain {
		return v
	}
	for _, d := range r.detached {
		if v, ok := d.(*Vec[M]); ok && v.ls.name == name && v.ls.plain == plain {
			return v
		}
	}
	v = newVec[M](name, plain, maxSeries, buckets, keys)
	if taken {
		r.detached = append(r.detached, v)
	} else {
		r.families[name] = v
	}
	return v
}

// newVec builds a family from its description; a plain family gets
// its single series now.
func newVec[M Counter | Gauge | Histogram](name string, plain bool, maxSeries int, buckets []float64, keys []string) *Vec[M] {
	if maxSeries <= 0 {
		maxSeries = DefaultMaxSeries
	}
	f := &family{name: name, plain: plain, max: maxSeries}
	switch any((*M)(nil)).(type) {
	case *Counter:
		f.kind = "counter"
	case *Gauge:
		f.kind = "gauge"
	case *Histogram:
		f.kind = "histogram"
		if buckets == nil {
			buckets = DefBuckets
		}
		f.buckets = append([]float64(nil), buckets...)
		sort.Float64s(f.buckets)
	}
	type kp struct {
		k string
		i int
	}
	kps := make([]kp, len(keys))
	for i, k := range keys {
		kps[i] = kp{k, i}
	}
	sort.Slice(kps, func(i, j int) bool { return kps[i].k < kps[j].k })
	f.keys = make([]string, len(kps))
	f.perm = make([]int, len(kps))
	for i, p := range kps {
		f.keys[i] = p.k
		f.perm[i] = p.i
	}
	v := &Vec[M]{ls: f, series: make(map[string]*M)}
	if plain {
		v.one = v.newSeries()
		v.series[""] = v.one
	}
	return v
}

// CounterVec returns (creating if needed) the named counter family
// with the given label keys and the DefaultMaxSeries bound.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	return register[Counter](r, name, false, 0, nil, keys)
}

// BoundedCounterVec is CounterVec with an explicit series bound
// (maxSeries <= 0 selects DefaultMaxSeries).
func (r *Registry) BoundedCounterVec(name string, maxSeries int, keys ...string) *CounterVec {
	return register[Counter](r, name, false, maxSeries, nil, keys)
}

// GaugeVec returns (creating if needed) the named gauge family with
// the given label keys and the DefaultMaxSeries bound.
func (r *Registry) GaugeVec(name string, keys ...string) *GaugeVec {
	return register[Gauge](r, name, false, 0, nil, keys)
}

// BoundedGaugeVec is GaugeVec with an explicit series bound.
func (r *Registry) BoundedGaugeVec(name string, maxSeries int, keys ...string) *GaugeVec {
	return register[Gauge](r, name, false, maxSeries, nil, keys)
}

// HistogramVec returns (creating if needed) the named histogram family
// with the given bucket bounds (nil selects DefBuckets), label keys,
// and the DefaultMaxSeries bound.
func (r *Registry) HistogramVec(name string, buckets []float64, keys ...string) *HistogramVec {
	return register[Histogram](r, name, false, 0, buckets, keys)
}

// BoundedHistogramVec is HistogramVec with an explicit series bound.
func (r *Registry) BoundedHistogramVec(name string, maxSeries int, buckets []float64, keys ...string) *HistogramVec {
	return register[Histogram](r, name, false, maxSeries, buckets, keys)
}
