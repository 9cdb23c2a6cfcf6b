package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterVecSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("serve_requests_total", "route", "cache")
	v.With("risk", "hit").Add(3)
	v.With("risk", "hit").Inc()
	v.With("risk", "miss").Inc()
	if got := v.With("risk", "hit").Value(); got != 4 {
		t.Fatalf("hit series = %d, want 4", got)
	}
	if got := v.With("risk", "miss").Value(); got != 1 {
		t.Fatalf("miss series = %d, want 1", got)
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	// Same name returns the same family regardless of later arguments.
	if r.CounterVec("serve_requests_total", "bogus") != v {
		t.Fatal("second registration did not return the first family")
	}
}

// TestVecWithExistingSeriesAllocatesNothing pins that With on a series
// that exists allocates nothing, as the serving layer calls it on every
// request. The histogram is keyed like the request-latency family, the
// counter like the request family with two labels.
func TestVecWithExistingSeriesAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("serve_requests_total", "route", "cache")
	h := r.HistogramVec("serve_request_seconds", nil, "route")
	c.With("risk", "hit").Inc()
	h.With("risk").Observe(1)
	c.With(OverflowValue, "x").Inc()
	for name, f := range map[string]func(){
		"counter":   func() { c.With("risk", "hit").Inc() },
		"histogram": func() { h.With("risk").Observe(1) },
		"overflow":  func() { c.With(OverflowValue, "x").Inc() },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: With on an existing series allocates %v times, want 0", name, n)
		}
	}
}

func TestVecKeyOrderIsDeclarationOrder(t *testing.T) {
	// Keys are interned sorted, but With takes values in declaration
	// order: (tier, event) here, even though "event" sorts first.
	r := NewRegistry()
	v := r.CounterVec("cache_events_total", "tier", "event")
	v.With("memo", "hit").Inc()
	text := r.PromText()
	want := `cache_events_total{event="hit",tier="memo"} 1`
	if !strings.Contains(text, want) {
		t.Fatalf("exposition lacks %q:\n%s", want, text)
	}
}

func TestVecArityMismatchIsNoop(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x_total", "a", "b")
	c := v.With("only-one")
	if c != nil {
		t.Fatal("arity mismatch should yield a nil counter")
	}
	c.Inc() // nil-safe no-op
	if v.Len() != 0 {
		t.Fatalf("Len = %d after arity mismatch, want 0", v.Len())
	}
}

func TestVecNilSafety(t *testing.T) {
	var cv *CounterVec
	var gv *GaugeVec
	var hv *HistogramVec
	cv.With("a").Inc()
	gv.With("a").Set(1)
	hv.With("a").Observe(1)
	if cv.Len() != 0 || gv.Len() != 0 || hv.Len() != 0 {
		t.Fatal("nil vec Len should be 0")
	}
	var r *Registry
	r.CounterVec("x_total", "k").With("v").Inc()
	r.GaugeVec("x", "k").With("v").Set(1)
	r.HistogramVec("x_seconds", nil, "k").With("v").Observe(1)
}

func TestVecCardinalityOverflow(t *testing.T) {
	r := NewRegistry()
	v := r.BoundedCounterVec("bounded_total", 4, "id")
	// 3 real series fit (the 4th slot is reserved for overflow).
	v.With("a").Inc()
	v.With("b").Inc()
	v.With("c").Inc()
	if over, _ := v.Overflowed(); over {
		t.Fatal("overflowed before the bound")
	}
	// Everything past the bound lands on the shared overflow series.
	v.With("d").Add(10)
	v.With("e").Add(5)
	if v.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (3 real + overflow)", v.Len())
	}
	over, dropped := v.Overflowed()
	if !over || dropped != 2 {
		t.Fatalf("Overflowed = %v/%d, want true/2", over, dropped)
	}
	if got := v.With("other").Value(); got != 15 {
		t.Fatalf("overflow series = %d, want 15", got)
	}
	// Established series keep their identity after overflow starts.
	v.With("a").Inc()
	if got := v.With("a").Value(); got != 2 {
		t.Fatalf("series a = %d, want 2", got)
	}
	want := `bounded_total{id="other"} 15`
	if text := r.PromText(); !strings.Contains(text, want) {
		t.Fatalf("exposition lacks %q:\n%s", want, text)
	}
}

func TestOverflowValueNeverMintsRealSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("k_total", "kind")
	// A caller-supplied "other" routes to the overflow series even while
	// the family is far under its bound.
	v.With(OverflowValue).Inc()
	v.With("real").Inc()
	v.With(OverflowValue).Inc()
	if got := v.With(OverflowValue).Value(); got != 2 {
		t.Fatalf("overflow series = %d, want 2", got)
	}
	if over, dropped := v.Overflowed(); over || dropped != 0 {
		t.Fatalf("explicit %q should not count as a drop: %v/%d", OverflowValue, over, dropped)
	}
}

func TestPromLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("weird_total", "val")
	v.With(`quote " backslash \ newline` + "\n" + `end`).Inc()
	text := r.PromText()
	want := `weird_total{val="quote \" backslash \\ newline\nend"} 1`
	if !strings.Contains(text, want) {
		t.Fatalf("exposition lacks %q:\n%s", want, text)
	}
	if strings.Count(text, "\n") != 2 { // TYPE line + series line
		t.Fatalf("raw newline leaked into exposition:\n%q", text)
	}
}

func TestHistogramVecExemplars(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("req_seconds", []float64{0.1, 1}, "route")
	h := v.With("risk")
	h.ObserveEx(0.05, "aaaabbbbccccddddaaaabbbbccccdddd")
	h.ObserveEx(0.5, "11112222333344441111222233334444")
	h.Observe(0.6) // no exemplar; must not clobber the previous one
	text := r.PromText()
	want := `req_seconds_bucket{route="risk",le="1"} 3 # {trace_id="11112222333344441111222233334444"} 0.5`
	if !strings.Contains(text, want) {
		t.Fatalf("exposition lacks %q:\n%s", want, text)
	}
	if !strings.Contains(text, `le="0.1"} 1 # {trace_id="aaaabbbbccccddddaaaabbbbccccdddd"} 0.05`) {
		t.Fatalf("first bucket lost its exemplar:\n%s", text)
	}
}

func TestVecSnapshotAndJSONCarryLabels(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("a_total", "k").With("v1").Inc()
	r.GaugeVec("b", "k").With("v2").Set(7)
	r.HistogramVec("c_seconds", nil, "k").With("v3").Observe(1)
	byName := map[string]MetricSnapshot{}
	for _, m := range r.Snapshot() {
		byName[m.Name] = m
	}
	for name, want := range map[string]string{"a_total": "v1", "b": "v2", "c_seconds": "v3"} {
		m, ok := byName[name]
		if !ok {
			t.Fatalf("snapshot lacks %s", name)
		}
		if m.Labels["k"] != want {
			t.Fatalf("%s labels = %v, want k=%s", name, m.Labels, want)
		}
	}
	blob, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"labels"`) {
		t.Fatalf("JSON dump lacks labels:\n%s", blob)
	}
}

func TestVecConcurrency(t *testing.T) {
	r := NewRegistry()
	v := r.BoundedCounterVec("conc_total", 8, "id")
	ids := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v.With(ids[i%len(ids)]).Inc()
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, m := range r.Snapshot() {
		total += int64(m.Value)
	}
	if total != 8000 {
		t.Fatalf("total = %d, want 8000 (no increments lost to overflow routing)", total)
	}
	if v.Len() > 8 {
		t.Fatalf("Len = %d, exceeds bound 8", v.Len())
	}
}
