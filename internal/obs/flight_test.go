package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func rec(id string, lat time.Duration) FlightRecord {
	return FlightRecord{TraceID: id, Route: "risk", Latency: lat}
}

func TestFlightRingEvictsFIFO(t *testing.T) {
	f := NewFlightRecorder(3, 2)
	f.Record(rec("a", 1*time.Millisecond))
	f.Record(rec("b", 2*time.Millisecond))
	f.Record(rec("c", 3*time.Millisecond))
	f.Record(rec("d", 4*time.Millisecond))
	recent, _ := f.Snapshot()
	if len(recent) != 3 {
		t.Fatalf("recent len = %d, want 3", len(recent))
	}
	// Newest first; "a" was evicted.
	for i, want := range []string{"d", "c", "b"} {
		if recent[i].TraceID != want {
			t.Fatalf("recent[%d] = %q, want %q", i, recent[i].TraceID, want)
		}
	}
}

func TestFlightSlowestSurvivesEviction(t *testing.T) {
	f := NewFlightRecorder(2, 2)
	f.Record(rec("slowest", time.Second))
	f.Record(rec("slower", 500*time.Millisecond))
	for i := 0; i < 10; i++ {
		f.Record(rec("fast", time.Millisecond))
	}
	recent, slowest := f.Snapshot()
	for _, r := range recent {
		if r.TraceID != "fast" {
			t.Fatalf("ring still holds %q", r.TraceID)
		}
	}
	if len(slowest) != 2 || slowest[0].TraceID != "slowest" || slowest[1].TraceID != "slower" {
		t.Fatalf("slowest tier = %+v, want [slowest slower]", slowest)
	}
	// Find falls through to the slowest tier after ring eviction.
	if r, ok := f.Find("slowest"); !ok || r.Latency != time.Second {
		t.Fatalf("Find(slowest) = %+v/%v", r, ok)
	}
	if _, ok := f.Find("nope"); ok {
		t.Fatal("Find invented a record")
	}
}

func TestFlightInstrumentCounts(t *testing.T) {
	r := NewRegistry()
	f := NewFlightRecorder(2, 1)
	f.Instrument(r, "serve_flight")
	for i := 0; i < 5; i++ {
		f.Record(rec("x", time.Millisecond))
	}
	if got := r.Counter("serve_flight_records_total").Value(); got != 5 {
		t.Fatalf("records_total = %d, want 5", got)
	}
	// Ring holds 2; the 3rd..5th records each overwrote a slot.
	if got := r.Counter("serve_flight_evictions_total").Value(); got != 3 {
		t.Fatalf("evictions_total = %d, want 3", got)
	}
}

func TestFlightNilSafety(t *testing.T) {
	var f *FlightRecorder
	f.Record(rec("x", 0))
	f.Instrument(NewRegistry(), "p")
	if recent, slowest := f.Snapshot(); recent != nil || slowest != nil {
		t.Fatal("nil recorder snapshot should be nil")
	}
	if _, ok := f.Find("x"); ok {
		t.Fatal("nil recorder found a record")
	}
}

func TestRenderFlight(t *testing.T) {
	f := NewFlightRecorder(4, 2)
	f.Record(FlightRecord{
		TraceID: "0123456789abcdef0123456789abcdef", Route: "risk", Status: 200,
		Latency: 1500 * time.Millisecond, StoreVersion: 7, Cache: "miss",
		SampledTrials: 100, ReusedTrials: 900,
		Spans: []SpanData{{Name: "serve.risk"}},
	})
	out := RenderFlight(f.Snapshot())
	for _, want := range []string{"recent (1)", "slowest (1)", "risk", "cache=miss", "trials=100/900", "spans=1", "v7", "0123456789abcdef…"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}

func TestFlightConcurrency(t *testing.T) {
	f := NewFlightRecorder(16, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Record(rec("t", time.Duration(i)*time.Microsecond))
				if i%50 == 0 {
					f.Snapshot()
					f.Find("t")
				}
			}
		}(w)
	}
	wg.Wait()
	recent, slowest := f.Snapshot()
	if len(recent) != 16 || len(slowest) != 4 {
		t.Fatalf("tiers = %d/%d, want 16/4", len(recent), len(slowest))
	}
}
