package store

import (
	"testing"
	"time"

	"flowsched/internal/obs"
)

func TestInstrumentedDBCountsOps(t *testing.T) {
	o := obs.New()
	db := NewDB()
	db.Instrument(o)
	if _, err := db.CreateContainer("netlist", ExecutionSpace, "netlist"); err != nil {
		t.Fatal(err)
	}
	at := time.Date(1995, 6, 5, 9, 0, 0, 0, time.UTC)
	a, err := db.Put("netlist", at, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Put("netlist", at, nil, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Link(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	db.Get(a.ID)
	db.Get("nope")

	m := o.Metrics()
	if got := m.Counter("store_puts_total").Value(); got != 2 {
		t.Fatalf("store_puts_total = %d, want 2", got)
	}
	if got := m.Counter("store_gets_total").Value(); got != 2 {
		t.Fatalf("store_gets_total = %d, want 2", got)
	}
	if got := m.Counter("store_links_total").Value(); got != 1 {
		t.Fatalf("store_links_total = %d, want 1", got)
	}
	if got := m.Gauge("store_entries").Value(); got != 2 {
		t.Fatalf("store_entries = %d, want 2", got)
	}
}

func TestInstrumentSeedsEntriesGaugeAndTakesNil(t *testing.T) {
	db := NewDB()
	db.Instrument(nil) // no-op
	if _, err := db.CreateContainer("c", ExecutionSpace, "c"); err != nil {
		t.Fatal(err)
	}
	at := time.Date(1995, 6, 5, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		if _, err := db.Put("c", at, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Instrumenting an already-populated DB seeds the gauge.
	o := obs.New()
	db.Instrument(o)
	if got := o.Metrics().Gauge("store_entries").Value(); got != 3 {
		t.Fatalf("store_entries seeded to %d, want 3", got)
	}
}
