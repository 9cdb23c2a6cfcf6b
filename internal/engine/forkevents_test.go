package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// note appends a marker event straight to m's stream.
func note(m *Manager, detail string) {
	m.emit(EvPlanCreated, "", t0, detail)
}

// details lists the Detail of every event in m's stream.
func details(m *Manager) []string {
	var out []string
	for _, e := range m.Events() {
		out = append(out, e.Detail)
	}
	return out
}

func wantDetails(t *testing.T, who string, m *Manager, want ...string) {
	t.Helper()
	got := details(m)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s stream = %q, want %q", who, got, want)
	}
	if n := m.EventCount(); n != len(want) {
		t.Fatalf("%s EventCount = %d, want %d", who, n, len(want))
	}
	for seq := 0; seq <= len(want); seq++ {
		tail := m.EventsSince(seq)
		if len(tail) != len(want)-seq {
			t.Fatalf("%s EventsSince(%d) has %d events, want %d", who, seq, len(tail), len(want)-seq)
		}
		for i, e := range tail {
			if e.Detail != want[seq+i] {
				t.Fatalf("%s EventsSince(%d)[%d] = %q, want %q", who, seq, i, e.Detail, want[seq+i])
			}
		}
	}
}

func mustFork(t *testing.T, m *Manager) *Manager {
	t.Helper()
	f, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestForkSharesEventPrefix: a fork reads the parent's history followed
// by its own events, and neither side sees the other's later events.
func TestForkSharesEventPrefix(t *testing.T) {
	p := newManager(t)
	note(p, "p1")
	note(p, "p2")
	f := mustFork(t, p)
	wantDetails(t, "fork", f, "p1", "p2")

	note(f, "f1")
	note(p, "p3")
	note(f, "f2")
	wantDetails(t, "parent", p, "p1", "p2", "p3")
	wantDetails(t, "fork", f, "p1", "p2", "f1", "f2")

	// A fork of an empty stream, and a fork of a fork that has not
	// emitted, share what little there is.
	e := mustFork(t, newManager(t))
	wantDetails(t, "empty fork", e)
	g := mustFork(t, mustFork(t, p))
	wantDetails(t, "fork of quiet fork", g, "p1", "p2", "p3")
}

// TestForkOfForkEvents: a fork of a fork that has emitted sees the whole
// chain, and forking it again leaves the middle fork's stream intact.
func TestForkOfForkEvents(t *testing.T) {
	p := newManager(t)
	note(p, "p1")
	f := mustFork(t, p)
	note(f, "f1")
	g := mustFork(t, f)
	wantDetails(t, "fork of fork", g, "p1", "f1")
	wantDetails(t, "middle fork", f, "p1", "f1")

	note(f, "f2")
	note(g, "g1")
	note(p, "p2")
	h := mustFork(t, f)
	note(h, "h1")
	wantDetails(t, "parent", p, "p1", "p2")
	wantDetails(t, "middle fork", f, "p1", "f1", "f2")
	wantDetails(t, "fork of fork", g, "p1", "f1", "g1")
	wantDetails(t, "second fork of fork", h, "p1", "f1", "f2", "h1")
	wantDetails(t, "third generation", mustFork(t, g), "p1", "f1", "g1")
}

// TestRestoreEventsOnFork: restoring a fork's stream replaces the shared
// prefix for the fork alone.
func TestRestoreEventsOnFork(t *testing.T) {
	p := newManager(t)
	note(p, "p1")
	note(p, "p2")
	f := mustFork(t, p)
	note(f, "f1")
	_, wake := f.EventsAfter(f.EventCount())
	f.RestoreEvents([]Event{{Kind: EvPlanCreated, Detail: "r1"}})
	select {
	case <-wake:
	default:
		t.Fatal("RestoreEvents did not wake the fork's waiter")
	}
	wantDetails(t, "restored fork", f, "r1")
	note(f, "f2")
	wantDetails(t, "restored fork", f, "r1", "f2")
	wantDetails(t, "parent", p, "p1", "p2")
}

// TestEventsAfterOnFork: a caught-up fork waiter wakes on the fork's own
// append, not on the parent's, and re-reads exactly the fork's event.
func TestEventsAfterOnFork(t *testing.T) {
	p := newManager(t)
	note(p, "p1")
	note(p, "p2")
	f := mustFork(t, p)
	if evs, wake := f.EventsAfter(1); wake != nil || len(evs) != 1 || evs[0].Detail != "p2" {
		t.Fatalf("EventsAfter(1) on fork = %+v, %v; want the shared p2 and no wait", evs, wake)
	}
	evs, wake := f.EventsAfter(2)
	if evs != nil || wake == nil {
		t.Fatalf("caught-up EventsAfter on fork = %+v, %v; want a wait", evs, wake)
	}
	note(p, "p3")
	select {
	case <-wake:
		t.Fatal("parent append woke the fork's waiter")
	default:
	}
	note(f, "f1")
	select {
	case <-wake:
	case <-time.After(5 * time.Second):
		t.Fatal("fork append never woke the fork's waiter")
	}
	if evs, _ := f.EventsAfter(2); len(evs) != 1 || evs[0].Detail != "f1" {
		t.Fatalf("woken re-read on fork = %+v, want just f1", evs)
	}
}

// TestForkEventsIsolatedUnderConcurrentAppends forks while the parent
// keeps appending: each fork holds exactly the parent's prefix at fork
// time plus its own events, and the parent never sees a fork's events.
// Run under -race it also checks the shared prefix is never written.
func TestForkEventsIsolatedUnderConcurrentAppends(t *testing.T) {
	p := newManager(t)
	const parentEvents, forks = 2000, 40
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < parentEvents; i++ {
			note(p, fmt.Sprintf("p%d", i))
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		f := mustFork(t, p)
		wg.Add(1)
		go func(i int, f *Manager) {
			defer wg.Done()
			n := f.EventCount()
			for j := 0; j < 50; j++ {
				note(f, fmt.Sprintf("f%d.%d", i, j))
			}
			got := details(f)
			if len(got) != n+50 {
				t.Errorf("fork %d: %d events, want %d shared + 50 own", i, len(got), n)
				return
			}
			for k, d := range got {
				want := fmt.Sprintf("p%d", k)
				if k >= n {
					want = fmt.Sprintf("f%d.%d", i, k-n)
				}
				if d != want {
					t.Errorf("fork %d event %d = %q, want %q", i, k, d, want)
					return
				}
			}
		}(i, f)
	}
	wg.Wait()
	<-done
	got := details(p)
	if len(got) != parentEvents {
		t.Fatalf("parent has %d events, want %d", len(got), parentEvents)
	}
	for k, d := range got {
		if d != fmt.Sprintf("p%d", k) {
			t.Fatalf("parent event %d = %q: a fork's event leaked", k, d)
		}
	}
}

// TestForkBytesIndependentOfHistory: forking shares the event history,
// so it allocates the same bytes for a 100-event and a 10,000-event
// parent (a copy would be about 0.7 MB more).
func TestForkBytesIndependentOfHistory(t *testing.T) {
	build := func(events int) *Manager {
		m := ready(t)
		for i := 0; i < events; i++ {
			note(m, "history")
		}
		return m
	}
	perFork := func(m *Manager) uint64 {
		const forks = 50
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < forks; i++ {
			if _, err := m.ForkAtView(nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / forks
	}
	small, large := perFork(build(100)), perFork(build(10_000))
	if large > small+1024 {
		t.Fatalf("ForkAtView allocates %d B with 10,000 events vs %d B with 100: it copies the history", large, small)
	}
}
