package engine

import (
	"testing"
	"time"
)

// TestParallelEventStreamOrderedPerActivity pins the ExecOptions
// contract: "In parallel mode the event stream is ordered per activity,
// not globally." Within one activity the events appear in emission
// order with non-decreasing virtual timestamps; across activities the
// stream may (and, on the diamond, does) step backwards in virtual
// time, because overlapping branches are emitted branch-by-branch.
func TestParallelEventStreamOrderedPerActivity(t *testing.T) {
	m := diamondManager(t)
	tree, _ := m.ExtractTree("merged")
	if _, err := m.ExecuteTask(tree, ExecOptions{Parallel: true}); err != nil {
		t.Fatal(err)
	}
	evs := m.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}

	// Per-activity: virtual timestamps never decrease, and each
	// activity's run-started precedes its run-finished.
	byAct := make(map[string][]Event)
	for _, ev := range evs {
		if ev.Activity != "" {
			byAct[ev.Activity] = append(byAct[ev.Activity], ev)
		}
	}
	for _, act := range []string{"A", "B", "C", "D"} {
		stream := byAct[act]
		if len(stream) == 0 {
			t.Fatalf("no events for activity %s", act)
		}
		started := -1
		for i, ev := range stream {
			if i > 0 && ev.At.Before(stream[i-1].At) {
				t.Fatalf("%s: event %d (%s) at %v precedes event %d at %v",
					act, i, ev.Kind, ev.At, i-1, stream[i-1].At)
			}
			switch ev.Kind {
			case EvRunStarted:
				started = i
			case EvRunFinished:
				if started < 0 {
					t.Fatalf("%s: run-finished before run-started", act)
				}
			}
		}
	}

	// Globally: B and C overlap on the virtual timeline, so the flat
	// stream must contain at least one backwards step — the documented
	// boundary of the ordering guarantee.
	inverted := false
	for i := 1; i < len(evs); i++ {
		if evs[i].At.Before(evs[i-1].At) {
			inverted = true
			break
		}
	}
	if !inverted {
		t.Fatal("diamond stream is globally time-ordered; expected per-activity ordering only")
	}
}

// TestEventsSinceCursor covers the incremental poll path: EventsSince
// returns exactly the unseen tail, clamps bad cursors, and hands out
// copies that cannot alias the manager's stream.
func TestEventsSinceCursor(t *testing.T) {
	m := diamondManager(t)
	tree, _ := m.ExtractTree("merged")
	if _, err := m.ExecuteTask(tree, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	all := m.Events()
	n := len(all)
	if n < 4 {
		t.Fatalf("only %d events", n)
	}

	if got := m.EventsSince(0); len(got) != n {
		t.Fatalf("EventsSince(0) = %d events, want %d", len(got), n)
	}
	if got := m.EventsSince(-3); len(got) != n {
		t.Fatalf("EventsSince(-3) = %d events, want %d (clamped)", len(got), n)
	}
	tail := m.EventsSince(2)
	if len(tail) != n-2 || tail[0] != all[2] {
		t.Fatalf("EventsSince(2) = %d events starting %v, want %d starting %v",
			len(tail), tail[0], n-2, all[2])
	}
	if got := m.EventsSince(n); got != nil {
		t.Fatalf("EventsSince(len) = %v, want nil", got)
	}
	if got := m.EventsSince(n + 50); got != nil {
		t.Fatalf("EventsSince(past end) = %v, want nil", got)
	}

	// A poller resuming with seq += len(returned) sees every event
	// exactly once.
	seq, seen := 0, 0
	for {
		batch := m.EventsSince(seq)
		if batch == nil {
			break
		}
		seq += len(batch)
		seen += len(batch)
	}
	if seen != n {
		t.Fatalf("cursor walk saw %d events, want %d", seen, n)
	}

	// Returned slices are copies.
	tail[0].Detail = "mutated"
	if m.Events()[2].Detail == "mutated" {
		t.Fatal("EventsSince aliases the manager's event stream")
	}
}

// TestEventsAfterWakesOnAppend pins the push-consumer contract: when no
// events past the cursor exist, EventsAfter hands back a channel that
// closes at the next append, after which a re-read returns exactly the
// new tail — the primitive each HTTP SSE stream blocks on instead of
// polling.
func TestEventsAfterWakesOnAppend(t *testing.T) {
	l := &eventLog{}
	l.append(Event{Kind: EvRunStarted, Activity: "A"})

	// Existing tail: returned immediately, no wake channel.
	evs, wake := l.after(0)
	if len(evs) != 1 || wake != nil {
		t.Fatalf("after(0) = %d events, wake %v; want 1 events, nil wake", len(evs), wake)
	}

	// Caught up: no events, a wake channel that is not yet closed.
	evs, wake = l.after(1)
	if evs != nil || wake == nil {
		t.Fatalf("after(1) = %v, %v; want nil events and a wake channel", evs, wake)
	}
	select {
	case <-wake:
		t.Fatal("wake channel closed before any append")
	default:
	}

	done := make(chan []Event)
	go func() {
		<-wake
		tail, _ := l.after(1)
		done <- tail
	}()
	l.append(Event{Kind: EvRunFinished, Activity: "A"})
	select {
	case tail := <-done:
		if len(tail) != 1 || tail[0].Kind != EvRunFinished {
			t.Fatalf("woken read = %+v, want the one appended event", tail)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("EventsAfter waiter never woke on append")
	}

	// Two waiters share one wake channel; both see the same close.
	_, w1 := l.after(2)
	_, w2 := l.after(2)
	if w1 != w2 {
		t.Fatal("concurrent waiters got different wake channels")
	}
	if n := l.count(); n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}
}
