package engine

import (
	"reflect"
	"testing"
)

func TestEventHookObservesEmissionOrder(t *testing.T) {
	m := diamondManager(t)
	var hooked []Event
	m.SetEventHook(func(e Event) { hooked = append(hooked, e) })
	tree, _ := m.ExtractTree("merged")
	if _, err := m.ExecuteTask(tree, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	evs := m.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	if !reflect.DeepEqual(hooked, evs) {
		t.Fatalf("hook saw %d events, stream holds %d — must match in order",
			len(hooked), len(evs))
	}

	// RestoreEvents seeds a fresh manager's stream with the history, and
	// EventsSince cursors resume past it.
	r := diamondManager(t)
	r.RestoreEvents(evs)
	if !reflect.DeepEqual(r.Events(), evs) {
		t.Fatal("RestoreEvents did not reproduce the stream")
	}
	if got := r.EventsSince(len(evs)); got != nil {
		t.Fatalf("EventsSince(len) = %d events, want none", len(got))
	}
	// It takes the slice over instead of copying it: a restart's
	// recovered history is not allocated twice.
	if &r.ev.evs[0] != &evs[0] {
		t.Fatal("RestoreEvents copied the history it was handed")
	}

	// nil removes the hook; forks do not inherit it.
	m.SetEventHook(func(Event) { t.Fatal("hook fired after removal") })
	f, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	m.SetEventHook(nil)
	ftree, _ := f.ExtractTree("merged")
	if _, err := f.ExecuteTask(ftree, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
}
