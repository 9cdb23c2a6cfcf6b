package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"flowsched/internal/design"
)

// TestEventDetailsMatchSprintf compares each event detail built without
// fmt with the fmt.Sprintf it replaces. Details are written to the WAL
// and shown by every event listing, so they must not change by a byte.
func TestEventDetailsMatchSprintf(t *testing.T) {
	ids := []string{"run:Synthesize/1", "netlist/12", "run:Übersetzen/100", "sched:Route/7", ""}
	refs := []design.Ref{
		{Class: "netlist", Version: 3, Sum: 0xabc},
		{Class: "layout", Version: 12, Sum: 0xfedcba9876543210},
		{Class: "größe", Version: 1, Sum: 0},
	}
	times := []time.Time{
		time.Date(1995, time.June, 5, 9, 0, 0, 0, time.UTC),
		time.Date(2026, time.November, 1, 1, 30, 59, 999, time.FixedZone("EST", -5*3600)),
		{},
	}
	r := rand.New(rand.NewSource(1995))
	for i := 0; i < 5000; i++ {
		ids = append(ids, fmt.Sprintf("run:A%d/%d", r.Intn(50), 1+r.Intn(1e6)))
		refs = append(refs, design.Ref{Class: "c", Version: r.Intn(1e6), Sum: r.Uint64() >> uint(r.Intn(64))})
		times = append(times, time.Unix(r.Int63n(4e9), r.Int63n(1e9)).UTC())
	}
	eq := func(got, want string) {
		t.Helper()
		if got != want {
			t.Fatalf("detail %q, want %q", got, want)
		}
	}
	for i, id := range ids {
		iter := 1 + i%12
		if i%7 == 0 {
			iter = 1 + r.Intn(1e9)
		}
		ref := refs[i%len(refs)]
		at, until := times[i%len(times)], times[(i+1)%len(times)]
		eq(runStartedDetail(id, iter), fmt.Sprintf("run %s (iteration %d)", id, iter))
		eq(entityDetail(id, ref), fmt.Sprintf("%s (%s)", id, ref))
		eq(runFinishedDetail(id, i%2 == 0), fmt.Sprintf("run %s ok, goalMet=%v", id, i%2 == 0))
		eq(taskStartedDetail(at), fmt.Sprintf("actual start recorded as %s", at.Format("2006-01-02 15:04")))
		eq(linkedDetail(id), fmt.Sprintf("linked %s", id))
		eq(slipDetail(at, until), fmt.Sprintf("project finish slipped %s -> %s",
			at.Format("2006-01-02"), until.Format("2006-01-02")))
	}
}
