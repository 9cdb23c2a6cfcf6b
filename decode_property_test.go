package flowsched

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"flowsched/internal/meta"
	"flowsched/internal/sched"
	"flowsched/internal/store"
)

// sameDecode requires e.Decode into a fresh T — twice, so both a decode
// that fills the entry's kept value and one that copies it are checked —
// to equal a fresh json.Unmarshal of e.Payload().
func sameDecode[T any](t *testing.T, e *store.Entry) {
	t.Helper()
	var want T
	if err := json.Unmarshal(e.Payload(), &want); err != nil {
		t.Fatalf("%s: Unmarshal: %v", e.ID, err)
	}
	for i := 0; i < 2; i++ {
		var got T
		if err := e.Decode(&got); err != nil {
			t.Fatalf("%s: Decode: %v", e.ID, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Decode #%d = %+v\nUnmarshal = %+v", e.ID, i+1, got, want)
		}
	}
}

// checkDecodes compares every payload-carrying entry of db with a fresh
// unmarshal of its bytes, and returns how many entries of each payload
// type it checked.
func checkDecodes(t *testing.T, db store.Reader) map[string]int {
	t.Helper()
	seen := map[string]int{}
	for _, c := range db.Containers() {
		for _, e := range c.Entries() {
			if len(e.Payload()) == 0 {
				continue
			}
			var kind string
			switch {
			case c.Name == sched.PlanContainer:
				kind = "Plan"
				sameDecode[sched.Plan](t, e)
			case c.Name == sched.MilestoneContainer:
				kind = "Milestone"
				sameDecode[sched.Milestone](t, e)
			case strings.HasPrefix(c.Name, "sched:"):
				kind = "Instance"
				sameDecode[sched.Instance](t, e)
			case strings.HasPrefix(c.Name, "run:"):
				kind = "Run"
				sameDecode[meta.Run](t, e)
			case c.Space == store.ExecutionSpace:
				kind = "Entity"
				sameDecode[meta.Entity](t, e)
			default:
				t.Fatalf("%s: no payload type for container %q", e.ID, c.Name)
			}
			seen[kind]++
		}
	}
	return seen
}

// driveDecodeSession applies one seed's share of the session: import,
// plan, a tracked run completed by hand or automatically, a milestone,
// propagation, and a refreshed milestone report.
func driveDecodeSession(t *testing.T, p *Project, rng *rand.Rand) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	targets := []string{"performance"}
	_, err := p.Import("stimuli", []byte(fmt.Sprintf("pulse %d", rng.Int63())))
	must(err)
	est := Fixed{Default: time.Duration(4+rng.Intn(12)) * time.Hour}
	opt := PlanOptions{}
	if pl := p.CurrentPlan(); pl != nil && rng.Intn(2) == 0 {
		opt.BasedOn = []string{fmt.Sprintf("%s/%d", sched.PlanContainer, pl.Version)}
	}
	_, err = p.Plan(targets, est, opt)
	must(err)
	must(p.SetMilestone(fmt.Sprintf("m%d", rng.Intn(1000)), "performance",
		p.Now().Add(time.Duration(1+rng.Intn(40))*24*time.Hour)))
	if rng.Intn(2) == 0 {
		_, err = p.Run(targets, true)
		must(err)
	} else {
		res, err := p.Run(targets, false)
		must(err)
		for _, o := range res.Outcomes {
			must(p.Complete(o.Activity, o.FinalEntity.ID))
		}
	}
	_, err = p.Propagate()
	must(err)
	v, err := p.View()
	must(err)
	_, err = v.MilestoneReport()
	must(err)
}

// eagerTwin gives p's database a commit hook that ignores what it sees,
// so that, like a durable project's, it marshals every payload as it is
// written; without one a fork or an in-memory project produces the
// bytes only when asked.
func eagerTwin(p *Project) *Project {
	p.mgr.DB.SetCommitHook(func(store.Mutation) {})
	return p
}

// checkLazyBytes drives the same seeded session on lazy and on its eager
// twin, then requires every entry's bytes and the Snapshot to be the
// same on both: lazily produced bytes equal what json.Marshal gave at
// write time. Each entry's Decode is checked on the lazy side first, so
// that some bytes are produced after the values were read.
func checkLazyBytes(t *testing.T, lazy, eager *Project, seed int64) {
	t.Helper()
	for i := 0; i < 2; i++ {
		driveDecodeSession(t, lazy, rand.New(rand.NewSource(seed+int64(i))))
		driveDecodeSession(t, eager, rand.New(rand.NewSource(seed+int64(i))))
	}
	checkDecodes(t, lazy.mgr.DB)
	for _, c := range eager.mgr.DB.Containers() {
		lc := lazy.mgr.DB.Container(c.Name)
		if lc == nil || lc.Len() != c.Len() {
			t.Fatalf("container %s differs between the twins", c.Name)
		}
		for i, e := range c.Entries() {
			if got, want := lc.At(i).Payload(), e.Payload(); string(got) != string(want) {
				t.Fatalf("%s: lazy bytes %s, marshalled at write %s", e.ID, got, want)
			}
		}
	}
	a, err := lazy.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := eager.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("the lazy project's Snapshot differs from its eager twin's")
	}
}

// TestDecodeMatchesUnmarshalProperty: after seeded sessions covering
// plan, run, tracking, completion, milestones, propagation, a fork, a
// checkpoint and a restart, every entry's Decode equals a fresh
// json.Unmarshal of its payload, for all five payload types — whether
// the entry was written in this process, replayed from the WAL or
// restored from the checkpoint. On a fork and on an in-memory project,
// whose bytes are produced on demand, they equal what an eager twin
// marshalled at write time, and so does the Snapshot.
func TestDecodeMatchesUnmarshalProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			p := openDurable(t, dir, PersistOptions{})
			driveDecodeSession(t, p, rng)

			f, err := p.Fork()
			if err != nil {
				t.Fatal(err)
			}
			driveDecodeSession(t, f, rng)
			checkDecodes(t, f.mgr.DB)

			lazy, err := p.Fork()
			if err != nil {
				t.Fatal(err)
			}
			eager, err := p.Fork()
			if err != nil {
				t.Fatal(err)
			}
			checkLazyBytes(t, lazy, eagerTwin(eager), seed*100)
			checkLazyBytes(t, prepared(t), eagerTwin(prepared(t)), seed*100+50)

			if rng.Intn(2) == 0 {
				if err := p.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			driveDecodeSession(t, p, rng)
			if err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			driveDecodeSession(t, p, rng)
			before := checkDecodes(t, p.mgr.DB)
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			re := openDurable(t, dir, PersistOptions{})
			defer re.Close()
			if got := checkDecodes(t, re.mgr.DB); !reflect.DeepEqual(got, before) {
				t.Fatalf("restart checked %v entries, before it %v", got, before)
			}
			driveDecodeSession(t, re, rng)
			seen := checkDecodes(t, re.mgr.DB)
			for _, kind := range []string{"Instance", "Plan", "Run", "Entity", "Milestone"} {
				if seen[kind] == 0 {
					t.Fatalf("no %s entry checked (%v)", kind, seen)
				}
			}
		})
	}
}
