package sched_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"flowsched/internal/design"
	"flowsched/internal/flow"
	"flowsched/internal/meta"
	"flowsched/internal/sched"
	"flowsched/internal/store"
	"flowsched/internal/vclock"
	"flowsched/internal/workload"
)

// planRandom plans a random layered workload from the epoch and returns
// the space, plan, and instances.
func planRandom(t *testing.T, depth, width int, seed int64, constrained bool) (*sched.Space, sched.Plan, []sched.Instance) {
	t.Helper()
	return planRandomOn(t, store.NewDB(), depth, width, seed, constrained, vclock.Epoch)
}

// planRandomOn is planRandom on db, planning from start.
func planRandomOn(t *testing.T, db *store.DB, depth, width int, seed int64, constrained bool, start time.Time) (*sched.Space, sched.Plan, []sched.Instance) {
	t.Helper()
	sch, err := workload.Layered(workload.LayeredConfig{
		Depth: depth, Width: width, FanIn: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := flow.FromSchema(sch)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := g.Extract(sch.PrimaryOutputs()...)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sched.NewSpace(db, sch, vclock.Standard())
	if err != nil {
		t.Fatal(err)
	}
	est, err := workload.Estimates(sch, 8*time.Hour, 0.3, seed)
	if err != nil {
		t.Fatal(err)
	}
	team := []string{"a", "b", "c"}
	res, err := sp.Plan(tree, start, est, sched.PlanOptions{
		Assignments:         workload.Assignments(sch, team),
		ResourceConstrained: constrained,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, insts, err := sp.Instances(&res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	return sp, res.Plan, insts
}

// Property: every planned window lies inside working time — starts and
// finishes are working instants, and the window length equals the
// estimate in working time.
func TestPlanWindowsAreWorkingTime(t *testing.T) {
	cal := vclock.Standard()
	f := func(seed int64, d, w uint8) bool {
		depth, width := int(d%4)+1, int(w%4)+1
		_, _, insts := planRandom(t, depth, width, seed, false)
		for _, in := range insts {
			if !cal.NextWorkInstant(in.PlannedStart).Equal(in.PlannedStart) {
				return false
			}
			if cal.WorkBetween(in.PlannedStart, in.PlannedFinish) != in.EstWork {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the schedule space mirrors the planned scope — exactly one
// instance per activity per plan version (DESIGN.md invariant).
func TestMirrorInvariant(t *testing.T) {
	f := func(seed int64) bool {
		sp, plan, insts := planRandom(t, 3, 3, seed, false)
		if len(insts) != len(plan.Activities) {
			return false
		}
		seen := map[string]bool{}
		for _, in := range insts {
			if in.PlanVersion != plan.Version || seen[in.Activity] {
				return false
			}
			seen[in.Activity] = true
		}
		// Each activity container holds exactly plan-version instances.
		for _, act := range plan.Activities {
			_, hist, err := sp.History(act)
			if err != nil || len(hist) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: under resource constraints, activities sharing a resource
// never overlap, and the constrained finish is never earlier than the
// unconstrained one.
func TestResourceConstraintProperty(t *testing.T) {
	f := func(seed int64) bool {
		_, planU, _ := planRandom(t, 3, 3, seed, false)
		_, planC, instsC := planRandom(t, 3, 3, seed, true)
		if planC.Finish.Before(planU.Finish) {
			return false
		}
		byResource := map[string][]sched.Instance{}
		for _, in := range instsC {
			for _, r := range in.Resources {
				byResource[r] = append(byResource[r], in)
			}
		}
		for _, list := range byResource {
			for i := range list {
				for j := i + 1; j < len(list); j++ {
					a, b := list[i], list[j]
					if a.PlannedStart.Before(b.PlannedFinish) && b.PlannedStart.Before(a.PlannedFinish) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: propagation at arbitrary future instants preserves precedence
// and never projects a finish before `now` for unfinished work.
func TestPropagateProperty(t *testing.T) {
	f := func(seed int64, hoursAhead uint16) bool {
		sp, plan, _ := planRandom(t, 3, 2, seed, false)
		now := vclock.Epoch.Add(time.Duration(hoursAhead%2000) * time.Hour)
		projected, err := sp.Propagate(&plan, now)
		if err != nil {
			return false
		}
		if projected.Before(vclock.Standard().NextWorkInstant(now)) && projected.Before(now) {
			return false
		}
		finish := map[string]time.Time{}
		for _, act := range plan.Activities {
			_, in, err := sp.Instance(&plan, act)
			if err != nil {
				return false
			}
			if in.PlannedFinish.Before(now) {
				return false
			}
			for _, pred := range producersIn(sp, &plan, act) {
				if in.PlannedStart.Before(finish[pred]) {
					return false
				}
			}
			finish[act] = in.PlannedFinish
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: Propagate rewrites exactly the instances whose dates moved,
// and the plan only when its finish did; a second propagate at the same
// clock commits nothing. Plans start, and clocks read, in zones with
// zero, negative and half-hour offsets, on databases with and without a
// commit hook (eager and lazy payloads), with a random prefix of the
// activities done and a few more running.
func TestPropagateWritesOnlySlips(t *testing.T) {
	zones := []*time.Location{time.UTC, time.FixedZone("EST", -5*3600), time.FixedZone("IST", 5*3600+1800)}
	// partial counts propagates that rewrote some, not all, entries.
	var partial int
	f := func(seed int64, shape, progress uint8, h1, h2 uint16) bool {
		db := store.NewDB()
		if shape&1 != 0 {
			db.SetCommitHook(func(store.Mutation) {})
		}
		start := time.Date(1995, 1, 2, 9, 0, 0, 0, zones[int(shape>>1)%len(zones)])
		sp, plan, _ := planRandomOn(t, db, int(shape>>3)%3+2, int(shape>>5)%3+1, seed, shape&4 != 0, start)
		exec, err := meta.NewSpace(db, sp.Schema)
		if err != nil {
			t.Fatal(err)
		}
		n := len(plan.Activities)
		done := int(progress%8) % (n + 1)
		running := min(int(progress/8)%4, n-done)
		at := start
		for i, act := range plan.Activities[:done+running] {
			at = start.Add(time.Duration(i) * 6 * time.Hour)
			if i >= done {
				if err := sp.MarkStarted(&plan, act, at); err != nil {
					t.Fatal(err)
				}
				continue
			}
			complete(t, sp, exec, &plan, act, at)
		}
		// The clock may read in another zone than the plan's dates.
		now := at.Add(time.Duration(h1%48) * time.Hour).In(zones[int(progress>>5)%len(zones)])
		count := func(w, c int) {
			if 0 < w && w < c {
				partial++
			}
		}
		count(propagateChecked(t, sp, &plan, now))
		if again, _ := propagateChecked(t, sp, &plan, now); again != 0 {
			t.Errorf("seed %d: a second propagate at %v made %d mutations, want none", seed, now, again)
			return false
		}
		// The same instant read in the next zone: dates it keeps must
		// still be rewritten where their offset changes.
		count(propagateChecked(t, sp, &plan, now.In(zones[(int(progress>>5)+1)%len(zones)])))
		count(propagateChecked(t, sp, &plan, now.Add(time.Duration(h2%60)*time.Hour)))
		return !t.Failed()
	}
	// Fixed draws, so that the coverage check below is reproducible.
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if partial == 0 {
		t.Fatal("no draw rewrote only part of a plan: the skip beside a slip went unexercised")
	}
}

// complete records an output entity for act and completes act with it.
func complete(t *testing.T, sp *sched.Space, exec *meta.Space, p *sched.Plan, act string, at time.Time) {
	t.Helper()
	out := sp.Schema.RuleByActivity(act).Output
	run, err := exec.BeginRun(act, act+"#1", "d", at)
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.FinishRun(run.ID, at.Add(3*time.Hour), meta.RunSucceeded); err != nil {
		t.Fatal(err)
	}
	ent, err := exec.RecordEntity(out, run.ID, design.Ref{Class: out, Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Complete(p, act, ent.ID, at.Add(3*time.Hour)); err != nil {
		t.Fatal(err)
	}
}

// propagateChecked propagates p at now and checks its writes against an
// oracle: a fork of the database whose planned dates and plan finish are
// cleared first. Propagate reads no planned date, so the fork's
// propagate computes the same dates, must write every instance and the
// plan, and marshals exactly what SetPayload would write on the live
// database. The live propagate must rewrite exactly the entries whose
// bytes that changes, and leave every skipped entry holding those bytes.
// Done instances are never written. It returns the number of live
// mutations and of entries the propagate could have written.
func propagateChecked(t *testing.T, sp *sched.Space, p *sched.Plan, now time.Time) (wrote, candidates int) {
	t.Helper()
	planEntry, _, err := sp.PlanByVersion(p.Version)
	if err != nil {
		t.Fatal(err)
	}
	oracle := sp.WithDB(sp.DB.ForkAt(sp.DB.Snapshot()))
	clearDates(t, oracle, p)
	want := map[string]json.RawMessage{}
	oracle.DB.SetCommitHook(func(m store.Mutation) { want[m.ID] = m.Payload })
	if _, err := oracle.Propagate(p.Clone(), now); err != nil {
		t.Fatal(err)
	}
	candidates = 1
	for _, act := range p.Activities {
		if _, in, _ := sp.Instance(p, act); !in.Done {
			candidates++
		}
	}
	if len(want) != candidates {
		t.Fatalf("oracle propagate wrote %d entries, want all %d unfinished instances and the plan", len(want), candidates-1)
	}

	ids := []string{planEntry.ID}
	for _, id := range p.Instances {
		ids = append(ids, id)
	}
	before := map[string]json.RawMessage{}
	for _, id := range ids {
		before[id] = sp.DB.Get(id).Payload()
	}
	written := map[string]int{}
	prev := sp.DB.Version()
	sp.DB.SetCommitHook(func(m store.Mutation) {
		if m.Kind != store.MutPayload {
			t.Errorf("propagate committed a %s mutation", m.Kind)
		}
		written[m.ID]++
	})
	_, err = sp.Propagate(p, now)
	sp.DB.SetCommitHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, ok := want[id]; !ok { // a done instance
			want[id] = before[id]
		}
		changed := !bytes.Equal(before[id], want[id])
		if changed != (written[id] == 1) || written[id] > 1 {
			t.Errorf("at %v %s written %d times; its bytes changed: %v", now, id, written[id], changed)
		}
		if got := sp.DB.Get(id).Payload(); !bytes.Equal(got, want[id]) {
			t.Errorf("at %v %s holds\n%s\nwant\n%s", now, id, got, want[id])
		}
	}
	if n := len(written); sp.DB.Version() != prev+uint64(n) {
		t.Errorf("version moved %d → %d over %d writes", prev, sp.DB.Version(), n)
	}
	return len(written), candidates
}

// clearDates zeroes the planned dates of p's instances and its plan's
// finish on sp's database.
func clearDates(t *testing.T, sp *sched.Space, p *sched.Plan) {
	t.Helper()
	for _, act := range p.Activities {
		e, in, err := sp.Instance(p, act)
		if err != nil {
			t.Fatal(err)
		}
		in.PlannedStart, in.PlannedFinish = time.Time{}, time.Time{}
		if err := sp.DB.SetPayload(e.ID, in); err != nil {
			t.Fatal(err)
		}
	}
	e, plan, err := sp.PlanByVersion(p.Version)
	if err != nil {
		t.Fatal(err)
	}
	plan.Finish = time.Time{}
	if err := sp.DB.SetPayload(e.ID, plan); err != nil {
		t.Fatal(err)
	}
}

// producersIn returns the in-plan producer activities of act.
func producersIn(sp *sched.Space, p *sched.Plan, act string) []string {
	inPlan := make(map[string]bool, len(p.Activities))
	for _, a := range p.Activities {
		inPlan[a] = true
	}
	rule := sp.Schema.RuleByActivity(act)
	if rule == nil {
		return nil
	}
	var out []string
	for _, in := range rule.Inputs {
		if prod := sp.Schema.Producer(in); prod != nil && inPlan[prod.Activity] {
			out = append(out, prod.Activity)
		}
	}
	return out
}
