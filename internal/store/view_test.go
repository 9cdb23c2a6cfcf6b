package store

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"flowsched/internal/obs"
)

func mustPut(t *testing.T, db *DB, container string, at time.Time, payload any, deps ...string) *Entry {
	t.Helper()
	e, err := db.Put(container, at, payload, deps...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// marshal serializes db's containers in creation order. It reads them
// directly instead of through Snapshot, which bumps the containers'
// epochs and could mask a missing copy-on-write step.
func marshal(t *testing.T, db *DB) string {
	t.Helper()
	db.mu.RLock()
	cs := make([]*Container, len(db.order))
	for i, n := range db.order {
		cs[i] = db.containers[n]
	}
	b, err := json.Marshal(cs)
	db.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSnapshotInvisibleToLaterWrites(t *testing.T) {
	db := newTestDB(t)
	n1 := mustPut(t, db, "netlist", t0, map[string]int{"gen": 1})
	s1 := mustPut(t, db, "sched:Create", t0, nil)

	v := db.Snapshot()
	wantDump := v.Dump()

	// Append, payload swap, and link after the snapshot.
	mustPut(t, db, "netlist", t0.Add(time.Hour), nil, n1.ID)
	if err := db.SetPayload(n1.ID, map[string]int{"gen": 2}); err != nil {
		t.Fatal(err)
	}
	if err := db.Link(n1.ID, s1.ID); err != nil {
		t.Fatal(err)
	}

	if got := v.Container("netlist").Len(); got != 1 {
		t.Fatalf("snapshot sees %d netlist entries, want 1", got)
	}
	var p map[string]int
	if err := v.Get(n1.ID).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p["gen"] != 1 {
		t.Fatalf("snapshot sees payload gen=%d, want 1", p["gen"])
	}
	if v.Linked(n1.ID, s1.ID) {
		t.Fatal("snapshot sees a link made after it was taken")
	}
	if v.Dump() != wantDump {
		t.Fatal("snapshot dump changed after parent writes")
	}
	// The live DB, by contrast, sees everything.
	if db.Get(n1.ID).Payload() == nil || !db.Linked(n1.ID, s1.ID) {
		t.Fatal("live DB lost its own writes")
	}
}

// randomOps drives a deterministic pseudo-random mix of container ops.
func randomOps(t *testing.T, db *DB, rng *rand.Rand, n int) {
	t.Helper()
	containers := []string{"netlist", "sched:Create"}
	var ids []string
	for _, c := range containers {
		for _, e := range db.Container(c).Entries() {
			ids = append(ids, e.ID)
		}
	}
	for i := 0; i < n; i++ {
		switch op := rng.Intn(4); {
		case op == 0 && len(ids) >= 2:
			a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if a != b {
				if err := db.Link(a, b); err != nil {
					t.Fatal(err)
				}
			}
		case op == 1 && len(ids) > 0:
			if err := db.SetPayload(ids[rng.Intn(len(ids))], map[string]int{"i": i}); err != nil {
				t.Fatal(err)
			}
		default:
			e := mustPut(t, db, containers[rng.Intn(len(containers))], t0.Add(time.Duration(i)*time.Minute), map[string]int{"op": i})
			ids = append(ids, e.ID)
		}
	}
}

// Property (a): a fork's reads are bit-identical to the parent snapshot it
// branched from.
func TestForkBitIdenticalToParentSnapshot(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		db := newTestDB(t)
		randomOps(t, db, rand.New(rand.NewSource(seed)), 60)

		before := marshal(t, db)
		fork := db.ForkAt(nil)
		if got := marshal(t, fork); got != before {
			t.Fatalf("seed %d: fork serialization differs from parent at fork time", seed)
		}
		if fork.Dump() != db.Dump() {
			t.Fatalf("seed %d: fork dump differs from parent at fork time", seed)
		}
	}
}

// Property (b): parent writes after the fork never appear in the child and
// vice versa.
func TestForkIsolationBothDirections(t *testing.T) {
	db := newTestDB(t)
	rng := rand.New(rand.NewSource(42))
	randomOps(t, db, rng, 40)

	fork := db.ForkAt(nil)
	atFork := marshal(t, fork)

	// Diverge both sides with different deterministic op streams.
	randomOps(t, db, rand.New(rand.NewSource(7)), 40)
	parentAfter := marshal(t, db)
	if marshal(t, fork) != atFork {
		t.Fatal("parent writes leaked into fork")
	}

	randomOps(t, fork, rand.New(rand.NewSource(9)), 40)
	if marshal(t, db) != parentAfter {
		t.Fatal("fork writes leaked into parent")
	}
	if marshal(t, fork) == atFork {
		t.Fatal("fork writes had no effect on fork")
	}

	// A second fork from the parent's new state must not see the first
	// fork's divergence.
	fork2 := db.ForkAt(nil)
	if got := marshal(t, fork2); got != parentAfter {
		t.Fatal("second fork differs from parent state")
	}
}

func TestForkWritesIndependent(t *testing.T) {
	db := newTestDB(t)
	e := mustPut(t, db, "netlist", t0, map[string]string{"who": "parent"})

	fork := db.ForkAt(nil)
	// Same-slot payload swap on both sides with different values.
	if err := db.SetPayload(e.ID, map[string]string{"who": "parent-v2"}); err != nil {
		t.Fatal(err)
	}
	if err := fork.SetPayload(e.ID, map[string]string{"who": "child-v2"}); err != nil {
		t.Fatal(err)
	}
	var pp, cp map[string]string
	if err := db.Get(e.ID).Decode(&pp); err != nil {
		t.Fatal(err)
	}
	if err := fork.Get(e.ID).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	if pp["who"] != "parent-v2" || cp["who"] != "child-v2" {
		t.Fatalf("writes crossed over: parent=%q child=%q", pp["who"], cp["who"])
	}
	// Same-container appends on both sides get the same version number,
	// independently.
	pe := mustPut(t, db, "netlist", t0, nil)
	ce := mustPut(t, fork, "netlist", t0, nil)
	if pe.Version != 2 || ce.Version != 2 {
		t.Fatalf("independent appends: parent v%d, child v%d, want 2 and 2", pe.Version, ce.Version)
	}
}

// Forking must be O(containers): the same number of allocations regardless
// of how many entries the containers hold.
func TestForkAllocsIndependentOfEntryCount(t *testing.T) {
	build := func(entries int) *DB {
		db := NewDB()
		for i := 0; i < 8; i++ {
			if _, err := db.CreateContainer(fmt.Sprintf("c%d", i), ExecutionSpace, "x"); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < entries; j++ {
				if _, err := db.Put(fmt.Sprintf("c%d", i), t0, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		return db
	}
	small, large := build(4), build(400)
	allocs := func(db *DB) float64 {
		return testing.AllocsPerRun(50, func() {
			v := db.Snapshot()
			_ = db.ForkAt(v)
		})
	}
	a, b := allocs(small), allocs(large)
	if a != b {
		t.Fatalf("snapshot+fork allocations scale with entries: %v (4/container) vs %v (400/container)", a, b)
	}
}

// checkDumpParses asserts the Dump text is well-formed: space headers,
// container lines whose every instance label is a valid entry ID with
// optional sorted link sets.
func checkDumpParses(t *testing.T, dump string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(dump, "\n"), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "  ") {
			if line != "execution space:" && line != "schedule space:" {
				t.Fatalf("unexpected header line %q", line)
			}
			continue
		}
		open := strings.IndexByte(line, '[')
		if open < 0 || !strings.HasSuffix(line, "]") {
			t.Fatalf("container line without [..] list: %q", line)
		}
		body := line[open+1 : len(line)-1]
		if body == "" {
			continue
		}
		for _, label := range strings.Fields(body) {
			id, links, _ := strings.Cut(label, "->{")
			if _, _, err := ParseID(id); err != nil {
				t.Fatalf("bad instance label %q in %q: %v", label, line, err)
			}
			if links != "" {
				if !strings.HasSuffix(links, "}") {
					t.Fatalf("unterminated link set in %q", label)
				}
				for _, l := range strings.Split(strings.TrimSuffix(links, "}"), ",") {
					if _, _, err := ParseID(l); err != nil {
						t.Fatalf("bad link target %q in %q: %v", l, label, err)
					}
				}
			}
		}
	}
}

// Satellite: Dump() taken mid-parallel-run parses cleanly — concurrent
// writers cannot tear the text because it is rendered from a Snapshot.
func TestDumpDuringConcurrentWritesParses(t *testing.T) {
	db := newTestDB(t)
	seedA := mustPut(t, db, "netlist", t0, nil)
	seedB := mustPut(t, db, "sched:Create", t0, nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := "netlist"
				if i%2 == 0 {
					c = "sched:Create"
				}
				e, err := db.Put(c, t0, map[string]int{"w": w, "i": i})
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if err := db.Link(e.ID, seedA.ID); err != nil && !strings.Contains(err.Error(), "itself") {
						t.Error(err)
						return
					}
				}
				if i%5 == 0 {
					if err := db.SetPayload(seedB.ID, map[string]int{"i": i}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		checkDumpParses(t, db.Dump())
	}
	close(stop)
	wg.Wait()
	checkDumpParses(t, db.Dump())
}

// Snapshots, forks, stats, and reads racing live writers — the tier-1
// -race pass exercises this.
func TestConcurrentSnapshotsAndForks(t *testing.T) {
	db := newTestDB(t)
	root := mustPut(t, db, "netlist", t0, map[string]int{"v": 0})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Put("netlist", t0, nil, root.ID); err != nil {
				t.Error(err)
				return
			}
			if err := db.SetPayload(root.ID, map[string]int{"v": i}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() { // snapshot/fork readers
			defer wg.Done()
			for i := 0; i < 40; i++ {
				v := db.Snapshot()
				n := v.Container("netlist").Len()
				fork := db.ForkAt(v)
				if got := fork.Container("netlist").Len(); got != n {
					t.Errorf("fork sees %d entries, view has %d", got, n)
					return
				}
				if _, err := fork.Put("netlist", t0, nil); err != nil {
					t.Error(err)
					return
				}
				_ = v.Stats()
				_ = v.Get(root.ID)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	_ = db.Stats()
}

func TestWatermarksAdvanceOnMutation(t *testing.T) {
	db := newTestDB(t)
	c := db.Container("netlist")
	w0 := c.Watermark()
	e := mustPut(t, db, "netlist", t0, nil)
	if c.Watermark() <= w0 {
		t.Fatal("put did not advance watermark")
	}
	w1 := c.Watermark()
	if err := db.SetPayload(e.ID, map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if c.Watermark() <= w1 {
		t.Fatal("payload swap did not advance watermark")
	}
	// Untouched container keeps its watermark; DB version is monotonic.
	if db.Container("sched:Create").Watermark() >= db.Version() && db.Version() == 0 {
		t.Fatal("version accounting broken")
	}
	v := db.Snapshot()
	if v.Version() != db.Version() {
		t.Fatalf("view version %d != db version %d", v.Version(), db.Version())
	}
}

func TestSnapshotReusedUntilVersionMoves(t *testing.T) {
	o := obs.New()
	db := NewDB()
	db.Instrument(o)
	at := time.Date(1995, 6, 5, 9, 0, 0, 0, time.UTC)
	calls := 0
	snap := func() *View { calls++; return db.Snapshot() }
	v := snap()
	if again := snap(); again != v {
		t.Fatal("Snapshot with no mutation between returned a new View")
	}
	var a, b *Entry
	mutations := []struct {
		name string
		fn   func() error
	}{
		{"CreateContainer", func() error {
			_, err := db.CreateContainer("netlist", ExecutionSpace, "netlist")
			return err
		}},
		{"Put", func() (err error) { a, err = db.Put("netlist", at, map[string]int{"n": 1}); return err }},
		{"SetPayload", func() error { return db.SetPayload(a.ID, map[string]int{"n": 2}) }},
		{"Link", func() (err error) {
			if b, err = db.Put("netlist", at, nil); err != nil {
				return err
			}
			v = snap()
			return db.Link(a.ID, b.ID)
		}},
		{"Touch", func() error { db.Touch(); return nil }},
	}
	for _, m := range mutations {
		if err := m.fn(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		next := snap()
		if next == v {
			t.Fatalf("Snapshot after %s returned the View from before it", m.name)
		}
		if next.Version() != db.Version() {
			t.Fatalf("Snapshot after %s at version %d, db at %d", m.name, next.Version(), db.Version())
		}
		if again := snap(); again != next {
			t.Fatalf("Snapshot after %s not reused", m.name)
		}
		v = next
	}
	// A link already present commits nothing, so the View stays.
	if err := db.Link(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if snap() != v {
		t.Fatal("Snapshot after a no-op Link returned a new View")
	}
	if got := o.Metrics().Counter("store_snapshots_total").Value(); got != int64(calls) {
		t.Fatalf("store_snapshots_total = %d, want %d (one per call)", got, calls)
	}
}

func TestReusedSnapshotAllocatesNothing(t *testing.T) {
	db := NewDB()
	for _, n := range []string{"a", "b", "c"} {
		if _, err := db.CreateContainer(n, ExecutionSpace, n); err != nil {
			t.Fatal(err)
		}
	}
	db.Snapshot()
	if allocs := testing.AllocsPerRun(100, func() { db.Snapshot() }); allocs != 0 {
		t.Fatalf("reused Snapshot allocates %v times", allocs)
	}
}
