package store

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// replay applies a recorded mutation stream to an empty database the way
// WAL recovery does.
func replay(t *testing.T, muts []Mutation) *DB {
	t.Helper()
	db := NewDB()
	for _, m := range muts {
		switch m.Kind {
		case MutCreate:
			if _, err := db.CreateContainer(m.Container, m.Space, m.Class); err != nil {
				t.Fatalf("replay create: %v", err)
			}
		case MutPut:
			e := m.Entry
			var payload any
			if raw := e.Payload(); raw != nil {
				payload = raw
			}
			got, err := db.Put(e.Container, e.Created, payload, e.Deps...)
			if err != nil {
				t.Fatalf("replay put: %v", err)
			}
			if got.ID != e.ID {
				t.Fatalf("replay put id = %q, want %q", got.ID, e.ID)
			}
		case MutPayload:
			if err := db.SetPayload(m.ID, m.Payload); err != nil {
				t.Fatalf("replay payload: %v", err)
			}
		case MutLink:
			if err := db.Link(m.A, m.B); err != nil {
				t.Fatalf("replay link: %v", err)
			}
		default:
			t.Fatalf("replay: unknown kind %q", m.Kind)
		}
		if got := db.Version(); got != m.Version {
			t.Fatalf("replay %s: version = %d, want %d", m.Kind, got, m.Version)
		}
	}
	return db
}

// mutate drives one of every mutation shape, including the no-op paths
// that must stay silent on the feed.
func mutate(t *testing.T, db *DB) {
	t.Helper()
	mustCreate := func(name string, sp Space, class string) {
		if _, err := db.CreateContainer(name, sp, class); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate("netlist", ExecutionSpace, "netlist")
	mustCreate("sched:Create", ScheduleSpace, "Create")
	mustCreate("netlist", ExecutionSpace, "netlist") // idempotent: no commit
	if _, err := db.Put("netlist", t0, map[string]int{"gates": 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("sched:Create", t0.Add(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("netlist", t0.Add(2), "v2", "netlist/1"); err != nil {
		t.Fatal(err)
	}
	if err := db.SetPayload("netlist/1", map[string]int{"gates": 150}); err != nil {
		t.Fatal(err)
	}
	if err := db.Link("netlist/1", "sched:Create/1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Link("netlist/1", "sched:Create/1"); err != nil { // no-op: no commit
		t.Fatal(err)
	}
	if err := db.Link("netlist/2", "sched:Create/1"); err != nil {
		t.Fatal(err)
	}
}

func TestCommitFeedReplayIsBitIdentical(t *testing.T) {
	db := NewDB()
	var muts []Mutation
	db.SetCommitHook(func(m Mutation) { muts = append(muts, m) })
	mutate(t, db)

	// Idempotent create and duplicate link committed nothing: 2 creates,
	// 3 puts, 1 payload, 2 links. Each link bumped the version twice (one
	// clone-and-swap per endpoint) but emitted once.
	if len(muts) != 8 {
		t.Fatalf("recorded %d mutations, want 8", len(muts))
	}
	if got := db.Version(); got != 10 {
		t.Fatalf("version = %d, want 10", got)
	}

	got := replay(t, muts)
	if got.Version() != db.Version() {
		t.Fatalf("replayed version = %d, want %d", got.Version(), db.Version())
	}
	a, _ := json.Marshal(stateOf(db))
	b, _ := json.Marshal(stateOf(got))
	if string(a) != string(b) {
		t.Fatalf("replayed database differs:\n%s\nvs\n%s", a, b)
	}
	for _, c := range db.Containers() {
		if rc := got.Container(c.Name); rc == nil || rc.Watermark() != c.Watermark() {
			t.Fatalf("container %q watermark not reproduced", c.Name)
		}
	}
}

func TestCommitFeedVersionsAreCommitted(t *testing.T) {
	db := NewDB()
	var last uint64
	db.SetCommitHook(func(m Mutation) {
		if m.Version <= last {
			t.Fatalf("feed version went %d -> %d", last, m.Version)
		}
		last = m.Version
		if got := db.version; got != m.Version {
			t.Fatalf("feed version %d but db at %d", m.Version, got)
		}
	})
	mutate(t, db)
	if last != db.Version() {
		t.Fatalf("last feed version %d, db version %d", last, db.Version())
	}
}

func TestCommitFeedSilentOnNoOps(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Put("netlist", t0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("sched:Create", t0, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Link("netlist/1", "sched:Create/1"); err != nil {
		t.Fatal(err)
	}
	db.SetCommitHook(func(m Mutation) {
		t.Fatalf("no-op emitted %+v", m)
	})
	if _, err := db.CreateContainer("netlist", ExecutionSpace, "netlist"); err != nil {
		t.Fatal(err)
	}
	if err := db.Link("netlist/1", "sched:Create/1"); err != nil {
		t.Fatal(err)
	}
	db.SetCommitHook(nil)
	if _, err := db.Put("netlist", t0, nil); err != nil { // hook removed
		t.Fatal(err)
	}
}

func TestForkedChildDoesNotInheritHook(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Put("netlist", t0, nil); err != nil {
		t.Fatal(err)
	}
	fired := 0
	db.SetCommitHook(func(Mutation) { fired++ })
	child := db.ForkAt(db.Snapshot())
	before := fired
	if _, err := child.Put("netlist", t0, nil); err != nil {
		t.Fatal(err)
	}
	if fired != before {
		t.Fatal("child mutation reached parent hook")
	}
}

func TestStateRoundTripPreservesIdentity(t *testing.T) {
	db := NewDB()
	mutate(t, db)

	st := stateOf(db)
	// Marshal/unmarshal to prove the checkpoint survives serialization.
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back State
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := FromState(&back)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != db.Version() {
		t.Fatalf("restored version = %d, want %d", got.Version(), db.Version())
	}
	want := db.Containers()
	have := got.Containers()
	if len(want) != len(have) {
		t.Fatalf("container count %d, want %d", len(have), len(want))
	}
	for i, c := range want {
		r := have[i]
		if r.Name != c.Name || r.Space != c.Space || r.Class != c.Class {
			t.Fatalf("container %d mismatch: %+v vs %+v", i, r, c)
		}
		if r.Watermark() != c.Watermark() {
			t.Fatalf("container %q watermark = %d, want %d", c.Name, r.Watermark(), c.Watermark())
		}
		if !reflect.DeepEqual(exportedEntries(r.Entries()), exportedEntries(c.Entries())) {
			t.Fatalf("container %q entries differ", c.Name)
		}
	}

	// Writes to the restored database must not bleed into the original
	// through the aliased entry slices.
	if err := got.SetPayload("netlist/1", "mutated"); err != nil {
		t.Fatal(err)
	}
	if string(db.Get("netlist/1").Payload()) == `"mutated"` {
		t.Fatal("restored-database write visible in original")
	}
}

// exportedEntries copies the exported fields of each entry (ID,
// Container, Version, Created, Deps, Links, Payload), leaving out the
// decoded value, which is not part of an entry's identity.
func exportedEntries(es []*Entry) []Entry {
	out := make([]Entry, len(es))
	for i, e := range es {
		out[i] = *Entry{ID: e.ID, Container: e.Container, Version: e.Version,
			Created: e.Created, Deps: e.Deps, Links: e.Links}.WithPayload(e.Payload())
	}
	return out
}

func TestStateAliasesAreCopyOnWrite(t *testing.T) {
	db := NewDB()
	mutate(t, db)
	st := stateOf(db)
	before := string(st.Containers[0].Entries[0].Payload())
	// Mutating the live database after State must not change the state.
	if err := db.SetPayload("netlist/1", "after-state"); err != nil {
		t.Fatal(err)
	}
	if got := string(st.Containers[0].Entries[0].Payload()); got != before {
		t.Fatalf("checkpoint payload changed after live write: %q -> %q", before, got)
	}
}

func TestFromStateRejectsCorruptStates(t *testing.T) {
	db := NewDB()
	mutate(t, db)
	good, _ := json.Marshal(stateOf(db))

	corrupt := func(name string, f func(*State)) {
		var s State
		if err := json.Unmarshal(good, &s); err != nil {
			t.Fatal(err)
		}
		f(&s)
		if _, err := FromState(&s); err == nil {
			t.Fatalf("%s: corrupt state accepted", name)
		}
	}
	corrupt("duplicate container", func(s *State) {
		s.Containers = append(s.Containers, s.Containers[0])
	})
	corrupt("watermark beyond version", func(s *State) {
		s.Containers[0].Watermark = s.Version + 1
	})
	corrupt("non-dense versions", func(s *State) {
		c := &s.Containers[0]
		e := *c.Entries[len(c.Entries)-1]
		e.Version += 2
		e.ID = fmt.Sprintf("%s/%d", c.Name, e.Version)
		c.Entries = append(c.Entries[:len(c.Entries):len(c.Entries)], &e)
	})
	corrupt("bad entry id", func(s *State) {
		c := &s.Containers[0]
		e := *c.Entries[0]
		e.ID = "elsewhere/1"
		c.Entries = append([]*Entry{&e}, c.Entries[1:]...)
	})
	corrupt("dangling link", func(s *State) {
		c := &s.Containers[0]
		e := *c.Entries[0]
		e.Links = append(append([]string(nil), e.Links...), "ghost/1")
		c.Entries = append([]*Entry{&e}, c.Entries[1:]...)
	})
	corrupt("dangling dep", func(s *State) {
		c := &s.Containers[0]
		e := *c.Entries[0]
		e.Deps = append(append([]string(nil), e.Deps...), "ghost/1")
		c.Entries = append([]*Entry{&e}, c.Entries[1:]...)
	})
	corrupt("entry id with a leading zero", func(s *State) {
		c := &s.Containers[0]
		e := *c.Entries[0]
		e.ID = c.Name + "/01"
		c.Entries = append([]*Entry{&e}, c.Entries[1:]...)
	})
	corrupt("entry id of a longer container", func(s *State) {
		c := &s.Containers[0]
		e := *c.Entries[0]
		e.ID = c.Name + "x/1"
		c.Entries = append([]*Entry{&e}, c.Entries[1:]...)
	})
	if _, err := FromState(nil); err == nil {
		t.Fatal("missing state accepted")
	}
}

// TestFromStateAllocatesPerContainer checks that restoring a state
// allocates per container, not per entry: entry IDs are checked and
// references resolved without building strings or slices.
func TestFromStateAllocatesPerContainer(t *testing.T) {
	allocs := func(entries int) float64 {
		db := NewDB()
		if _, err := db.CreateContainer("netlist", ExecutionSpace, "netlist"); err != nil {
			t.Fatal(err)
		}
		prev := []string{}
		for i := 0; i < entries; i++ {
			e, err := db.Put("netlist", t0, nil, prev...)
			if err != nil {
				t.Fatal(err)
			}
			prev = []string{e.ID}
		}
		st := stateOf(db)
		return testing.AllocsPerRun(20, func() {
			if _, err := FromState(st); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(1000); many > few {
		t.Fatalf("FromState allocates %.0f times for 1000 entries, %.0f for 10", many, few)
	}
}
