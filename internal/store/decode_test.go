package store

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// task is a struct payload shaped like a schedule instance.
type task struct {
	Name      string            `json:"name"`
	Pass      int               `json:"pass"`
	Resources []string          `json:"resources,omitempty"`
	Finish    time.Time         `json:"finish"`
	Notes     map[string]string `json:"notes,omitempty"`
}

// kept reports whether e holds a decoded value.
func kept(e *Entry) bool { return e.value.load() != nil }

// pending reports whether e is lazy and its bytes are not produced yet.
func pending(e *Entry) bool {
	if e.value == nil {
		return false
	}
	h := e.value.v.Load()
	return h != nil && h.lazy && h.raw == nil
}

// newHookedTestDB returns newTestDB's database with a commit hook that
// ignores what it sees: a durable project's database, which marshals
// every payload as it is written.
func newHookedTestDB(t *testing.T) *DB {
	t.Helper()
	db := newTestDB(t)
	db.SetCommitHook(func(Mutation) {})
	return db
}

// liveValues counts the entries of db that hold a decoded value.
func liveValues(db *DB) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, c := range db.containers {
		for _, e := range c.Entries() {
			if kept(e) {
				n++
			}
		}
	}
	return n
}

// checkDecode requires e.Decode into a fresh T to equal a fresh
// json.Unmarshal of e.Payload().
func checkDecode[T any](t *testing.T, e *Entry) {
	t.Helper()
	var got, want T
	if err := e.Decode(&got); err != nil {
		t.Fatalf("%s: Decode: %v", e.ID, err)
	}
	if err := json.Unmarshal(e.Payload(), &want); err != nil {
		t.Fatalf("%s: Unmarshal: %v", e.ID, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Decode = %+v, Unmarshal = %+v", e.ID, got, want)
	}
}

func TestDecodeKeepsPutValue(t *testing.T) {
	db := newHookedTestDB(t)
	in := task{Name: "Create", Pass: 1, Resources: []string{"ann"}, Finish: t0}
	e := mustPut(t, db, "sched:Create", t0, in)
	if !kept(e) {
		t.Fatal("Put of a struct kept no decoded value")
	}
	checkDecode[task](t, e)

	// A pointer payload is copied: the caller may reuse its struct.
	p := &task{Name: "Create", Pass: 2, Finish: t0}
	e2 := mustPut(t, db, "sched:Create", t0, p)
	p.Pass = 99
	var got task
	if err := e2.Decode(&got); err != nil || got.Pass != 2 {
		t.Fatalf("Decode after the caller changed its struct = %+v, %v; want pass 2", got, err)
	}
	if kept(e) {
		t.Fatal("the previous latest entry kept its value after an append")
	}
	checkDecode[task](t, e)
}

func TestDecodeReplacesAndFallsBack(t *testing.T) {
	db := newTestDB(t)
	e := mustPut(t, db, "sched:Create", t0, task{Name: "Create", Pass: 1, Finish: t0})
	// Decode replaces *out; it does not merge into it.
	got := task{Resources: []string{"stale"}, Notes: map[string]string{"k": "v"}}
	if err := e.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Resources != nil || got.Notes != nil {
		t.Fatalf("Decode merged into *out: %+v", got)
	}
	// Another type falls back to JSON, and leaves the kept value alone.
	var m map[string]any
	if err := e.Decode(&m); err != nil || m["name"] != "Create" {
		t.Fatalf("Decode into a map = %v, %v", m, err)
	}
	var other struct {
		Name string `json:"name"`
	}
	if err := e.Decode(&other); err != nil || other.Name != "Create" {
		t.Fatalf("Decode into another struct = %+v, %v", other, err)
	}
	checkDecode[task](t, e)
	if err := e.Decode(task{}); err == nil {
		t.Fatal("Decode into a non-pointer succeeded")
	}
}

// TestRawPayloadKeptAsGiven checks that Put and SetPayload keep a
// json.RawMessage payload — what WAL replay passes — as given instead of
// marshalling it again, and that an empty one is still JSON null.
func TestRawPayloadKeptAsGiven(t *testing.T) {
	db := newTestDB(t)
	raw := json.RawMessage(`{"name": "Create"}`)
	e := mustPut(t, db, "sched:Create", t0, raw)
	if string(e.Payload()) != string(raw) {
		t.Fatalf("Put kept %s, want %s", e.Payload(), raw)
	}
	raw = json.RawMessage(`{"name":  "Route"}`)
	if err := db.SetPayload(e.ID, raw); err != nil {
		t.Fatal(err)
	}
	if got := db.Get(e.ID).Payload(); string(got) != string(raw) {
		t.Fatalf("SetPayload kept %s, want %s", got, raw)
	}
	if err := db.SetPayload(e.ID, json.RawMessage(nil)); err != nil {
		t.Fatal(err)
	}
	if got := db.Get(e.ID).Payload(); string(got) != "null" {
		t.Fatalf("an empty raw payload became %s, want null", got)
	}
}

func TestDecodeFillsUnseededLatest(t *testing.T) {
	db := newTestDB(t)
	raw, _ := json.Marshal(task{Name: "Create", Pass: 1, Finish: t0})
	// A raw payload, as WAL replay writes it, is not seeded.
	e := mustPut(t, db, "sched:Create", t0, json.RawMessage(raw))
	if kept(e) {
		t.Fatal("a json.RawMessage payload was seeded")
	}
	checkDecode[task](t, e)
	if !kept(e) {
		t.Fatal("the first Decode of the latest entry kept nothing")
	}
	checkDecode[task](t, e)

	// Non-struct payloads are never kept.
	m := mustPut(t, db, "netlist", t0, map[string]int{"gates": 1})
	var got map[string]int
	if err := m.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if kept(m) {
		t.Fatal("a map payload was kept")
	}
}

func TestDecodeSkipsInvalidUTF8(t *testing.T) {
	db := newTestDB(t)
	e := mustPut(t, db, "sched:Create", t0, task{Name: "bad\xff", Finish: t0})
	if kept(e) {
		t.Fatal("a payload the encoder rewrites was kept")
	}
	checkDecode[task](t, e)
}

func TestSetPayloadKeepsValueOnlyOnLatest(t *testing.T) {
	db := newHookedTestDB(t)
	first := mustPut(t, db, "sched:Create", t0, task{Name: "Create", Pass: 1})
	second := mustPut(t, db, "sched:Create", t0, task{Name: "Create", Pass: 2})
	if err := db.SetPayload(first.ID, &task{Name: "Create", Pass: 10}); err != nil {
		t.Fatal(err)
	}
	if err := db.SetPayload(second.ID, &task{Name: "Create", Pass: 20}); err != nil {
		t.Fatal(err)
	}
	if kept(db.Get(first.ID)) {
		t.Fatal("SetPayload kept a value on a non-latest entry")
	}
	if !kept(db.Get(second.ID)) {
		t.Fatal("SetPayload kept no value on the latest entry")
	}
	checkDecode[task](t, db.Get(first.ID))
	checkDecode[task](t, db.Get(second.ID))
	// The replaced entry keeps what its views saw.
	var old task
	if err := second.Decode(&old); err != nil || old.Pass != 2 {
		t.Fatalf("replaced entry decodes to %+v, %v; want pass 2", old, err)
	}

	// A Link clone shares the value: the payload is the same.
	mustPut(t, db, "netlist", t0, nil)
	if err := db.Link(second.ID, "netlist/1"); err != nil {
		t.Fatal(err)
	}
	linked := db.Get(second.ID)
	if linked.value == nil || linked.value != db.Snapshot().Get(second.ID).value || !kept(linked) {
		t.Fatal("the link clone does not share the decoded value")
	}
	checkDecode[task](t, linked)
}

// TestDecodedValuesBounded: in a database with a commit hook, after K
// planning passes — an append per container, payload swaps on the new
// entries, and decodes of every entry — at most one decoded value per
// container is live.
func TestDecodedValuesBounded(t *testing.T) {
	db := NewDB()
	db.SetCommitHook(func(Mutation) {})
	const containers, passes = 6, 25
	for c := 0; c < containers; c++ {
		if _, err := db.CreateContainer(fmt.Sprintf("sched:A%d", c), ScheduleSpace, "A"); err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; k <= passes; k++ {
		for c := 0; c < containers; c++ {
			name := fmt.Sprintf("sched:A%d", c)
			e := mustPut(t, db, name, t0, task{Name: name, Pass: k, Resources: []string{"r"}})
			if err := db.SetPayload(e.ID, &task{Name: name, Pass: k, Finish: t0.Add(time.Hour)}); err != nil {
				t.Fatal(err)
			}
			for _, old := range db.Container(name).Entries() {
				var got task
				if err := old.Decode(&got); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := liveValues(db); n > containers {
			t.Fatalf("pass %d: %d live decoded values, want at most %d", k, n, containers)
		}
	}
	if n := liveValues(db); n != containers {
		t.Fatalf("%d live decoded values after %d passes, want one per container (%d)", n, passes, containers)
	}
}

// TestForkAppendKeepsParentValue: a fork appending to a container does
// not retire the parent's latest value; the parent's own append does.
func TestForkAppendKeepsParentValue(t *testing.T) {
	db := newHookedTestDB(t)
	e := mustPut(t, db, "sched:Create", t0, task{Name: "Create", Pass: 1})
	fork := db.ForkAt(nil)
	fork.SetCommitHook(func(Mutation) {})
	own := mustPut(t, fork, "sched:Create", t0, task{Name: "Create", Pass: 2})
	if !kept(e) {
		t.Fatal("a fork's append retired its parent's latest value")
	}
	checkDecode[task](t, e)
	mustPut(t, fork, "sched:Create", t0, task{Name: "Create", Pass: 3})
	if kept(own) {
		t.Fatal("a fork's append kept the value of the fork's own previous latest")
	}
	mustPut(t, db, "sched:Create", t0, task{Name: "Create", Pass: 4})
	if kept(e) {
		t.Fatal("the parent's append kept its previous latest value")
	}
}

func TestFromStateLatestDecodes(t *testing.T) {
	db := newHookedTestDB(t)
	mustPut(t, db, "sched:Create", t0, task{Name: "Create", Pass: 1})
	last := mustPut(t, db, "sched:Create", t0, task{Name: "Create", Pass: 2})
	b, err := json.Marshal(stateOf(db))
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	re, err := FromState(&st)
	if err != nil {
		t.Fatal(err)
	}
	got := re.Get(last.ID)
	if kept(got) {
		t.Fatal("a restored entry was seeded")
	}
	checkDecode[task](t, got)
	if !kept(got) {
		t.Fatal("the restored latest entry kept nothing after a Decode")
	}
	if liveValues(re) > len(re.Containers()) {
		t.Fatal("a restored database keeps more than one value per container")
	}

	// Restoring a live database's own State clones the latest entries
	// instead of changing them.
	live := stateOf(db)
	if _, err := FromState(live); err != nil {
		t.Fatal(err)
	}
	if db.Get(last.ID) != last {
		t.Fatal("FromState replaced an entry of the live database")
	}
}

// TestDecodeRaceWithWrites: View readers decode while a writer appends,
// swaps payloads, links and forks; every decode equals a fresh
// json.Unmarshal of the entry's bytes.
func TestDecodeRaceWithWrites(t *testing.T) {
	db := newTestDB(t)
	root := mustPut(t, db, "netlist", t0, nil)
	mustPut(t, db, "sched:Create", t0, task{Name: "Create"})

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
			e, err := db.Put("sched:Create", t0, task{Name: "Create", Pass: i, Resources: []string{"r"}})
			if err == nil {
				err = db.SetPayload(e.ID, &task{Name: "Create", Pass: -i, Finish: t0})
			}
			if err == nil {
				err = db.Link(e.ID, root.ID)
			}
			if err == nil && i%4 == 0 {
				fork := db.ForkAt(nil)
				_, err = fork.Put("sched:Create", t0, task{Name: "fork", Pass: i})
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() { // readers
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := db.Snapshot()
				es := v.Container("sched:Create").Entries()
				for _, e := range es[max(0, len(es)-3):] {
					var got, want task
					if err := e.Decode(&got); err != nil {
						t.Error(err)
						return
					}
					if err := json.Unmarshal(e.Payload(), &want); err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: Decode = %+v, Unmarshal = %+v", e.ID, got, want)
						return
					}
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}
