package store

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(1995, time.June, 5, 9, 0, 0, 0, time.UTC)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if _, err := db.CreateContainer("netlist", ExecutionSpace, "netlist"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateContainer("sched:Create", ScheduleSpace, "Create"); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateContainer(t *testing.T) {
	db := newTestDB(t)
	if db.Container("netlist") == nil {
		t.Fatal("container missing")
	}
	// Idempotent identical redefinition.
	if _, err := db.CreateContainer("netlist", ExecutionSpace, "netlist"); err != nil {
		t.Fatalf("idempotent create failed: %v", err)
	}
	// Mismatching redefinition rejected.
	if _, err := db.CreateContainer("netlist", ScheduleSpace, "netlist"); err == nil {
		t.Fatal("space-changing redefinition accepted")
	}
	if _, err := db.CreateContainer("", ExecutionSpace, "x"); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := db.CreateContainer("a/b", ExecutionSpace, "x"); err == nil {
		t.Fatal("slash in name accepted")
	}
}

func TestPutAssignsDenseVersions(t *testing.T) {
	db := newTestDB(t)
	for i := 1; i <= 3; i++ {
		e, err := db.Put("netlist", t0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if e.Version != i {
			t.Fatalf("version = %d, want %d", e.Version, i)
		}
		if e.ID != fmt.Sprintf("netlist/%d", i) {
			t.Fatalf("ID = %q", e.ID)
		}
	}
	if got := db.Container("netlist").Latest().Version; got != 3 {
		t.Fatalf("Latest = %d", got)
	}
}

func TestPutUnknownContainer(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Put("nope", t0, nil); err == nil {
		t.Fatal("Put to unknown container accepted")
	}
}

func TestPutDepsChecked(t *testing.T) {
	db := newTestDB(t)
	e1, _ := db.Put("netlist", t0, nil)
	e2, err := db.Put("netlist", t0, nil, e1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(e2.Deps) != 1 || e2.Deps[0] != e1.ID {
		t.Fatalf("Deps = %v", e2.Deps)
	}
	if _, err := db.Put("netlist", t0, nil, "ghost/1"); err == nil {
		t.Fatal("dangling dep accepted")
	}
}

type payload struct {
	Who   string `json:"who"`
	Hours int    `json:"hours"`
}

func TestPayloadRoundTrip(t *testing.T) {
	db := newTestDB(t)
	e, err := db.Put("sched:Create", t0, payload{Who: "ejohnson", Hours: 16})
	if err != nil {
		t.Fatal(err)
	}
	var p payload
	if err := db.Get(e.ID).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Who != "ejohnson" || p.Hours != 16 {
		t.Fatalf("payload = %+v", p)
	}
	// Update payload in place.
	p.Hours = 24
	if err := db.SetPayload(e.ID, p); err != nil {
		t.Fatal(err)
	}
	var p2 payload
	db.Get(e.ID).Decode(&p2)
	if p2.Hours != 24 {
		t.Fatalf("updated payload = %+v", p2)
	}
	if err := db.SetPayload("ghost/1", p); err == nil {
		t.Fatal("SetPayload on missing entry accepted")
	}
}

func TestDecodeEmptyPayload(t *testing.T) {
	db := newTestDB(t)
	e, _ := db.Put("netlist", t0, nil)
	var p payload
	if err := e.Decode(&p); err == nil {
		t.Fatal("Decode of empty payload succeeded")
	}
}

func TestLink(t *testing.T) {
	db := newTestDB(t)
	n, _ := db.Put("netlist", t0, nil)
	s, _ := db.Put("sched:Create", t0, nil)
	if err := db.Link(s.ID, n.ID); err != nil {
		t.Fatal(err)
	}
	if !db.Linked(s.ID, n.ID) || !db.Linked(n.ID, s.ID) {
		t.Fatal("link not bidirectional")
	}
	// Idempotent.
	if err := db.Link(s.ID, n.ID); err != nil {
		t.Fatal(err)
	}
	if len(db.Get(s.ID).Links) != 1 {
		t.Fatalf("duplicate link stored: %v", db.Get(s.ID).Links)
	}
	if err := db.Link(s.ID, s.ID); err == nil {
		t.Fatal("self link accepted")
	}
	if err := db.Link(s.ID, "ghost/1"); err == nil {
		t.Fatal("dangling link accepted")
	}
	if err := db.Link("ghost/1", s.ID); err == nil {
		t.Fatal("dangling link accepted")
	}
	if db.Linked("ghost/1", s.ID) {
		t.Fatal("Linked true for missing entry")
	}
}

func TestContainersInAndStats(t *testing.T) {
	db := newTestDB(t)
	db.Put("netlist", t0, nil)
	db.Put("netlist", t0, nil)
	db.Put("sched:Create", t0, nil)
	if got := len(db.ContainersIn(ExecutionSpace)); got != 1 {
		t.Fatalf("execution containers = %d", got)
	}
	st := db.Stats()
	if st[ExecutionSpace].Instances != 2 || st[ScheduleSpace].Instances != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestParseID(t *testing.T) {
	c, v, err := ParseID("sched:Create/7")
	if err != nil || c != "sched:Create" || v != 7 {
		t.Fatalf("ParseID = %q %d %v", c, v, err)
	}
	for _, bad := range []string{"noversion", "x/", "x/0", "x/-1", "x/abc"} {
		if _, _, err := ParseID(bad); err == nil {
			t.Errorf("ParseID(%q) accepted", bad)
		}
	}
}

// stateOf captures db as a State from a Snapshot, as the project image
// encoder reads it: the mutation counter, then every container in
// creation order with its watermark and entries.
func stateOf(db *DB) *State {
	v := db.Snapshot()
	st := &State{Version: v.Version()}
	for _, c := range v.Containers() {
		st.Containers = append(st.Containers, ContainerState{
			Name: c.Name, Space: c.Space, Class: c.Class,
			Watermark: c.Watermark(), Entries: c.Entries(),
		})
	}
	return st
}

func TestSnapshotRestore(t *testing.T) {
	db := newTestDB(t)
	n1, _ := db.Put("netlist", t0, payload{Who: "a", Hours: 1})
	n2, _ := db.Put("netlist", t0.Add(time.Hour), nil, n1.ID)
	s1, _ := db.Put("sched:Create", t0, nil)
	db.Link(s1.ID, n2.ID)

	blob, err := json.Marshal(stateOf(db))
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	re, err := FromState(&st)
	if err != nil {
		t.Fatal(err)
	}
	if re.Get("netlist/2") == nil || !re.Linked("sched:Create/1", "netlist/2") {
		t.Fatalf("restore lost data:\n%s", re.Dump())
	}
	var p payload
	if err := re.Get("netlist/1").Decode(&p); err != nil || p.Who != "a" {
		t.Fatalf("restored payload = %+v, %v", p, err)
	}
	// Round trip is stable.
	blob2, _ := json.Marshal(stateOf(re))
	if string(blob) != string(blob2) {
		t.Fatal("state not stable across restore")
	}
}

func TestDump(t *testing.T) {
	db := newTestDB(t)
	n, _ := db.Put("netlist", t0, nil)
	s, _ := db.Put("sched:Create", t0, nil)
	db.Link(s.ID, n.ID)
	d := db.Dump()
	for _, want := range []string{"execution space:", "schedule space:", "netlist/1", "sched:Create/1", "->{netlist/1}"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
}

func TestConcurrentPut(t *testing.T) {
	db := newTestDB(t)
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := db.Put("netlist", t0, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c := db.Container("netlist")
	if c.Len() != workers*each {
		t.Fatalf("entries = %d, want %d", c.Len(), workers*each)
	}
	seen := make(map[int]bool)
	for _, e := range c.Entries() {
		if seen[e.Version] {
			t.Fatalf("duplicate version %d", e.Version)
		}
		seen[e.Version] = true
	}
}

// Property: versions stay dense and IDs parse back to (container, version)
// under arbitrary interleavings of puts across containers.
func TestDenseVersionsProperty(t *testing.T) {
	f := func(ops []bool) bool {
		db := newTestDB(t)
		counts := map[string]int{}
		for _, op := range ops {
			name := "netlist"
			if op {
				name = "sched:Create"
			}
			e, err := db.Put(name, t0, nil)
			if err != nil {
				return false
			}
			counts[name]++
			c, v, err := ParseID(e.ID)
			if err != nil || c != name || v != counts[name] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
