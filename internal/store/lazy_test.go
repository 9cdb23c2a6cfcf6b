package store

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// rich is a plain payload with every kind marshalsPlainly walks.
type rich struct {
	Name   string            `json:"name"`
	Status status            `json:"status"`
	Ratio  float64           `json:"ratio"`
	Small  float32           `json:"small,omitempty"`
	Count  uint16            `json:"count"`
	Blob   []byte            `json:"blob,omitempty"`
	Pair   [2]string         `json:"pair"`
	Sub    *task             `json:"sub,omitempty"`
	Tags   map[string][]int  `json:"tags,omitempty"`
	Times  []time.Time       `json:"times,omitempty"`
	Notes  map[string]string `json:"notes,omitempty"`
	hidden chan int
}

type status string

// ptrMarshaler writes a different JSON form when marshalled through a
// pointer: its MarshalJSON has a pointer receiver.
type ptrMarshaler struct {
	Name string `json:"name"`
}

func (p *ptrMarshaler) MarshalJSON() ([]byte, error) {
	return json.Marshal("via pointer: " + p.Name)
}

// valMarshaler has a value-receiver MarshalJSON.
type valMarshaler struct {
	Name string `json:"name"`
}

func (v valMarshaler) MarshalJSON() ([]byte, error) {
	return json.Marshal("via value: " + v.Name)
}

// lazyPayloads is one of each payload shape a writer may pass, with
// whether a database without a commit hook leaves its bytes for later:
// the plain structs (and time.Time) do, while a struct with a
// MarshalJSON of its own, a map, raw JSON, a string and a struct holding
// a time that would not decode back as it was (another zone, a
// monotonic clock reading) are marshalled at once.
func lazyPayloads() ([]any, []bool) {
	sub := &task{Name: "Route", Pass: 3, Finish: t0.Add(time.Hour), Notes: map[string]string{"z": "1", "a": "<&>"}}
	r := rich{
		Name: "Create \"quoted\"\n", Status: "done", Ratio: 0.1, Small: 1.5, Count: 7,
		Blob: []byte{0, 1, 0xff}, Pair: [2]string{"a", "é"}, Sub: sub,
		Tags:  map[string][]int{"b": {2}, "a": {1, 3}},
		Times: []time.Time{t0, {}},
	}
	return []any{
			task{Name: "Create", Pass: 1, Resources: []string{"ann"}, Finish: t0},
			&task{Name: "Create", Pass: 2, Notes: map[string]string{"k": "v"}},
			r, &r,
			t0,
			struct{}{},
			ptrMarshaler{"a"}, &ptrMarshaler{"b"},
			valMarshaler{"c"}, &valMarshaler{"d"},
			map[string]int{"gates": 1},
			json.RawMessage(`{"raw":true}`),
			"text",
			task{Finish: t0.In(time.FixedZone("X", 3600))},
			task{Finish: time.Now()},
		}, []bool{
			true, true, true, true, true, true,
			false, false, false, false, false, false, false, false, false,
		}
}

// TestLazyBytesEqualEagerMarshal: every payload written to a database
// without a commit hook produces, on demand, exactly the bytes
// json.Marshal gave at write time — which is what a database with a
// hook keeps — and a struct payload waits until asked.
func TestLazyBytesEqualEagerMarshal(t *testing.T) {
	lazy, eager := newTestDB(t), newHookedTestDB(t)
	payloads, lazily := lazyPayloads()
	for i, payload := range payloads {
		want, err := marshalPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		l := mustPut(t, lazy, "sched:Create", t0, payload)
		e := mustPut(t, eager, "sched:Create", t0, payload)
		if pending(l) != lazily[i] {
			t.Errorf("payload %d (%T): pending = %v, want %v", i, payload, pending(l), lazily[i])
		}
		if pending(e) {
			t.Errorf("payload %d (%T): a hooked database left the bytes for later", i, payload)
		}
		if got := string(l.Payload()); got != string(want) || string(e.Payload()) != got {
			t.Errorf("payload %d (%T): lazy %s, eager %s, marshal at write %s", i, payload, got, e.Payload(), want)
		}
		if pending(l) {
			t.Errorf("payload %d (%T): still pending after Payload", i, payload)
		}

		// The same through SetPayload, on the latest and an older entry.
		for _, id := range []string{l.ID, "sched:Create/1"} {
			if err := lazy.SetPayload(id, payload); err != nil {
				t.Fatal(err)
			}
			if got := lazy.Get(id).Payload(); string(got) != string(want) {
				t.Errorf("payload %d (%T): SetPayload(%s) produced %s, want %s", i, payload, id, got, want)
			}
		}
	}
}

// TestLazyStateJSONEqualsEager: a State's entry JSON is the same whether
// its database marshalled each payload at write time or on demand.
func TestLazyStateJSONEqualsEager(t *testing.T) {
	lazy, eager := newTestDB(t), newHookedTestDB(t)
	payloads, _ := lazyPayloads()
	for _, payload := range payloads {
		mustPut(t, lazy, "sched:Create", t0, payload)
		mustPut(t, eager, "sched:Create", t0, payload)
	}
	a, err := json.Marshal(stateOf(lazy))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(stateOf(eager))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("state JSON of a lazy database differs from the eager one:\n%s\nvs\n%s", a, b)
	}
	var st State
	if err := json.Unmarshal(a, &st); err != nil {
		t.Fatal(err)
	}
	for i, e := range st.Containers[1].Entries {
		if want := eager.Container("sched:Create").At(i).Payload(); string(e.Payload()) != string(want) {
			t.Fatalf("entry %s decoded with payload %s, want %s", e.ID, e.Payload(), want)
		}
	}
}

// TestLazyMutateAfterPut: the writer's struct may change after a Put or
// SetPayload — a pointer payload is copied, a value payload is a copy
// already — without changing the bytes produced later.
func TestLazyMutateAfterPut(t *testing.T) {
	db := newTestDB(t)
	p := &task{Name: "Create", Pass: 2, Resources: []string{"ann"}}
	e := mustPut(t, db, "sched:Create", t0, p)
	v := task{Name: "Create", Pass: 3}
	e2 := mustPut(t, db, "sched:Create", t0, v)
	if err := db.SetPayload(e.ID, p); err != nil {
		t.Fatal(err)
	}
	e1 := db.Get(e.ID)
	want1, _ := json.Marshal(p)
	want2, _ := json.Marshal(v)
	p.Pass, p.Name, p.Resources = 99, "changed", []string{"bob"}
	v.Pass, v.Notes = 99, map[string]string{"k": "v"}
	if !pending(e) || !pending(e1) || !pending(e2) {
		t.Fatal("the entries produced their bytes before being asked")
	}
	for _, c := range []struct {
		e    *Entry
		want []byte
	}{{e, want1}, {e1, want1}, {e2, want2}} {
		if got := c.e.Payload(); string(got) != string(c.want) {
			t.Errorf("%s: bytes after the writer changed its struct = %s, want %s", c.e.ID, got, c.want)
		}
		checkDecode[task](t, c.e)
	}
}

// TestLazyInvalidUTF8DecodesAsDurable: a string that is not valid UTF-8
// — in a field, a slice or a map key — decodes from a fork exactly as
// from its durable parent, where the bytes hold \ufffd and no value is
// kept.
func TestLazyInvalidUTF8DecodesAsDurable(t *testing.T) {
	for _, in := range []task{
		{Name: "bad\xff", Finish: t0},
		{Name: "ok", Resources: []string{"\xfe"}},
		{Name: "ok", Notes: map[string]string{"k\xfd": "v"}},
	} {
		durable := newHookedTestDB(t)
		mustPut(t, durable, "sched:Create", t0, task{Name: "Create"})
		fork := durable.ForkAt(nil)
		var got [2]task
		for i, db := range []*DB{durable, fork} {
			e := mustPut(t, db, "sched:Create", t0, in)
			if kept(e) {
				t.Fatalf("db %d kept a value the encoder rewrites: %+v", i, in)
			}
			if err := e.Decode(&got[i]); err != nil {
				t.Fatal(err)
			}
			checkDecode[task](t, e)
		}
		if !reflect.DeepEqual(got[0], got[1]) || reflect.DeepEqual(got[1], in) {
			t.Fatalf("fork decodes %+v, durable %+v", got[1], got[0])
		}
		if a, b := durable.Get("sched:Create/2").Payload(), fork.Get("sched:Create/2").Payload(); string(a) != string(b) {
			t.Fatalf("fork bytes %s, durable %s", b, a)
		}
	}
}

// TestLazyMarshalErrorsSurface: a payload json.Marshal refuses is refused
// by Put and SetPayload with the same error whether or not the database
// has a commit hook.
func TestLazyMarshalErrorsSurface(t *testing.T) {
	for _, payload := range []any{
		rich{Ratio: math.NaN()},
		&rich{Small: float32(math.Inf(1))},
		rich{Sub: &task{Finish: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}},
		task{Finish: t0.In(time.FixedZone("far", 25*3600))},
		struct{ C chan int }{},
		struct{ F func() }{},
		struct{ X any }{X: math.NaN()},
	} {
		var errs [2]string
		for i, db := range []*DB{newTestDB(t), newHookedTestDB(t)} {
			_, err := db.Put("sched:Create", t0, payload)
			if err == nil {
				t.Fatalf("db %d: Put(%#v) succeeded", i, payload)
			}
			e := mustPut(t, db, "sched:Create", t0, task{Name: "ok"})
			if err := db.SetPayload(e.ID, payload); err == nil || err.Error() != fmt.Sprintf("store: marshal payload for %s: %v", e.ID, errorsCause(err)) {
				t.Fatalf("db %d: SetPayload(%#v) = %v", i, payload, err)
			}
			errs[i] = err.Error()
		}
		if errs[0] != errs[1] {
			t.Fatalf("hookless error %q, hooked %q", errs[0], errs[1])
		}
	}
}

// errorsCause returns what err wraps.
func errorsCause(err error) error {
	if u, ok := err.(interface{ Unwrap() error }); ok {
		return u.Unwrap()
	}
	return err
}

// TestLazyValuesBounded: a database without a commit hook keeps one
// decoded value per container, plus one per entry whose bytes were never
// produced; producing them brings it back to one per container.
func TestLazyValuesBounded(t *testing.T) {
	db := NewDB()
	const containers, passes = 6, 25
	for c := 0; c < containers; c++ {
		if _, err := db.CreateContainer(fmt.Sprintf("sched:A%d", c), ScheduleSpace, "A"); err != nil {
			t.Fatal(err)
		}
	}
	pendingEntries := func() int {
		n := 0
		for _, c := range db.Containers() {
			for _, e := range c.Entries() {
				if pending(e) {
					n++
				}
			}
		}
		return n
	}
	for k := 1; k <= passes; k++ {
		for c := 0; c < containers; c++ {
			name := fmt.Sprintf("sched:A%d", c)
			e := mustPut(t, db, name, t0, task{Name: name, Pass: k, Resources: []string{"r"}})
			if err := db.SetPayload(e.ID, &task{Name: name, Pass: k, Finish: t0.Add(time.Hour)}); err != nil {
				t.Fatal(err)
			}
			for i, old := range db.Container(name).Entries() {
				var got task
				if err := old.Decode(&got); err != nil || got.Pass != i+1 {
					t.Fatalf("%s decodes to %+v, %v", old.ID, got, err)
				}
			}
			if k%5 == 0 { // something asks for the bytes now and then
				db.Get(e.ID).Payload()
			}
		}
		if n, p := liveValues(db), pendingEntries(); n > containers+p {
			t.Fatalf("pass %d: %d live decoded values, want at most %d (one per container plus %d pending)", k, n, containers+p, p)
		}
	}
	for _, c := range db.Containers() {
		for _, e := range c.Entries() {
			e.Payload()
		}
	}
	if n := liveValues(db); n != containers {
		t.Fatalf("%d live decoded values once every entry has its bytes, want one per container (%d)", n, containers)
	}
	for _, c := range db.Containers() {
		checkDecode[task](t, c.Latest())
		checkDecode[task](t, c.At(0))
	}
}

// TestLazyMaterializeRace: View readers produce bytes and decode, and
// State is marshalled, while a writer appends, swaps payloads and links
// in a database without a commit hook. Every entry's bytes equal a
// marshal of what it decodes to, and a State marshalled twice is the
// same. Run it with -race.
func TestLazyMaterializeRace(t *testing.T) {
	db := newTestDB(t)
	root := mustPut(t, db, "netlist", t0, nil)
	mustPut(t, db, "sched:Create", t0, task{Name: "Create"})

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		for i := 1; i <= 200; i++ {
			e, err := db.Put("sched:Create", t0, task{Name: "Create", Pass: i, Resources: []string{"r"}})
			if err == nil {
				err = db.SetPayload(e.ID, &task{Name: "Create", Pass: -i, Finish: t0, Notes: map[string]string{"i": fmt.Sprint(i)}})
			}
			if err == nil && i%2 == 0 {
				err = db.Link(e.ID, root.ID)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	read := func(r int) bool {
		if r == 0 {
			st := stateOf(db)
			a, err := json.Marshal(st)
			if err != nil {
				t.Error(err)
				return false
			}
			if b, _ := json.Marshal(st); string(a) != string(b) {
				t.Error("a State marshalled twice differs")
				return false
			}
			return true
		}
		es := db.Snapshot().Container("sched:Create").Entries()
		for _, e := range es[max(0, len(es)-4):] {
			var got task
			if err := e.Decode(&got); err != nil {
				t.Error(err)
				return false
			}
			if want, _ := json.Marshal(got); string(e.Payload()) != string(want) {
				t.Errorf("%s: bytes %s, decoded value marshals to %s", e.ID, e.Payload(), want)
				return false
			}
		}
		return true
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() { // readers
			defer wg.Done()
			for {
				select {
				case <-done:
					read(r)
					return
				default:
				}
				if !read(r) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCommitHookDecidesLaziness: whether a write leaves its bytes for
// later follows the commit hook at the time of the write, both ways, and
// a hook always sees the bytes.
func TestCommitHookDecidesLaziness(t *testing.T) {
	db := newTestDB(t)
	in := task{Name: "Create", Pass: 1}
	want, _ := json.Marshal(in)
	if e := mustPut(t, db, "sched:Create", t0, in); !pending(e) {
		t.Fatal("a write without a hook produced its bytes")
	}
	var seen []string
	db.SetCommitHook(func(m Mutation) {
		if m.Kind == MutPut {
			seen = append(seen, string(m.Entry.Payload()))
		} else {
			seen = append(seen, string(m.Payload))
		}
	})
	e := mustPut(t, db, "sched:Create", t0, in)
	if err := db.SetPayload("sched:Create/1", &in); err != nil {
		t.Fatal(err)
	}
	if pending(e) || pending(db.Get("sched:Create/1")) {
		t.Fatal("a write with a hook left its bytes for later")
	}
	if len(seen) != 2 || seen[0] != string(want) || seen[1] != string(want) {
		t.Fatalf("the hook saw %q, want the bytes %s twice", seen, want)
	}
	db.SetCommitHook(nil)
	if e := mustPut(t, db, "sched:Create", t0, in); !pending(e) {
		t.Fatal("a write after the hook was removed produced its bytes")
	}
}
