package flowsched

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"flowsched/internal/engine"
	"flowsched/internal/persist"
	"flowsched/internal/store"
	"flowsched/internal/vclock"
)

// roundTrip encodes w and decodes it back, with base as the payload
// lookup.
func roundTrip(t *testing.T, w walRecord, base func(string) (json.RawMessage, bool)) walRecord {
	t.Helper()
	kind, body, err := appendRecord(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRecord(&persist.Record{Seq: 1, Kind: kind, Body: body}, base)
	if err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return got
}

// randText mixes plain ASCII with what JSON must escape or carry as
// multi-byte UTF-8.
func randText(r *rand.Rand, n int) string {
	const alphabet = `ab/:-09 "\<>&é日` + "\n\t\x01"
	runes := []rune(alphabet)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(runes[r.Intn(len(runes))])
	}
	return sb.String()
}

func randTime(r *rand.Rand) time.Time {
	return vclock.Epoch.Add(time.Duration(r.Int63n(int64(400 * 24 * time.Hour))))
}

// TestCodecRoundTripRandomMutations drives a real task database with a
// random mix of creates, puts, payload updates, links and touches, and
// requires every committed mutation to encode and decode to an identical
// store.Mutation — the payload deltas decoded against a replica that
// replays them, as recovery does.
func TestCodecRoundTripRandomMutations(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		db, replica := store.NewDB(), store.NewDB()
		base := func(id string) (json.RawMessage, bool) {
			if e := replica.Get(id); e != nil {
				return e.Payload(), true
			}
			return nil, false
		}
		var muts []store.Mutation
		db.SetCommitHook(func(m store.Mutation) { muts = append(muts, m) })
		var ids []string
		containers := []string{"netlist", "sched:Create", "run:Create"}
		for i, c := range containers {
			space := store.ExecutionSpace
			if i == 1 {
				space = store.ScheduleSpace
			}
			if _, err := db.CreateContainer(c, space, "class"+fmt.Sprint(i)); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 200; step++ {
			switch op := r.Intn(10); {
			case op < 4 || len(ids) < 2:
				var deps []string
				for k := r.Intn(3); k > 0 && len(ids) > 0; k-- {
					deps = append(deps, ids[r.Intn(len(ids))])
				}
				var payload any
				if r.Intn(4) > 0 {
					payload = map[string]any{"text": randText(r, r.Intn(40)), "n": r.Intn(1000)}
				}
				e, err := db.Put(containers[r.Intn(len(containers))], randTime(r), payload, deps...)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, e.ID)
			case op < 8:
				var payload any = map[string]any{"text": randText(r, r.Intn(40)), "n": r.Intn(1000)}
				switch r.Intn(4) {
				case 0:
					payload = nil // JSON null
				case 1:
					payload = db.Get(ids[len(ids)-1]).Payload() // identical or from another entry
				}
				if err := db.SetPayload(ids[r.Intn(len(ids))], payload); err != nil {
					t.Fatal(err)
				}
			case op < 9:
				a, b := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
				if a != b {
					if err := db.Link(a, b); err != nil {
						t.Fatal(err)
					}
				}
			default:
				db.Touch()
			}
			for _, m := range muts {
				got := roundTrip(t, walRecord{mut: &m}, base)
				if got.mut == nil || !reflect.DeepEqual(exportedMutation(*got.mut), exportedMutation(m)) {
					t.Fatalf("seed %d: mutation changed in the round trip:\n got %+v\nwant %+v", seed, got.mut, m)
				}
				if err := applyMutation(replica, got.mut); err != nil {
					t.Fatalf("seed %d: replay: %v", seed, err)
				}
			}
			muts = muts[:0]
		}
		if db.Dump() != replica.Dump() || db.Version() != replica.Version() {
			t.Fatalf("seed %d: replica diverged", seed)
		}
	}
}

// exportedMutation returns m with its entry reduced to the exported
// fields (ID, Container, Version, Created, Deps, Links, Payload), which
// are what a record carries; an entry's decoded value is not.
func exportedMutation(m store.Mutation) store.Mutation {
	if e := m.Entry; e != nil {
		m.Entry = store.Entry{ID: e.ID, Container: e.Container, Version: e.Version,
			Created: e.Created, Deps: e.Deps, Links: e.Links}.WithPayload(e.Payload())
	}
	return m
}

// TestCodecRoundTripEventsAndData covers the other record kinds, with
// empty optional fields, text JSON must escape, binary content, and
// times outside UTC or outside int64 nanoseconds.
func TestCodecRoundTripEventsAndData(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	times := []time.Time{
		vclock.Epoch, randTime(r), {},
		time.Date(2300, 1, 2, 3, 4, 5, 6, time.UTC),
		time.Date(1995, 6, 5, 9, 0, 0, 7, time.FixedZone("CEST", 2*3600)),
	}
	sameTime := func(a, b time.Time) bool {
		_, oa := a.Zone()
		_, ob := b.Zone()
		return a.Equal(b) && oa == ob
	}
	for i := 0; i < 200; i++ {
		at := times[i%len(times)]
		if i >= len(times) {
			at = randTime(r)
		}
		e := engine.Event{Kind: engine.EventKind(randText(r, 1+r.Intn(12))), Activity: randText(r, r.Intn(10)), At: at}
		if r.Intn(3) > 0 {
			e.Detail = randText(r, 1+r.Intn(60))
		}
		got := roundTrip(t, walRecord{event: &e}, nil).event
		if got == nil || got.Kind != e.Kind || got.Activity != e.Activity || got.Detail != e.Detail || !sameTime(got.At, e.At) {
			t.Fatalf("event changed in the round trip:\n got %+v\nwant %+v", got, e)
		}
		if i >= len(times) && !reflect.DeepEqual(*got, e) {
			t.Fatalf("UTC event not identical:\n got %#v\nwant %#v", *got, e)
		}

		d := dataPut{Class: randText(r, 1+r.Intn(8)), Created: at}
		if r.Intn(2) == 0 {
			d.Producer = randText(r, 1+r.Intn(12))
		}
		if n := r.Intn(64); n > 0 {
			d.Bytes = make([]byte, n)
			r.Read(d.Bytes)
		}
		gd := roundTrip(t, walRecord{data: &d}, nil).data
		if gd == nil || gd.Class != d.Class || gd.Producer != d.Producer || string(gd.Bytes) != string(d.Bytes) ||
			(gd.Bytes == nil) != (d.Bytes == nil) || !sameTime(gd.Created, d.Created) {
			t.Fatalf("data put changed in the round trip:\n got %+v\nwant %+v", gd, d)
		}
	}
	// Plan records are legacy: they still decode, and none is written.
	got, err := decodeRecord(&persist.Record{Seq: 1, Kind: recPlan, Body: []byte("42")}, nil)
	if err != nil || got.plan != 42 || got.mut != nil || got.event != nil || got.data != nil {
		t.Fatalf("plan record = %+v, %v", got, err)
	}
	if _, _, err := appendRecord(nil, got); err == nil {
		t.Fatal("a plan record was encoded")
	}
}

// TestPayloadDeltaEdgeCases pins the delta at its boundaries and
// requires a delta decoded against the wrong base to fail its CRC
// rather than yield a wrong payload. (A delta that keeps no byte of its
// base, as from an empty payload, decodes right against any base.)
func TestPayloadDeltaEdgeCases(t *testing.T) {
	cases := []struct{ name, prev, next, wrong string }{
		{"empty previous payload", "", `{"a":1}`, `{}`},
		{"new payload a prefix of the old", `{"a":1}xyz`, `{"a":1}`, `{"b":1}xyz`},
		{"overlapping prefix and suffix", "aa", "aaa", "ab"},
		{"identical payloads", `{"a":1}`, `{"a":1}`, `{"a":2}`},
		{"multi-byte runes at the cut", `"日本"`, `"日語"`, `"月本"`},
		{"cut inside a shared leading byte", `"日"`, `"本"`, `'日"`},
	}
	for _, c := range cases {
		m := store.Mutation{Kind: store.MutPayload, Version: 9, ID: "x/1",
			Payload: json.RawMessage(c.next), Prev: json.RawMessage(c.prev)}
		if c.prev == "" {
			m.Prev = nil
		}
		base := func(prev string) func(string) (json.RawMessage, bool) {
			return func(string) (json.RawMessage, bool) {
				if prev == "" {
					return nil, true
				}
				return json.RawMessage(prev), true
			}
		}
		got := roundTrip(t, walRecord{mut: &m}, base(c.prev))
		if !reflect.DeepEqual(*got.mut, m) {
			t.Errorf("%s: got %+v, want %+v", c.name, *got.mut, m)
		}
		kind, body, err := appendRecord(nil, walRecord{mut: &m})
		if err != nil {
			t.Fatal(err)
		}
		if w, err := decodeRecord(&persist.Record{Kind: kind, Body: body}, base(c.wrong)); err == nil && string(w.mut.Payload) != c.next {
			t.Errorf("%s: delta %s decoded against the wrong base %q to %q", c.name, body, c.wrong, w.mut.Payload)
		} else if err == nil && c.prev != "" {
			t.Errorf("%s: delta %s decoded against the wrong base %q", c.name, body, c.wrong)
		}
	}
	// The delta of an unchanged payload carries no payload bytes.
	_, body, _ := appendRecord(nil, walRecord{mut: &store.Mutation{Kind: store.MutPayload, Version: 3, ID: "x/1",
		Payload: json.RawMessage(`{"a":1}`), Prev: json.RawMessage(`{"a":1}`)}})
	if !strings.Contains(string(body), `,7,0,"",`) {
		t.Errorf("identical payloads encode as %s", body)
	}
}
