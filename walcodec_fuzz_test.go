package flowsched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"flowsched/internal/persist"
	"flowsched/internal/store"
)

// fuzzBase is FuzzDecodeRecord's payload lookup: every entry's current
// payload is the same document.
func fuzzBase(string) (json.RawMessage, bool) {
	return json.RawMessage(`{"state":"planned","text":"é日 \"q\""}`), true
}

// FuzzDecodeRecord fuzzes decodeRecord over an arbitrary kind byte and
// body. It must never panic, and every record it accepts, other than a
// legacy plan record (which no writer emits), must re-encode through
// appendRecord and decode back to an equal walRecord. The
// re-decode looks payload deltas up against the payload the accepted
// record says it replaced, which is fuzzBase's for a version-2 record
// and the record's own for a version-1 one.
//
// Seeds: the records of a version-2 segment written by a durable
// project, the version-1 records of testdata/v1/durable, payload
// deltas against fuzzBase, and escape-heavy bodies.
func FuzzDecodeRecord(f *testing.F) {
	v2 := f.TempDir()
	p, err := Open(v2, Fig4Schema, Options{Designer: "ewj"}, PersistOptions{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	if err := p.UseSimulatedTools(); err != nil {
		f.Fatal(err)
	}
	if _, err := p.Import("stimuli", []byte("pulse 0 5 1ns")); err != nil {
		f.Fatal(err)
	}
	est := Fixed{ByActivity: map[string]time.Duration{"Create": 16 * time.Hour, "Simulate": 8 * time.Hour}}
	if _, err := p.Plan([]string{"performance"}, est, PlanOptions{}); err != nil {
		f.Fatal(err)
	}
	if _, err := p.Run([]string{"performance"}, true); err != nil {
		f.Fatal(err)
	}
	if err := p.Close(); err != nil {
		f.Fatal(err)
	}
	v1 := f.TempDir()
	for _, name := range []string{"manifest.json", "checkpoint.json", "wal-0000000000000049.seg"} {
		b, err := os.ReadFile(filepath.Join("testdata", "v1", "durable", name))
		if err != nil {
			f.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(v1, name), b, 0o644); err != nil {
			f.Fatal(err)
		}
	}
	for _, dir := range []string{v2, v1} {
		l, err := persist.Open(dir, persist.Options{NoSync: true})
		if err != nil {
			f.Fatal(err)
		}
		if _, err := l.Replay(func(r *persist.Record) error {
			f.Add(byte(r.Kind), bytes.Clone(r.Body))
			return nil
		}); err != nil {
			f.Fatal(err)
		}
		l.Close()
	}
	prev, _ := fuzzBase("")
	for _, next := range []string{`{"state":"done","text":"é日 \"q\""}`, `{}`, `null`, ``, `{"state":"planned","text":"é日 \"q\"","n":1}`} {
		kind, body, err := appendRecord(nil, walRecord{mut: &store.Mutation{
			Kind: store.MutPayload, Version: 9, ID: "sched:Create/1", Payload: json.RawMessage(next), Prev: prev,
		}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(byte(kind), body)
	}
	// Escape-heavy bodies: surrogate pairs, a lone surrogate, an escaped
	// solidus and U+2028/U+2029, in strings and in a verbatim payload.
	for kind, body := range map[persist.RecordKind]string{
		recEvent:  `["run-failed","Create",1,"\ud83d\ude00 \/ \u2028 \ud800 \u00e9 \"q\""]`,
		recCreate: `[3,"sched:\u0043reate","sched\/x","Create\u2029"]`,
		recPut:    `[4,"run:\ud834\udd1e/1",5,["a\/b/1"],{"t":"\ud83d\ude00\u2028\/"}]`,
		recLink:   `[6,"a\"b/1","\\c\udc00/2"]`,
	} {
		f.Add(byte(kind), []byte(body))
	}

	f.Fuzz(func(t *testing.T, kind byte, body []byte) {
		w, err := decodeRecord(&persist.Record{Seq: 1, Kind: persist.RecordKind(kind), Body: body}, fuzzBase)
		if err != nil || w.mut == nil && w.data == nil && w.event == nil {
			return // rejected, or a legacy plan record, which only decodes
		}
		k2, b2, err := appendRecord(nil, w)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v\n%+v", err, w)
		}
		replaced := func(string) (json.RawMessage, bool) {
			if w.mut == nil {
				return nil, false
			}
			return w.mut.Prev, true
		}
		got, err := decodeRecord(&persist.Record{Seq: 1, Kind: k2, Body: b2}, replaced)
		if err != nil {
			t.Fatalf("re-encoded record %s does not decode: %v", b2, err)
		}
		if diff := recordDiff(w, got); diff != "" {
			t.Fatalf("round trip through %s changed the record: %s", b2, diff)
		}
	})
}

// recordDiff describes the first difference between two records, or
// returns "". Times are equal when they are the same instant at the same
// offset, and byte content is equal when it holds the same bytes.
func recordDiff(a, b walRecord) string {
	sameTime := func(x, y time.Time) bool {
		return x.Equal(y) && x.Format(time.RFC3339Nano) == y.Format(time.RFC3339Nano)
	}
	switch {
	case (a.mut == nil) != (b.mut == nil), (a.data == nil) != (b.data == nil), (a.event == nil) != (b.event == nil):
		return fmt.Sprintf("record kinds differ: %+v vs %+v", a, b)
	case a.event != nil:
		x, y := *a.event, *b.event
		if x.Kind != y.Kind || x.Activity != y.Activity || x.Detail != y.Detail || !sameTime(x.At, y.At) {
			return fmt.Sprintf("event %+v vs %+v", x, y)
		}
	case a.data != nil:
		x, y := a.data, b.data
		if x.Class != y.Class || x.Producer != y.Producer || !bytes.Equal(x.Bytes, y.Bytes) || !sameTime(x.Created, y.Created) {
			return fmt.Sprintf("data %+v vs %+v", *x, *y)
		}
	case a.mut != nil:
		x, y := *a.mut, *b.mut
		if !bytes.Equal(x.Payload, y.Payload) || !bytes.Equal(x.Prev, y.Prev) {
			return fmt.Sprintf("payload %q (prev %q) vs %q (prev %q)", x.Payload, x.Prev, y.Payload, y.Prev)
		}
		if (x.Entry == nil) != (y.Entry == nil) {
			return fmt.Sprintf("entry %+v vs %+v", x.Entry, y.Entry)
		}
		if x.Entry != nil {
			e, f := *x.Entry, *y.Entry
			if e.ID != f.ID || e.Container != f.Container || e.Version != f.Version || !sameTime(e.Created, f.Created) ||
				!slices.Equal(e.Deps, f.Deps) || !slices.Equal(e.Links, f.Links) || !bytes.Equal(e.Payload(), f.Payload()) {
				return fmt.Sprintf("entry %+v vs %+v", e, f)
			}
		}
		x.Payload, x.Prev, x.Entry = nil, nil, nil
		y.Payload, y.Prev, y.Entry = nil, nil, nil
		if !reflect.DeepEqual(x, y) {
			return fmt.Sprintf("mutation %+v vs %+v", x, y)
		}
	}
	return ""
}
