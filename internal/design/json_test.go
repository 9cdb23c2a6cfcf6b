package design

import (
	"encoding/json"
	"strings"
	"testing"
	"unicode/utf8"
)

// stateOf captures s as a State from its Chains, as the image encoder
// reads it: valid UTF-8 content as Text, anything else as Bytes.
func stateOf(s *Store) *State {
	chains := s.Chains()
	st := &State{Classes: make(map[string][]ObjectState, len(chains))}
	for class, chain := range chains {
		objs := make([]ObjectState, len(chain))
		for i, o := range chain {
			objs[i] = ObjectState{
				Version: o.Ref.Version, Sum: o.Ref.Sum,
				Created: o.Created, Producer: o.Producer, Bytes: o.Bytes,
			}
			if utf8.Valid(o.Bytes) {
				objs[i].Text, objs[i].Bytes = string(o.Bytes), nil
			}
		}
		st.Classes[class] = objs
	}
	return st
}

// jsonRoundTrip restores a store from the JSON of its State.
func jsonRoundTrip(blob []byte) (*Store, error) {
	var st State
	if err := json.Unmarshal(blob, &st); err != nil {
		return nil, err
	}
	return FromState(&st)
}

func TestStoreJSONRoundTrip(t *testing.T) {
	s := NewStore()
	r1, _ := s.Put("netlist", []byte("rev 1\x00binary\xff"), "Create/1", t0)
	s.Put("netlist", []byte("rev 2"), "Create/2", t0)
	s.Put("stimuli", []byte("vectors"), "", t0)
	s.Put("empty", nil, "", t0)

	blob, err := json.Marshal(stateOf(s))
	if err != nil {
		t.Fatal(err)
	}
	re, err := jsonRoundTrip(blob)
	if err != nil {
		t.Fatal(err)
	}
	if re.Versions("netlist") != 2 || re.Versions("stimuli") != 1 {
		t.Fatalf("versions = %d/%d", re.Versions("netlist"), re.Versions("stimuli"))
	}
	o, err := re.Get(r1)
	if err != nil {
		t.Fatal(err)
	}
	if string(o.Bytes) != "rev 1\x00binary\xff" || o.Producer != "Create/1" {
		t.Fatalf("object = %+v", o)
	}
	// Dedup works across restore: identical content returns the existing ref.
	r1b, _ := re.Put("netlist", []byte("rev 1\x00binary\xff"), "", t0)
	if r1b != r1 {
		t.Fatalf("dedup lost across restore: %v vs %v", r1b, r1)
	}
	// Binary content travels as base64, text as a string.
	if !strings.Contains(string(blob), `"text":"rev 2"`) || !strings.Contains(string(blob), `"bytes":"cmV2IDEAYmluYXJ5/w=="`) {
		t.Fatalf("state JSON %s", blob)
	}
	// Stable second round trip.
	blob2, _ := json.Marshal(stateOf(re))
	if string(blob2) != string(blob) {
		t.Fatalf("second round trip changed the state:\n%s\nvs\n%s", blob2, blob)
	}
	re2, err := jsonRoundTrip(blob2)
	if err != nil {
		t.Fatal(err)
	}
	if re2.TotalBytes() != s.TotalBytes() || re2.Versions("empty") != 1 {
		t.Fatal("byte totals diverged")
	}
}

func TestStoreJSONRejectsCorrupt(t *testing.T) {
	cases := []struct{ name, blob string }{
		{"bad json", "{"},
		{"non-dense", `{"classes":{"a":[{"version":2,"sum":0,"bytes":null}]}}`},
		{"hash mismatch", `{"classes":{"a":[{"version":1,"sum":12345,"bytes":"aGk="}]}}`},
		{"text hash mismatch", `{"classes":{"a":[{"version":1,"sum":12345,"text":"hi"}]}}`},
	}
	for _, tc := range cases {
		if _, err := jsonRoundTrip([]byte(tc.blob)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if _, err := FromState(nil); err == nil {
		t.Error("missing state accepted")
	}
}
