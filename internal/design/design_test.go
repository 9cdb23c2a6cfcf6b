package design

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(1995, time.June, 5, 9, 0, 0, 0, time.UTC)

func TestPutGet(t *testing.T) {
	s := NewStore()
	ref, err := s.Put("netlist", []byte(".subckt inv in out\n"), "Create/1", t0)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Class != "netlist" || ref.Version != 1 {
		t.Fatalf("ref = %v", ref)
	}
	o, err := s.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(o.Bytes) != ".subckt inv in out\n" || o.Producer != "Create/1" {
		t.Fatalf("object = %+v", o)
	}
}

func TestPutEmptyClass(t *testing.T) {
	if _, err := NewStore().Put("", []byte("x"), "", t0); err == nil {
		t.Fatal("empty class accepted")
	}
}

func TestVersionChain(t *testing.T) {
	s := NewStore()
	for i := 1; i <= 3; i++ {
		ref, err := s.Put("netlist", []byte(fmt.Sprintf("rev %d", i)), "", t0)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Version != i {
			t.Fatalf("version = %d, want %d", ref.Version, i)
		}
	}
	if s.Versions("netlist") != 3 {
		t.Fatalf("Versions = %d", s.Versions("netlist"))
	}
	if got := s.Latest("netlist"); got == nil || string(got.Bytes) != "rev 3" {
		t.Fatalf("Latest = %+v", got)
	}
	if s.Latest("nothing") != nil {
		t.Fatal("Latest of empty class non-nil")
	}
}

func TestDeduplication(t *testing.T) {
	s := NewStore()
	r1, _ := s.Put("netlist", []byte("same"), "", t0)
	r2, _ := s.Put("netlist", []byte("same"), "", t0.Add(time.Hour))
	if r1 != r2 {
		t.Fatalf("identical content not deduplicated: %v vs %v", r1, r2)
	}
	if s.Versions("netlist") != 1 {
		t.Fatalf("Versions = %d after dedup", s.Versions("netlist"))
	}
}

func TestGetErrors(t *testing.T) {
	s := NewStore()
	ref, _ := s.Put("netlist", []byte("x"), "", t0)
	if _, err := s.Get(Ref{Class: "netlist", Version: 9, Sum: ref.Sum}); err == nil {
		t.Fatal("out-of-range version accepted")
	}
	if _, err := s.Get(Ref{Class: "netlist", Version: 1, Sum: ref.Sum + 1}); err == nil {
		t.Fatal("hash mismatch accepted")
	}
	if _, err := s.Get(Ref{Class: "ghost", Version: 1}); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestRefString(t *testing.T) {
	r := Ref{Class: "netlist", Version: 2, Sum: 0xdeadbeef}
	if got := r.String(); !strings.HasPrefix(got, "netlist@2#") {
		t.Fatalf("String = %q", got)
	}
	if !(Ref{}).IsZero() || r.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestClassesAndTotalBytes(t *testing.T) {
	s := NewStore()
	s.Put("b", []byte("12345"), "", t0)
	s.Put("a", []byte("123"), "", t0)
	cls := s.Classes()
	if len(cls) != 2 || cls[0] != "a" || cls[1] != "b" {
		t.Fatalf("Classes = %v", cls)
	}
	if got := s.TotalBytes(); got != 8 {
		t.Fatalf("TotalBytes = %d", got)
	}
}

// Property: Put then Get round-trips content for arbitrary byte strings.
func TestPutGetRoundTrip(t *testing.T) {
	s := NewStore()
	f := func(data []byte) bool {
		ref, err := s.Put("blob", data, "", t0)
		if err != nil {
			return false
		}
		o, err := s.Get(ref)
		if err != nil {
			return false
		}
		return string(o.Bytes) == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: storing the same content twice never grows the version chain.
func TestDedupProperty(t *testing.T) {
	f := func(data []byte) bool {
		s := NewStore()
		r1, err1 := s.Put("c", data, "", t0)
		r2, err2 := s.Put("c", data, "", t0)
		return err1 == nil && err2 == nil && r1 == r2 && s.Versions("c") == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestForkSharesIndexCopyOnWrite: a fork shares its parent's content
// index, and each side files its own inserts apart from it, so a writer
// never copies the index. Each side still deduplicates against what they
// had in common, and neither sees the other's later inserts — also not
// through deduplication.
func TestForkSharesIndexCopyOnWrite(t *testing.T) {
	s := NewStore()
	a, _ := s.Put("netlist", []byte("a"), "", t0)
	f := s.Fork()
	index := reflect.ValueOf(f.shared).UnsafePointer()
	for name, st := range map[string]*Store{"parent": s, "fork": f} {
		if r, _ := st.Put("netlist", []byte("a"), "", t0); r != a {
			t.Fatalf("%s: shared content filed again as %v", name, r)
		}
	}
	pb, _ := s.Put("netlist", []byte("b"), "", t0)
	fc, _ := f.Put("netlist", []byte("c"), "", t0)
	if reflect.ValueOf(s.shared).UnsafePointer() != index || reflect.ValueOf(f.shared).UnsafePointer() != index {
		t.Fatal("an insert after the fork copied the shared index")
	}
	if pb.Version != 2 || fc.Version != 2 {
		t.Fatalf("first own inserts got versions %d and %d, want 2 and 2", pb.Version, fc.Version)
	}
	if r, _ := f.Put("netlist", []byte("b"), "", t0); r.Version != 3 {
		t.Fatalf("the fork deduplicated against the parent's later insert: %v", r)
	}
	if r, _ := s.Put("netlist", []byte("c"), "", t0); r.Version != 3 {
		t.Fatalf("the parent deduplicated against the fork's insert: %v", r)
	}
	if r, _ := s.Put("netlist", []byte("b"), "", t0); r != pb {
		t.Fatalf("the parent lost its own insert's dedup: %v, want %v", r, pb)
	}
	if r, _ := f.Put("netlist", []byte("c"), "", t0); r != fc {
		t.Fatalf("the fork lost its own insert's dedup: %v, want %v", r, fc)
	}
	// A fork of a fork shares the index three ways.
	g := f.Fork()
	if r, _ := g.Put("netlist", []byte("c"), "", t0); r != fc {
		t.Fatalf("a second-generation fork lost the dedup: %v", r)
	}
	if _, err := g.Put("netlist", []byte("d"), "", t0); err != nil {
		t.Fatal(err)
	}
	if r, _ := f.Put("netlist", []byte("d"), "", t0); r.Version != 4 {
		t.Fatalf("the fork deduplicated against its own fork's insert: %v", r)
	}
}
