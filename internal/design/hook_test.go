package design

import (
	"fmt"
	"testing"
)

func TestPutHookObservesOnlyInserts(t *testing.T) {
	s := NewStore()
	var inserts []*Object
	s.SetPutHook(func(o *Object) { inserts = append(inserts, o) })

	r1, err := s.Put("netlist", []byte("rev 1"), "Create/1", t0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("netlist", []byte("rev 1"), "Create/1", t0); err != nil { // dedup
		t.Fatal(err)
	}
	if _, err := s.Put("netlist", []byte("rev 2"), "Create/2", t0.Add(1)); err != nil {
		t.Fatal(err)
	}
	if len(inserts) != 2 {
		t.Fatalf("hook saw %d inserts, want 2 (dedup must be silent)", len(inserts))
	}
	if inserts[0].Ref != r1 {
		t.Fatalf("first insert ref = %v, want %v", inserts[0].Ref, r1)
	}

	// Appending the observed inserts reproduces the chains exactly.
	r := NewStore()
	for _, o := range inserts {
		ref, err := r.Append(o.Ref.Class, o.Bytes, o.Producer, o.Created)
		if err != nil {
			t.Fatal(err)
		}
		if ref != o.Ref {
			t.Fatalf("replayed ref = %v, want %v", ref, o.Ref)
		}
	}
	if r.TotalObjects() != s.TotalObjects() || r.TotalBytes() != s.TotalBytes() {
		t.Fatalf("replayed store %d obj/%d B, want %d/%d",
			r.TotalObjects(), r.TotalBytes(), s.TotalObjects(), s.TotalBytes())
	}

	// nil removes; forks do not inherit.
	s.SetPutHook(nil)
	if _, err := s.Put("netlist", []byte("rev 3"), "", t0); err != nil {
		t.Fatal(err)
	}
	s.SetPutHook(func(*Object) { t.Fatal("fork inherited hook") })
	f := s.Fork()
	s.SetPutHook(nil)
	for i := 0; i < 3; i++ {
		if _, err := f.Put("stim", []byte(fmt.Sprintf("v%d", i)), "", t0); err != nil {
			t.Fatal(err)
		}
	}
}
