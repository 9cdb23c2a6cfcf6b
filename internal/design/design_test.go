package design

import (
	"fmt"
	"strings"
	"sync"
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

// TestDedupIsPerClass: identical content filed under another class
// in between does not hide a class's own copy from deduplication.
func TestDedupIsPerClass(t *testing.T) {
	s := NewStore()
	a1, _ := s.Put("A", []byte("same"), "", t0)
	b1, _ := s.Put("B", []byte("same"), "", t0)
	if b1.Class != "B" || b1.Version != 1 {
		t.Fatalf("another class's content deduplicated a put into B: %v", b1)
	}
	if r, _ := s.Put("A", []byte("same"), "", t0); r != a1 {
		t.Fatalf("re-put into A = %v, want %v", r, a1)
	}
	if s.Versions("A") != 1 || s.Versions("B") != 1 {
		t.Fatalf("versions A=%d B=%d, want 1 and 1", s.Versions("A"), s.Versions("B"))
	}
}

// TestAppendFilesVerbatim: Append files every call as a new version,
// identical content included, and Put then deduplicates to the newest.
func TestAppendFilesVerbatim(t *testing.T) {
	s := NewStore()
	r1, _ := s.Append("A", []byte("same"), "", t0)
	r2, _ := s.Append("A", []byte("same"), "", t0)
	if r1.Version != 1 || r2.Version != 2 || r1.Sum != r2.Sum {
		t.Fatalf("appends filed %v and %v", r1, r2)
	}
	if r, _ := s.Put("A", []byte("same"), "", t0); r != r2 {
		t.Fatalf("put after appends = %v, want the newest %v", r, r2)
	}
	if _, err := s.Append("", []byte("x"), "", t0); err == nil {
		t.Fatal("empty class accepted")
	}
}

// TestForkIsolation: a fork and its parent each deduplicate against
// what they had in common, and neither sees the other's later inserts —
// also not through deduplication.
func TestForkIsolation(t *testing.T) {
	s := NewStore()
	a, _ := s.Put("netlist", []byte("a"), "", t0)
	f := s.Fork()
	for name, st := range map[string]*Store{"parent": s, "fork": f} {
		if r, _ := st.Put("netlist", []byte("a"), "", t0); r != a {
			t.Fatalf("%s: shared content filed again as %v", name, r)
		}
	}
	pb, _ := s.Put("netlist", []byte("b"), "", t0)
	fc, _ := f.Put("netlist", []byte("c"), "", t0)
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
	// A fork of a fork.
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

// TestConcurrentPutsForksAndReads hammers one store from every side at
// once: writers put new and repeated content into a shared and their
// own classes, a forker forks and puts into each fork, and readers walk
// Chains, Get every ref they see and read Latest. Run it under -race.
func TestConcurrentPutsForksAndReads(t *testing.T) {
	s := NewStore()
	const writers, puts = 4, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := fmt.Sprintf("own%d", w)
			for i := 0; i < puts; i++ {
				data := []byte(fmt.Sprintf("w%d-%d", w, i))
				r1, err1 := s.Put(own, data, "", t0)
				r2, err2 := s.Put(own, data, "", t0)
				if err1 != nil || err2 != nil || r1 != r2 || r1.Version != i+1 {
					t.Errorf("writer %d put %d: %v %v, %v %v", w, i, r1, err1, r2, err2)
					return
				}
				if _, err := s.Put("shared", data, "", t0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var readers sync.WaitGroup
	readers.Add(2)
	go func() { // forker
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f := s.Fork()
			n := f.Versions("shared")
			if r, err := f.Put("shared", []byte("fork-only"), "", t0); err != nil || r.Version != n+1 {
				t.Errorf("fork put = %v, %v; want version %d", r, err, n+1)
				return
			}
		}
	}()
	go func() { // reader
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for class, chain := range s.Chains() {
				for i, o := range chain {
					if o.Ref.Version != i+1 || string(o.Bytes) == "fork-only" {
						t.Errorf("%s[%d] = %v %q", class, i, o.Ref, o.Bytes)
						return
					}
					if _, err := s.Get(o.Ref); err != nil {
						t.Error(err)
						return
					}
				}
				if l := s.Latest(class); l == nil || l.Ref.Version < len(chain) {
					t.Errorf("Latest(%s) = %v behind a chain of %d", class, l, len(chain))
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := s.Versions("shared"); got != writers*puts {
		t.Fatalf("shared holds %d versions, want %d", got, writers*puts)
	}
}
