package design

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestRefStringMatchesSprintf compares Ref.String with the
// fmt.Sprintf("%s@%d#%08x") it replaces: event details and span
// details quote refs, and they must not change by a byte.
func TestRefStringMatchesSprintf(t *testing.T) {
	check := func(r Ref) {
		t.Helper()
		if got, want := r.String(), fmt.Sprintf("%s@%d#%08x", r.Class, r.Version, r.Sum); got != want {
			t.Fatalf("%#v.String() = %q, want %q", r, got, want)
		}
	}
	for _, r := range []Ref{
		{},
		{Class: "netlist", Version: 1, Sum: 0},
		{Class: "netlist", Version: 12, Sum: 0xabc},
		{Class: "layout", Version: 100, Sum: 1<<28 - 1},
		{Class: "layout", Version: 100, Sum: 1 << 28},
		{Class: "layout", Version: 7, Sum: 0xffffffff},
		{Class: "layout", Version: 7, Sum: 1 << 32},
		{Class: "Schaltplan-übersicht", Version: 1e9, Sum: math.MaxUint64},
		{Class: "a-very-long-class-name-that-does-not-fit-a-small-buffer-at-all", Version: -3, Sum: 0x0123456789abcdef},
	} {
		check(r)
	}
	rnd := rand.New(rand.NewSource(1995))
	for i := 0; i < 20000; i++ {
		sum := rnd.Uint64() >> uint(rnd.Intn(64))
		if i%2 == 0 {
			sum &= 1<<28 - 1 // below 2^28: the %08x padding
		}
		check(Ref{Class: "c" + fmt.Sprint(rnd.Intn(100)), Version: rnd.Intn(1 << 20), Sum: sum})
	}
}
