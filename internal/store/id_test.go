package store

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestEntryIDMatchesSprintf compares entryID with the
// fmt.Sprintf("%s/%d") it replaces: entry IDs are written to the WAL
// and checkpoints, and ParseID must take them apart again.
func TestEntryIDMatchesSprintf(t *testing.T) {
	r := rand.New(rand.NewSource(1995))
	names := []string{"netlist", "sched:Create", "run:Route", "milestone", "schedule", "größe", ""}
	versions := []int{1, 9, 10, 99, 100, 101, 1e6, 1e9}
	for i := 0; i < 2000; i++ {
		versions = append(versions, 1+r.Intn(1<<31-1))
	}
	for _, n := range names {
		for _, v := range versions {
			got, want := entryID(n, v), fmt.Sprintf("%s/%d", n, v)
			if got != want {
				t.Fatalf("entryID(%q, %d) = %q, want %q", n, v, got, want)
			}
			if c, pv, err := ParseID(got); n != "" && (err != nil || c != n || pv != v) {
				t.Fatalf("ParseID(%q) = %q, %d, %v", got, c, pv, err)
			}
		}
	}
}
