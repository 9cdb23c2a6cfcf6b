package store

import (
	"fmt"
	"testing"

	"flowsched/internal/vclock"
)

// BenchmarkSnapshotFork measures the copy-on-write store's isolation
// primitives over 16 containers as the entry count grows: building a
// snapshot (the cost the first reader of a version pays), returning the
// snapshot already built for the version, and forking. All three are
// O(containers), so ns/op should stay flat across entry counts.
func BenchmarkSnapshotFork(b *testing.B) {
	const containers = 16
	for _, entries := range []int{100, 1000, 10000} {
		db := NewDB()
		for i := 0; i < containers; i++ {
			if _, err := db.CreateContainer(fmt.Sprintf("class%02d", i), ExecutionSpace, ""); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < entries; i++ {
			if _, err := db.Put(fmt.Sprintf("class%02d", i%containers), vclock.Epoch, map[string]any{"seq": i}); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("entries=%d/snapshot", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db.last = nil
				db.Snapshot()
			}
		})
		b.Run(fmt.Sprintf("entries=%d/snapshot-reused", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db.Snapshot()
			}
		})
		b.Run(fmt.Sprintf("entries=%d/fork", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db.ForkAt(nil)
			}
		})
	}
}
