package design

import (
	"fmt"
	"testing"
)

// BenchmarkPut files into a class that holds 100, 1 000 or 10 000
// versions. "hit" re-puts the oldest version's content: a deduplicated
// put whose scan walks the whole chain. "fork-miss" forks the store and
// puts new content into the fork: a full scan, then the first append to
// the fork's clipped chain, which copies it.
func BenchmarkPut(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		s := NewStore()
		for i := 0; i < n; i++ {
			if _, err := s.Put("netlist", []byte(fmt.Sprintf("revision %d", i)), "", t0); err != nil {
				b.Fatal(err)
			}
		}
		oldest, fresh := []byte("revision 0"), []byte("a new revision")
		b.Run(fmt.Sprintf("versions=%d/hit", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r, _ := s.Put("netlist", oldest, "", t0); r.Version != 1 {
					b.Fatalf("hit filed %v", r)
				}
			}
		})
		b.Run(fmt.Sprintf("versions=%d/fork-miss", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r, _ := s.Fork().Put("netlist", fresh, "", t0); r.Version != n+1 {
					b.Fatalf("miss filed %v", r)
				}
			}
		})
	}
}
