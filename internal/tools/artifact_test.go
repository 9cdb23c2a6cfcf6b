package tools

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// artifactFormat is the fmt.Sprintf that artifact replaces, kept as the
// reference its output must equal byte for byte.
const artifactFormat = "# produced by %s (class %s)\n# iteration %d\n# input digest %016x\n# quality %.4f\n"

// TestArtifactMatchesSprintf compares artifact with the fmt.Sprintf it
// replaces. The simulated output seeds downstream tools' random
// sources, so a single differing byte would change every later run.
func TestArtifactMatchesSprintf(t *testing.T) {
	check := func(instance, class string, iteration int, digest uint64, quality float64) {
		t.Helper()
		got := string(artifact(instance, class, iteration, digest, quality))
		want := fmt.Sprintf(artifactFormat, instance, class, iteration, digest, quality)
		if got != want {
			t.Fatalf("artifact(%q, %q, %d, %#x, %v)\n got %q\nwant %q",
				instance, class, iteration, digest, quality, got, want)
		}
	}
	names := []string{"", "sta#1", "Synthesizer#12", "übersetzer#1", "合成器#2", "a b\tc"}
	iterations := []int{1, 2, 9, 10, 99, 100, 12345, 1e6, 1e9}
	digests := []uint64{0, 1, 0xf, 0x0123456789abcdef, 0x00000000ffffffff, 0x0000ffff00000000, math.MaxUint64}
	// The %.4f rounding edges: exact zero, half of the last digit, a
	// value that rounds up to it, and one that rounds up to 1.
	qualities := []float64{0, 0.00005, 0.00004999, 0.12345, 0.99995, 0.5, math.Nextafter(1, 0)}
	for i, name := range names {
		class := names[len(names)-1-i]
		for _, it := range iterations {
			for _, d := range digests {
				for _, q := range qualities {
					check(name, class, it, d, q)
				}
			}
		}
	}
	r := rand.New(rand.NewSource(1995))
	for i := 0; i < 20000; i++ {
		digest := r.Uint64() >> uint(r.Intn(64)) // leading zero nibbles
		check(names[r.Intn(len(names))], names[r.Intn(len(names))], 1+r.Intn(1e9), digest, r.Float64())
	}
}
