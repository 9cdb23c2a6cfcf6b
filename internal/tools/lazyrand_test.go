package tools

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// drawsPastWindow covers the lazy window and the fallback behind it.
const drawsPastWindow = 2*lazyDraws + 1

// sameStream fails unless the lazy source and math/rand's seeded source
// agree on drawsPastWindow draws, Int63 and Uint64 interleaved.
func sameStream(t *testing.T, seed int64) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	got := newLazySource(seed)
	for i := 0; i < drawsPastWindow; i++ {
		if i%3 == 2 {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, i, g, w)
			}
			continue
		}
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, g, w)
		}
	}
}

func TestLazySourceMatchesMathRand(t *testing.T) {
	edge := []int64{0, 1, -1, 89482311, lcgMod, -lcgMod, 2 * lcgMod, 7 * lcgMod, -3 * lcgMod,
		lcgMod - 1, lcgMod + 1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for _, seed := range edge {
		sameStream(t, seed)
	}
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		seed := int64(r.Uint64())
		switch i % 4 {
		case 1:
			seed = int64(i) - int64(n/2) // small, both signs
		case 2:
			seed = int64(i) * lcgMod // reduces to the zero seed
		}
		sameStream(t, seed)
	}
}

func TestLazySourceReseed(t *testing.T) {
	s := newLazySource(5)
	for i := 0; i < drawsPastWindow; i++ {
		s.Int63()
	}
	s.Seed(9)
	want := rand.New(rand.NewSource(9))
	got := rand.New(s)
	for i := 0; i < drawsPastWindow; i++ {
		if w, g := want.Float64(), got.Float64(); w != g {
			t.Fatalf("draw %d after reseed: %v, math/rand %v", i, g, w)
		}
	}
}

// TestRunMatchesSeededMathRand pins SimTool.Run to the stream it drew
// before the lazy source: rand.New(rand.NewSource(seed)).
func TestRunMatchesSeededMathRand(t *testing.T) {
	tool := sim(t, "simulator", "hspice#1", Profile{Base: 3 * time.Hour, Jitter: 0.3, MeanIterations: 2.2, FailureRate: 0.2})
	for it := 1; it <= 200; it++ {
		in := map[string][]byte{"netlist": {byte(it)}, "stimuli": []byte("pulse")}
		res, err := tool.Run(in, it)
		r := rand.New(rand.NewSource(int64(tool.rng(in, it).(*lazySource).seed)))
		spread := 1 + 0.3*(2*r.Float64()-1)
		if work := time.Duration(float64(3*time.Hour) * spread); res.Work != work {
			t.Fatalf("iteration %d: work %v, math/rand stream gives %v", it, res.Work, work)
		}
		if failed := r.Float64() < 0.2; failed != (err != nil) {
			t.Fatalf("iteration %d: failed=%v, math/rand stream gives %v", it, err != nil, failed)
		}
	}
}

// TestRunDoesNotSeedAGenerator guards the cost the lazy source removes:
// seeding math/rand allocates a 5.4 KB register per run, more than
// everything else Run allocates.
func TestRunDoesNotSeedAGenerator(t *testing.T) {
	tool := sim(t, "simulator", "hspice#1", basic)
	in := map[string][]byte{"netlist": []byte("n1"), "stimuli": []byte("pulse")}
	const runs = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		if _, err := tool.Run(in, i); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 2048 {
		t.Fatalf("Run allocates %d B, want < 2 KB (no seeded math/rand register)", per)
	}
}

// BenchmarkRunSource is one run's source plus its four draws.
func BenchmarkRunSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(newLazySource(int64(i)))
		for j := 0; j < lazyDraws; j++ {
			r.Float64()
		}
	}
}

// BenchmarkSeededMathRand is the same with math/rand's seeded source.
func BenchmarkSeededMathRand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < lazyDraws; j++ {
			r.Float64()
		}
	}
}
