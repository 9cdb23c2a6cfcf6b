package monte

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// TestSketchQuantileErrorBound is the sketch's accuracy contract: for
// every quantile, the sketch estimate lands within the versioned
// relative-error bound of the exact sorted-trials answer.
func TestSketchQuantileErrorBound(t *testing.T) {
	cfg := Config{Trials: 20000, Seed: 31}
	exact, err := Simulate(branchy(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sketch = true
	sk, err := Simulate(branchy(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sk.Sketch == nil || sk.Durations != nil {
		t.Fatal("sketch mode must drop Durations and set Sketch")
	}
	if sk.Sketch.Version() != SketchVersion {
		t.Fatalf("sketch version = %d, want %d", sk.Sketch.Version(), SketchVersion)
	}
	bound := sk.Sketch.RelativeError()
	if bound <= 0 || bound > 0.02 {
		t.Fatalf("relative error bound = %v, want small positive", bound)
	}
	for q := 0.0; q <= 1.0; q += 0.01 {
		e := exact.Percentile(q)
		g := sk.Percentile(q)
		tol := time.Duration(float64(e)*bound) + 1
		if diff := g - e; diff < -tol || diff > tol {
			t.Fatalf("q=%.2f: sketch %v vs exact %v exceeds bound %v", q, g, e, tol)
		}
	}
	// Extremes are exact.
	if sk.Percentile(0) != exact.Percentile(0) || sk.Percentile(1) != exact.Percentile(1) {
		t.Fatal("sketch extremes differ from exact")
	}
	// Mean comes from the exact running sum; only float summation order
	// differs from the exact path.
	if em, sm := exact.Mean(), sk.Mean(); em-sm > time.Microsecond || sm-em > time.Microsecond {
		t.Fatalf("sketch mean %v vs exact %v", sm, em)
	}
	// Trial count is preserved.
	if sk.Trials() != exact.Trials() {
		t.Fatalf("sketch trials = %d, want %d", sk.Trials(), exact.Trials())
	}
}

// TestSketchProbWithinBound: ProbWithin never overestimates and trails
// the exact probability by at most one bucket's mass.
func TestSketchProbWithinBound(t *testing.T) {
	cfg := Config{Trials: 8000, Seed: 41}
	exact, err := Simulate(branchy(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sketch = true
	sk, err := Simulate(branchy(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var maxMass float64
	for _, c := range sk.Sketch.counts {
		if m := float64(c) / float64(sk.Sketch.n); m > maxMass {
			maxMass = m
		}
	}
	lo, hi := sk.Sketch.Min(), sk.Sketch.Max()
	for i := 0; i <= 50; i++ {
		target := lo + time.Duration(int64(hi-lo)*int64(i)/50)
		pe := exact.ProbWithin(target)
		ps := sk.ProbWithin(target)
		if ps > pe+1e-12 {
			t.Fatalf("target %v: sketch prob %v overestimates exact %v", target, ps, pe)
		}
		if pe-ps > maxMass+1e-12 {
			t.Fatalf("target %v: sketch prob %v trails exact %v by more than one bucket (%v)",
				target, ps, pe, maxMass)
		}
	}
	if p := sk.ProbWithin(hi); p != 1 {
		t.Fatalf("ProbWithin(max) = %v, want 1", p)
	}
	if p := sk.ProbWithin(lo - 1); p != 0 {
		t.Fatalf("ProbWithin(<min) = %v, want 0", p)
	}
}

// TestSketchWorkerDeterminism: sketch-mode runs are bit-identical for
// any worker count — the counter merge commutes and the float sum is
// merged in shard order.
func TestSketchWorkerDeterminism(t *testing.T) {
	ref, err := Simulate(branchy(), Config{Trials: 3000, Seed: 51, Workers: 1, Sketch: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		got, err := Simulate(branchy(), Config{Trials: 3000, Seed: 51, Workers: workers, Sketch: true})
		if err != nil {
			t.Fatal(err)
		}
		if got.Sketch.n != ref.Sketch.n || got.Sketch.sum != ref.Sketch.sum ||
			got.Sketch.min != ref.Sketch.min || got.Sketch.max != ref.Sketch.max {
			t.Fatalf("workers=%d: sketch aggregates differ", workers)
		}
		for j := range ref.Sketch.counts {
			if got.Sketch.counts[j] != ref.Sketch.counts[j] {
				t.Fatalf("workers=%d: bucket %d differs", workers, j)
			}
		}
	}
}

// TestSketchMemoLessRunIsConstantMemory pins sketch mode's
// constant-memory contract on the memo-less path: a million-trial run
// must allocate a bounded amount independent of the trial count. The
// kernel keeps a memo-less run's finishes in a 256-trial window of
// scratch reused across windows and allocates about 3 MB here; columns
// holding every activity's finish for every trial of a shard (about
// 52 MB) would fail this bound.
func TestSketchMemoLessRunIsConstantMemory(t *testing.T) {
	const bound = 16 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Simulate(branchy(), Config{Trials: 1_000_000, Workers: 1, Sketch: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sketch == nil {
		t.Fatal("sketch mode must set Sketch")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("1M-trial sketch run allocated %d bytes, want <= %d", got, bound)
	}
}

// TestSketchWithMemo: sketch mode composes with the trial-stream memo —
// a warm sketch run equals a cold sketch run bucket for bucket.
func TestSketchWithMemo(t *testing.T) {
	memo := NewMemo(0)
	cfg := Config{Trials: 2000, Seed: 61, Memo: memo, Sketch: true}
	if _, err := Simulate(branchy(), cfg); err != nil {
		t.Fatal(err)
	}
	acts := edited("rtl", 1.4)
	warm, err := Simulate(acts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.ReusedActivityTrials == 0 {
		t.Fatal("warm sketch run reused nothing")
	}
	cold, err := Simulate(acts, Config{Trials: 2000, Seed: 61, Sketch: true})
	if err != nil {
		t.Fatal(err)
	}
	for j := range cold.Sketch.counts {
		if warm.Sketch.counts[j] != cold.Sketch.counts[j] {
			t.Fatalf("bucket %d differs between warm and cold sketch runs", j)
		}
	}
	if warm.Sketch.min != cold.Sketch.min || warm.Sketch.max != cold.Sketch.max ||
		warm.Sketch.sum != cold.Sketch.sum {
		t.Fatal("sketch aggregates differ between warm and cold runs")
	}
}

// TestSketchBoundsMonotone: boundary construction survives degenerate
// ranges (tiny lo, hi barely above lo, custom resolutions).
func TestSketchBoundsMonotone(t *testing.T) {
	for _, tc := range []struct {
		lo, hi  time.Duration
		buckets int
	}{
		{0, 0, 0},
		{1, 2, 16},
		{time.Nanosecond, 10 * time.Nanosecond, 128},
		{time.Hour, 1000 * time.Hour, 512},
		{time.Hour, time.Hour, 8},
	} {
		s := newSketch(tc.lo, tc.hi, tc.buckets)
		for j := 1; j < len(s.bounds); j++ {
			if s.bounds[j] <= s.bounds[j-1] {
				t.Fatalf("lo=%v hi=%v: bounds[%d]=%v <= bounds[%d]=%v",
					tc.lo, tc.hi, j, s.bounds[j], j-1, s.bounds[j-1])
			}
		}
	}
}

// TestSketchEmpty: the accessors are well-defined before any
// observation.
func TestSketchEmpty(t *testing.T) {
	s := newSketch(time.Hour, 100*time.Hour, 64)
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.ProbWithin(time.Hour) != 0 || s.Count() != 0 {
		t.Fatal("empty sketch accessors not zero")
	}
}

// TestMeanOverflowRegression: the float64 accumulator must survive
// trial sets whose int64 duration sum overflows (the 1M-trial regime
// that motivated sketch mode).
func TestMeanOverflowRegression(t *testing.T) {
	span := 300 * time.Hour // ~1.08e15 ns; 10k of these overflow int64? No — but 1e7 would.
	n := 10000
	durs := make([]time.Duration, n)
	for i := range durs {
		durs[i] = span
	}
	r := &Result{Durations: durs}
	if got := r.Mean(); got != span {
		t.Fatalf("uniform mean = %v, want %v", got, span)
	}
	// Direct overflow probe: a synthetic sum beyond int64.
	big := make([]time.Duration, 0, 4)
	for i := 0; i < 4; i++ {
		big = append(big, math.MaxInt64/3)
	}
	r = &Result{Durations: big}
	if got := r.Mean(); got < math.MaxInt64/3-time.Second || got > math.MaxInt64/3+time.Second {
		t.Fatalf("overflow-regime mean = %d, want ~%d", got, int64(math.MaxInt64/3))
	}
}
