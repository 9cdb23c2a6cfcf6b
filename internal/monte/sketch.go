package monte

import (
	"math"
	"sort"
	"time"
)

// Sketch is a deterministic, mergeable quantile sketch over project
// spans: a fixed-boundary histogram whose bucket edges grow
// geometrically between a model-derived lower and upper bound. Because
// the boundaries are fixed up front from the model alone (never from
// the data), per-shard sketches merge by plain counter addition, which
// commutes — so sketch-mode results keep the engine's bit-identical
// determinism for any worker count. The price is bounded quantile
// error instead of exactness; see the versioned contract below.
//
// Determinism contract, version 1 (SketchVersion):
//   - Bucket boundaries are a pure function of the model and the bucket
//     count K (defaultSketchBuckets):
//     K log-spaced edges between lo = max over activities of Min (a
//     valid lower bound on any project span) and hi = Σ over activities
//     of iterationCap×Max (a valid upper bound).
//   - Quantile estimates are the upper edge of the bucket holding the
//     nearest rank, clamped to the exact observed [min, max]. The
//     estimate's relative error versus the exact sorted-trials quantile
//     is at most (hi/lo)^(1/K) − 1, plus 1ns of integer rounding.
//   - Quantile(0) and Quantile(1) are the exact observed extremes;
//     Mean is computed from the exact running sum (float64), not from
//     bucket midpoints.
//   - ProbWithin counts whole buckets at or below the target, so it
//     underestimates by at most one bucket's mass and is monotone in
//     the target.
//
// Any change to the boundary formula, the estimate rule, or the rank
// convention bumps SketchVersion.
type Sketch struct {
	bounds []time.Duration // ascending inclusive upper bucket edges
	counts []int64
	n      int64
	sum    float64 // exact sum of observed spans, in ns
	min    time.Duration
	max    time.Duration
	gamma  float64 // per-bucket growth factor (hi/lo)^(1/K)
}

// SketchVersion identifies the sketch determinism contract documented
// on Sketch. Results from different versions must not be compared
// bit-for-bit.
const SketchVersion = 1

// defaultSketchBuckets bounds the relative quantile error at roughly
// (hi/lo)^(1/4096)−1 — under 0.5% even when the model's static bounds
// span nine orders of magnitude — while keeping a sketch at 64KiB of
// counters, mergeable in microseconds.
const defaultSketchBuckets = 4096

// newSketch builds an empty sketch with K log-spaced bucket edges over
// [lo, hi]. The edges are monotonically increasing even when float
// spacing collapses below 1ns (the bottom of the range degrades to
// linear 1ns buckets, which is strictly more accurate).
func newSketch(lo, hi time.Duration, buckets int) *Sketch {
	if buckets <= 0 {
		buckets = defaultSketchBuckets
	}
	if lo < 1 {
		lo = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	k := float64(buckets)
	logLo := math.Log(float64(lo))
	logRatio := math.Log(float64(hi) / float64(lo))
	bounds := make([]time.Duration, buckets)
	for j := 0; j < buckets; j++ {
		b := time.Duration(math.Ceil(math.Exp(logLo + logRatio*float64(j+1)/k)))
		if j > 0 && b <= bounds[j-1] {
			b = bounds[j-1] + 1
		}
		bounds[j] = b
	}
	if bounds[buckets-1] < hi {
		bounds[buckets-1] = hi
	}
	return &Sketch{
		bounds: bounds,
		counts: make([]int64, buckets),
		gamma:  math.Exp(logRatio / k),
	}
}

// emptyClone returns a fresh zero-count sketch sharing the (immutable)
// boundary table — what each shard accumulates into before the serial
// merge.
func (s *Sketch) emptyClone() *Sketch {
	return &Sketch{
		bounds: s.bounds,
		counts: make([]int64, len(s.counts)),
		gamma:  s.gamma,
	}
}

// observe folds one project span into the sketch.
func (s *Sketch) observe(d time.Duration) {
	if s.n == 0 || d < s.min {
		s.min = d
	}
	if d > s.max {
		s.max = d
	}
	s.n++
	s.sum += float64(d)
	s.counts[s.bucket(d)]++
}

// bucket returns the index of the bucket whose (prevEdge, edge] range
// holds d, clamping spans outside [lo, hi] into the end buckets.
func (s *Sketch) bucket(d time.Duration) int {
	j := sort.Search(len(s.bounds), func(j int) bool { return s.bounds[j] >= d })
	if j == len(s.bounds) {
		j--
	}
	return j
}

// merge folds another sketch built over the same boundary table into
// this one. Counter addition commutes, but callers merge in shard-index
// order anyway so the float64 running sum is order-deterministic too.
func (s *Sketch) merge(o *Sketch) {
	if o == nil || o.n == 0 {
		return
	}
	if s.n == 0 || o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n += o.n
	s.sum += o.sum
	for j, c := range o.counts {
		s.counts[j] += c
	}
}

// Count returns the number of observed trials.
func (s *Sketch) Count() int64 { return s.n }

// Min returns the exact smallest observed span.
func (s *Sketch) Min() time.Duration { return s.min }

// Max returns the exact largest observed span.
func (s *Sketch) Max() time.Duration { return s.max }

// Buckets returns the sketch resolution K.
func (s *Sketch) Buckets() int { return len(s.bounds) }

// Version returns the determinism-contract version (SketchVersion).
func (s *Sketch) Version() int { return SketchVersion }

// RelativeError returns the contract's quantile error bound,
// (hi/lo)^(1/K) − 1.
func (s *Sketch) RelativeError() float64 { return s.gamma - 1 }

// Mean returns the mean observed span, computed from the exact running
// sum (not from bucket edges).
func (s *Sketch) Mean() time.Duration {
	if s.n == 0 {
		return 0
	}
	return time.Duration(s.sum / float64(s.n))
}

// Quantile estimates the q-quantile (q in [0,1]) using the same
// nearest-rank convention as the exact sorted-trials path, answering
// with the upper edge of the rank's bucket clamped to the observed
// extremes. Estimates are monotone in q.
func (s *Sketch) Quantile(q float64) time.Duration {
	if s.n == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := int64(math.Round(q * float64(s.n-1)))
	var cum int64
	for j, c := range s.counts {
		cum += c
		if cum > rank {
			est := s.bounds[j]
			if est < s.min {
				est = s.min
			}
			if est > s.max {
				est = s.max
			}
			return est
		}
	}
	return s.max
}

// ProbWithin estimates the probability that the project finishes within
// the target span, counting whole buckets at or below the target. The
// estimate never exceeds the exact empirical probability and trails it
// by at most one bucket's mass.
func (s *Sketch) ProbWithin(target time.Duration) float64 {
	if s.n == 0 {
		return 0
	}
	if target >= s.max {
		return 1
	}
	if target < s.min {
		return 0
	}
	var cum int64
	for j, c := range s.counts {
		if s.bounds[j] > target {
			break
		}
		cum += c
	}
	return float64(cum) / float64(s.n)
}
