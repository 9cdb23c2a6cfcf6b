// Package monte implements Monte-Carlo schedule risk analysis: the
// paper's planning-by-simulation (§III) taken statistically. Where a
// single planning pass simulates one execution of the flow with point
// estimates, a Monte-Carlo run samples many executions — activity
// durations drawn from per-activity distributions, iteration counts
// drawn geometrically — and reports the empirical distribution of the
// project finish. It complements the analytic PERT approximation of
// package pert with a distribution-free answer, and exposes per-activity
// criticality (how often each activity lies on the sampled critical
// path).
//
// The engine is incremental: sampling streams are keyed per (seed,
// shard, activity), every activity carries a canonical fingerprint of
// its predecessor closure (fingerprint.go), and an optional Memo caches
// per-subtree trial streams so a re-simulation after an edit re-samples
// only the subtrees whose fingerprint changed — with the composed
// result provably bit-identical to a cold full run. An optional
// mergeable quantile sketch (sketch.go) replaces the sorted Durations
// slice at large trial counts.
package monte

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flowsched/internal/obs"
	"flowsched/internal/par"
)

// ActivityModel is the stochastic model of one activity.
type ActivityModel struct {
	Name string
	// Min, Mode, Max parameterize a triangular duration distribution for
	// one iteration of the activity.
	Min, Mode, Max time.Duration
	// MeanIterations is the expected number of iterations until the
	// design goals are met (geometric; >= 1).
	MeanIterations float64
	// Preds are the producing activities that must finish first.
	Preds []string
}

func errNoActivities() error      { return fmt.Errorf("monte: no activities") }
func errDuplicate(n string) error { return fmt.Errorf("monte: duplicate activity %q", n) }

func (a ActivityModel) validate() error {
	if a.Name == "" {
		return fmt.Errorf("monte: activity with empty name")
	}
	if a.Min <= 0 || a.Mode < a.Min || a.Max < a.Mode {
		return fmt.Errorf("monte: activity %q needs 0 < Min <= Mode <= Max (got %v/%v/%v)",
			a.Name, a.Min, a.Mode, a.Max)
	}
	if a.MeanIterations < 1 {
		return fmt.Errorf("monte: activity %q mean iterations %v must be >= 1", a.Name, a.MeanIterations)
	}
	return nil
}

// Config tunes a simulation.
type Config struct {
	// Trials is the number of sampled executions (default 1000).
	Trials int
	// Seed makes the simulation reproducible.
	Seed int64
	// Workers caps how many shards run concurrently: 0 uses all cores
	// (runtime.GOMAXPROCS), 1 forces the serial path. The result is
	// bit-identical for every value — see docs/risk.md.
	Workers int
	// Memo, when non-nil, reuses cached per-subtree trial streams and
	// caches the streams this run samples. Reuse never changes the
	// result — a warm run is bit-identical to a cold one with the same
	// Trials/Seed — it only skips sampling for activities whose subtree
	// fingerprint, seed, and trial count hit the cache.
	Memo *Memo
	// Sketch answers the distribution from a mergeable fixed-boundary
	// quantile sketch instead of materializing and sorting the full
	// Durations slice — the O(1)-memory path for 1M+-trial runs.
	// Sketch-mode results follow their own versioned determinism
	// contract (see Sketch); percentiles carry a bounded relative
	// error instead of being exact.
	Sketch bool
	// Obs, when non-nil, records a simulation span, trial counters,
	// and — for runs whose shards are big enough to amortize the clock
	// stamps — per-shard spans and timings. Instrumentation never
	// affects the sampled results: the RNG streams are untouched, so
	// bit-identical determinism holds with and without it.
	Obs *obs.Obs
	// Parent, when non-nil, nests the simulation's root span under an
	// enclosing span (a request's root, a scenario run) on the same
	// tracer. Nil keeps the simulation a trace root.
	Parent *obs.Span
	// VirtNow anchors the simulation's spans on the virtual clock (a
	// Monte-Carlo run consumes no virtual design time, so its spans are
	// point intervals at VirtNow). Zero is fine for uninstrumented or
	// facade-less use.
	VirtNow time.Time
	// Ctx, when non-nil, cancels the simulation cooperatively: shards
	// stop at iteration-batch boundaries once the context is done and
	// Simulate returns the context's error. Cancellation checks never
	// touch the RNG streams, so an uncancelled run is bit-identical
	// with or without a context. Nil means "never canceled".
	Ctx context.Context
}

// Result is the outcome of a Monte-Carlo run.
type Result struct {
	// Durations holds each trial's project span, sorted ascending. Nil
	// in sketch mode — use the accessor methods, which answer from
	// Sketch instead.
	Durations []time.Duration
	// Sketch holds the project-span distribution when Config.Sketch was
	// set; nil otherwise.
	Sketch *Sketch
	// Criticality maps each activity to the fraction of trials in which
	// it lay on the sampled critical path.
	Criticality map[string]float64
	// MeanIterObserved maps each activity to the mean sampled iteration
	// count.
	MeanIterObserved map[string]float64
	// SampledActivityTrials counts activity×trial samples this run drew
	// fresh; ReusedActivityTrials counts those served from the memo.
	// Sampled+Reused always equals len(acts)×Trials. They describe the
	// run's cost, not its outcome — two runs with different splits still
	// return bit-identical distributions — so they are excluded from
	// serialized results.
	SampledActivityTrials int64 `json:"-"`
	ReusedActivityTrials  int64 `json:"-"`
}

// Mean returns the mean project span. The accumulator is float64: an
// int64 sum of durations overflows around 1M trials of multi-week
// spans, well inside the sketch-mode regime.
func (r *Result) Mean() time.Duration {
	if r.Sketch != nil {
		return r.Sketch.Mean()
	}
	if len(r.Durations) == 0 {
		return 0
	}
	var total float64
	for _, d := range r.Durations {
		total += float64(d)
	}
	return time.Duration(total / float64(len(r.Durations)))
}

// Percentile returns the q-quantile (q in [0,1]) of the project span,
// using nearest-rank rounding over the sorted trials — or, in sketch
// mode, the sketch's bounded-error estimate under the same rank
// convention.
func (r *Result) Percentile(q float64) time.Duration {
	if r.Sketch != nil {
		return r.Sketch.Quantile(q)
	}
	n := len(r.Durations)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return r.Durations[0]
	}
	if q >= 1 {
		return r.Durations[n-1]
	}
	return r.Durations[int(math.Round(q*float64(n-1)))]
}

// ProbWithin returns the empirical probability that the project finishes
// within the target span (sketch mode: a monotone estimate at most one
// bucket's mass below the exact value).
func (r *Result) ProbWithin(target time.Duration) float64 {
	if r.Sketch != nil {
		return r.Sketch.ProbWithin(target)
	}
	if len(r.Durations) == 0 {
		return 0
	}
	n := sort.Search(len(r.Durations), func(i int) bool {
		return r.Durations[i] > target
	})
	return float64(n) / float64(len(r.Durations))
}

// Trials returns the number of sampled executions behind the result.
func (r *Result) Trials() int {
	if r.Sketch != nil {
		return int(r.Sketch.Count())
	}
	return len(r.Durations)
}

// numShards is the fixed shard count of a simulation. Trials are split
// into numShards contiguous blocks, each activity sampling from its own
// per-shard RNG stream, so the set of drawn samples depends only on
// (Trials, Seed) — never on the worker count — and merges commute. 64
// shards keep all cores of any realistic machine busy while staying
// coarse enough that per-shard setup cost is noise.
const numShards = 64

// shardObsMinTrials is the per-shard trial count below which per-shard
// spans and shard timings are skipped (the root span and the trial
// counters still cover the whole run). Stamping the clock twice per
// shard costs a few hundred nanoseconds; a shard below this size does
// only a few microseconds of sampling, so per-shard observation would
// cost more than the 5% overhead budget it is meant to police. From
// this size up the cost amortizes to well under 1%.
const shardObsMinTrials = 256

// window is how many trials of its block a shard advances every
// activity by at a time. An activity whose stream the memo neither
// serves nor keeps samples into a window-sized scratch column reused
// across windows, so a memo-less run's memory stays bounded whatever
// the trial count (sketch mode's constant-memory contract,
// TestSketchMemoLessRunIsConstantMemory), while a cached activity
// costs nothing in the trial loop. Each activity's stream is consumed
// in trial order whatever the window, so results do not depend on it.
const window = 256

// column is one activity's state within a shard: win views its finish
// times for the current window, and r is its RNG stream, carried
// across windows.
type column struct {
	win []time.Duration
	r   rng
}

// shardLabels precomputes the span annotations so the instrumented
// shard loop does no string formatting.
var shardLabels = func() [numShards]string {
	var a [numShards]string
	for i := range a {
		a[i] = "shard=" + strconv.Itoa(i)
	}
	return a
}()

// compiled is an ActivityModel lowered for the trial loop: predecessor
// names resolved to indices, triangular and geometric parameters
// precomputed, no map lookups or string hashing on the hot path.
type compiled struct {
	lo, hi    float64 // triangular min/max in float ns
	fc        float64 // CDF split point (mode-min)/(max-min)
	upWidth   float64 // (max-min)*(mode-min)
	downWidth float64 // (max-min)*(max-mode)
	point     bool    // min == max: constant duration
	p         float64 // geometric success probability 1/mean (0 → single iteration)
	limit     int     // iteration cap 2×mean
	preds     []int32
}

func compileActs(acts []ActivityModel, idx map[string]int) []compiled {
	comp := make([]compiled, len(acts))
	for i, act := range acts {
		a, c, b := float64(act.Min), float64(act.Mode), float64(act.Max)
		ca := compiled{
			lo: a, hi: b, point: a == b,
			limit: 1,
		}
		if !ca.point {
			ca.fc = (c - a) / (b - a)
			ca.upWidth = (b - a) * (c - a)
			ca.downWidth = (b - a) * (b - c)
		}
		if act.MeanIterations > 1 {
			ca.p = 1 / act.MeanIterations
			ca.limit = int(2 * act.MeanIterations)
			if ca.limit < 1 {
				ca.limit = 1
			}
		}
		ca.preds = make([]int32, len(act.Preds))
		for j, p := range act.Preds {
			ca.preds[j] = int32(idx[p])
		}
		comp[i] = ca
	}
	return comp
}

// sketchBounds derives the sketch's static span bounds from the model:
// every project span is at least the largest single-iteration Min (some
// activity must run at least one iteration) and at most the sum of
// every activity's iteration cap times its Max.
func sketchBounds(acts []ActivityModel, comp []compiled) (lo, hi time.Duration) {
	var hiF float64
	for i := range acts {
		if acts[i].Min > lo {
			lo = acts[i].Min
		}
		hiF += float64(comp[i].limit) * float64(acts[i].Max)
	}
	if hiF >= math.MaxInt64 {
		hi = math.MaxInt64
	} else {
		hi = time.Duration(hiF)
	}
	return lo, hi
}

// Simulate runs the Monte-Carlo analysis over the activity network.
//
// Trials are partitioned into a fixed number of shards executed on a
// bounded worker pool (Config.Workers; see internal/par). Each activity
// draws from its own seed-derived per-shard RNG stream, so the returned
// Result is bit-identical for every worker count, including a 1-worker
// serial run — and, when Config.Memo is set, bit-identical whether an
// activity's samples were drawn fresh or reused from the cache.
func Simulate(acts []ActivityModel, cfg Config) (*Result, error) {
	if len(acts) == 0 {
		return nil, errNoActivities()
	}
	idx := make(map[string]int, len(acts))
	for i, a := range acts {
		if err := a.validate(); err != nil {
			return nil, err
		}
		if _, dup := idx[a.Name]; dup {
			return nil, errDuplicate(a.Name)
		}
		idx[a.Name] = i
	}
	order, err := topo(acts, idx)
	if err != nil {
		return nil, err
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 1000
	}
	n := len(acts)
	comp := compileActs(acts, idx)
	keys := streamKeys(acts)

	// Probe the memo: cached[i] non-nil means activity i's finish-time
	// samples for this (fingerprint, seed, trials) are served from the
	// cache and its RNG stream is never touched. fresh[i] non-nil means
	// the run materializes the samples it draws so they can seed the
	// cache afterwards (skipped when the fresh streams cannot all fit
	// the budget — results are identical either way).
	cached := make([][]time.Duration, n)
	cachedIters := make([]int64, n)
	var fresh [][]time.Duration
	var fps []uint64
	reused := 0
	if cfg.Memo != nil {
		fps = subtreeFingerprints(acts, idx, order)
		for i := range acts {
			if f, it, ok := cfg.Memo.lookup(memoKey{fps[i], cfg.Seed, cfg.Trials}); ok {
				cached[i], cachedIters[i] = f, it
				reused++
			}
		}
		if reused < n && cfg.Memo.admits(n-reused, cfg.Trials) {
			fresh = make([][]time.Duration, n)
			for i := range acts {
				if cached[i] == nil {
					fresh[i] = make([]time.Duration, cfg.Trials)
				}
			}
		}
	}
	res, err := simulate(acts, cfg, order, comp, keys, cached, cachedIters, fresh, reused)
	if err != nil {
		return nil, err
	}
	if fresh != nil {
		for i := range acts {
			if fresh[i] != nil {
				cfg.Memo.insert(memoKey{fps[i], cfg.Seed, cfg.Trials}, fresh[i], res.iterTotals[i])
			}
		}
	}
	return res.Result, nil
}

// simResult pairs the public Result with the per-activity iteration
// totals the memo insert path needs.
type simResult struct {
	*Result
	iterTotals []int64
}

// simulate is the sharded sampling core shared by the cold and memoized
// paths.
func simulate(acts []ActivityModel, cfg Config, order []int,
	comp []compiled, keys []uint64, cached [][]time.Duration, cachedIters []int64,
	fresh [][]time.Duration, reused int) (*simResult, error) {

	n := len(acts)
	res := &Result{
		Criticality:      make(map[string]float64, n),
		MeanIterObserved: make(map[string]float64, n),
	}
	var proto *Sketch
	if cfg.Sketch {
		lo, hi := sketchBounds(acts, comp)
		proto = newSketch(lo, hi, defaultSketchBuckets)
		res.Sketch = proto
	} else {
		res.Durations = make([]time.Duration, cfg.Trials)
	}

	// Contiguous trial blocks per shard; the first Trials%numShards
	// shards absorb the remainder.
	offsets := make([]int, numShards+1)
	base, rem := cfg.Trials/numShards, cfg.Trials%numShards
	for s := 0; s < numShards; s++ {
		offsets[s+1] = offsets[s] + base
		if s < rem {
			offsets[s+1]++
		}
	}

	// Observability: one root span for the simulation, plus — when the
	// shards are big enough to amortize the clock stamps — one child
	// span and one shard-seconds sample per shard. All spans are point
	// intervals on the virtual clock (risk analysis consumes no design
	// time). Metric handles are resolved once, outside the shard loop.
	tr := cfg.Obs.Tracer()
	root := tr.Start(cfg.Parent, "monte.simulate", cfg.VirtNow)
	root.SetDetail("trials=" + strconv.Itoa(cfg.Trials))
	// monte_trials_total advances per completed shard (not upfront) so
	// the counter is a live progress signal: a canceled run stops
	// advancing it. Completed runs still account for exactly Trials.
	var mTrials *obs.Counter
	if m := cfg.Obs.Metrics(); m != nil {
		m.Counter("monte_simulations_total").Inc()
		mTrials = m.Counter("monte_trials_total")
		m.Counter("monte_activity_trials_sampled_total").Add(int64(n-reused) * int64(cfg.Trials))
		m.Counter("subtree_reuse_trials_total").Add(int64(reused) * int64(cfg.Trials))
	}
	shardObs := tr != nil && cfg.Trials/numShards >= shardObsMinTrials
	var hShard *obs.Histogram
	if shardObs {
		hShard = cfg.Obs.Metrics().Histogram("monte_shard_seconds", nil)
	}

	// Sinks: activities nothing in the model depends on. Every successor
	// strictly outlives its predecessors (work is always positive), so a
	// trial's project finish — and the first activity attaining it in
	// topo order — is found by scanning sinks alone. The kernel below
	// exploits this; the results are bit-identical to a scan of every
	// activity.
	hasSucc := make([]bool, n)
	for i := range comp {
		for _, pi := range comp[i].preds {
			hasSucc[pi] = true
		}
	}
	var sinks []int32
	for _, i := range order {
		if !hasSucc[i] {
			sinks = append(sinks, int32(i))
		}
	}

	// Cooperative cancellation: one cheap shared flag, refreshed by a
	// non-blocking poll of the context at shard and window starts. The
	// checks read no RNG state, preserving bit-identity for uncancelled
	// runs.
	var canceled atomic.Bool
	var ctxDone <-chan struct{}
	if cfg.Ctx != nil {
		ctxDone = cfg.Ctx.Done()
	}
	cancelCheck := func() bool {
		if ctxDone == nil {
			return false
		}
		if canceled.Load() {
			return true
		}
		select {
		case <-ctxDone:
			canceled.Store(true)
			return true
		default:
			return false
		}
	}

	// Scratch windows, one set per worker rather than one per shard: a
	// shard takes a spare set, or makes one, and hands it back when it is
	// done. Every window is written before it is read, so which set a
	// shard gets does not change its results.
	var (
		spareMu sync.Mutex
		spare   [][]time.Duration
	)
	scratchLen := (n - reused) * min(window, (cfg.Trials+numShards-1)/numShards)
	critCounts := make([][]int64, numShards)
	iterTotals := make([][]int64, numShards)
	shardSketches := make([]*Sketch, numShards)
	par.New(cfg.Workers).Instrument(cfg.Obs).ForEachCtx(cfg.Ctx, numShards, func(s int) {
		if cancelCheck() {
			return
		}
		var sp *obs.Span
		if shardObs {
			sp = tr.Start(root, "monte.shard", cfg.VirtNow)
			sp.SetDetail(shardLabels[s])
		}
		counts := make([]int64, 2*n)
		critCount, iterTotal := counts[:n], counts[n:]
		lo, hi := offsets[s], offsets[s+1]
		block := hi - lo
		var out []time.Duration
		if !cfg.Sketch {
			out = res.Durations[lo:hi]
		}
		var sk *Sketch
		if cfg.Sketch {
			sk = proto.emptyClone()
		}
		// Each activity's finish column is the memo's array for the
		// whole block when the memo serves or keeps the activity's
		// stream, else a window of scratch reused across windows.
		w := min(window, block)
		var scratch []time.Duration
		if fresh == nil {
			spareMu.Lock()
			if k := len(spare); k > 0 {
				scratch, spare = spare[k-1], spare[:k-1]
			}
			spareMu.Unlock()
			if scratch == nil {
				scratch = make([]time.Duration, scratchLen)
			}
			defer func() {
				spareMu.Lock()
				spare = append(spare, scratch)
				spareMu.Unlock()
			}()
		}
		cols := make([]column, n)
		for i := range cols {
			if cached[i] == nil {
				cols[i].r = newActivityRNG(cfg.Seed, s, keys[i])
			}
		}
		for t0 := 0; t0 < block; t0 += w {
			if cancelCheck() {
				return
			}
			t1 := min(t0+w, block)
			free := scratch
			for i := range cols {
				switch {
				case cached[i] != nil:
					cols[i].win = cached[i][lo+t0 : lo+t1]
				case fresh != nil:
					cols[i].win = fresh[i][lo+t0 : lo+t1]
				default:
					cols[i].win, free = free[:t1-t0], free[w:]
				}
			}
			// Sampled activities read their preds' columns, cached or
			// fresh alike — the composition that makes warm runs
			// bit-identical to cold ones.
			for _, i := range order {
				if cached[i] == nil {
					iterTotal[i] += comp[i].sample(cols, i)
				}
			}
			var outw []time.Duration
			if out != nil {
				outw = out[t0:t1]
			}
			finishWindow(comp, sinks, cols, t1-t0, outw, sk, critCount)
		}
		mTrials.Add(int64(block))
		critCounts[s] = critCount
		iterTotals[s] = iterTotal
		shardSketches[s] = sk
		if sp != nil {
			hShard.Observe(sp.End(cfg.VirtNow).Seconds())
		}
	})
	root.End(cfg.VirtNow)
	if cancelCheck() {
		return nil, fmt.Errorf("monte: simulation canceled: %w", cfg.Ctx.Err())
	}

	if cfg.Sketch {
		// Merge in shard-index order: counters commute, but the float64
		// running sum stays order-deterministic this way.
		for s := 0; s < numShards; s++ {
			proto.merge(shardSketches[s])
		}
	} else {
		slices.Sort(res.Durations)
	}
	iterTot := make([]int64, n)
	for i, a := range acts {
		var crit int64
		for s := 0; s < numShards; s++ {
			crit += critCounts[s][i]
			iterTot[i] += iterTotals[s][i]
		}
		if cached[i] != nil {
			iterTot[i] = cachedIters[i]
		}
		res.Criticality[a.Name] = float64(crit) / float64(cfg.Trials)
		res.MeanIterObserved[a.Name] = float64(iterTot[i]) / float64(cfg.Trials)
	}
	res.SampledActivityTrials = int64(n-reused) * int64(cfg.Trials)
	res.ReusedActivityTrials = int64(reused) * int64(cfg.Trials)
	return &simResult{Result: res, iterTotals: iterTot}, nil
}

// sample draws activity i's finish times for the current window into
// its column, one trial after another from its stream and its preds'
// columns, and returns the iterations it drew.
func (ca *compiled) sample(cols []column, i int) int64 {
	dst, r := cols[i].win, cols[i].r
	total := int64(0)
	for t := range dst {
		var start time.Duration
		for _, pi := range ca.preds {
			if f := cols[pi].win[t]; f > start {
				start = f
			}
		}
		iters := ca.sampleIterations(&r)
		total += int64(iters)
		var work time.Duration
		for k := 0; k < iters; k++ {
			work += ca.sampleWork(&r)
		}
		dst[t] = start + work
	}
	cols[i].r = r
	return total
}

// finishWindow takes each of the window's trials from the finish
// columns to its project finish, recorded into out or, when out is nil,
// into sk, and counts its critical chain into crit.
func finishWindow(comp []compiled, sinks []int32, cols []column, trials int, out []time.Duration, sk *Sketch, crit []int64) {
	for t := 0; t < trials; t++ {
		var pf time.Duration
		last := int32(-1)
		for _, si := range sinks {
			if f := cols[si].win[t]; f > pf {
				pf = f
				last = si
			}
		}
		if out != nil {
			out[t] = pf
		} else {
			sk.observe(pf)
		}
		// Walk the sampled critical chain backwards, resolving each
		// step's longest-chain predecessor (first strict maximum over
		// the finish columns) lazily. Criticality is recomputed every
		// run — cached or fresh — because the critical chain crosses
		// subtree boundaries; the walk involves no RNG, so cached
		// subtrees compose exactly.
		for i := last; i >= 0; {
			crit[i]++
			next := int32(-1)
			var best time.Duration
			for _, pi := range comp[i].preds {
				if f := cols[pi].win[t]; f > best {
					best = f
					next = pi
				}
			}
			i = next
		}
	}
}

// topo orders activity indices producers-first, detecting cycles and
// dangling predecessors.
func topo(acts []ActivityModel, idx map[string]int) ([]int, error) {
	state := make([]int, len(acts))
	var order []int
	var visit func(i int) error
	visit = func(i int) error {
		switch state[i] {
		case 1:
			return fmt.Errorf("monte: precedence cycle through %q", acts[i].Name)
		case 2:
			return nil
		}
		state[i] = 1
		for _, p := range acts[i].Preds {
			pi, ok := idx[p]
			if !ok {
				return fmt.Errorf("monte: activity %q references unknown predecessor %q", acts[i].Name, p)
			}
			if pi == i {
				return fmt.Errorf("monte: activity %q is its own predecessor", acts[i].Name)
			}
			if err := visit(pi); err != nil {
				return err
			}
		}
		state[i] = 2
		order = append(order, i)
		return nil
	}
	for i := range acts {
		if err := visit(i); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// sampleWork draws one iteration's duration from the activity's
// triangular distribution via inverse-CDF sampling.
func (ca *compiled) sampleWork(r *rng) time.Duration {
	if ca.point {
		return time.Duration(ca.lo)
	}
	u := r.float64()
	var x float64
	if u < ca.fc {
		x = ca.lo + math.Sqrt(u*ca.upWidth)
	} else {
		x = ca.hi - math.Sqrt((1-u)*ca.downWidth)
	}
	return time.Duration(x)
}

// sampleIterations draws a geometric iteration count with the modelled
// mean (success probability 1/mean), capped at 2×mean like the
// simulated tools.
func (ca *compiled) sampleIterations(r *rng) int {
	if ca.p <= 0 {
		return 1
	}
	n := 1
	for r.float64() >= ca.p && n < ca.limit {
		n++
	}
	return n
}
