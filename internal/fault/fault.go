// Package fault is the deterministic fault-injection substrate: seeded,
// replayable fault plans that wrap any tools.Tool with injectable crash
// bursts, virtual-clock hangs, corrupt output, and license-loss windows.
//
// The paper's premise is that schedules stay truthful because the flow
// manager observes real execution — including crashed tools, lost
// licenses, and re-run iterations (§IV, Hercules case study). The fault
// layer is the chaos analogue of the Monte-Carlo shard streams: every
// injected fault is a pure function of (seed, activity, attempt) and the
// virtual clock, so one seed replays bit-identically however often the
// flow is re-executed — which is what makes chaos runs assertable in
// tests and comparable in exhibits.
//
// Faults model four production failure modes:
//
//   - crash: the run errors after consuming part of its working time,
//     possibly as a burst of consecutive crashes (a wedged queue);
//   - hang: the run succeeds but consumes an absurd amount of virtual
//     working time (a simulator stuck over a weekend) — only a run
//     deadline (engine.Recovery.RunDeadline) cuts it short;
//   - corrupt: the run reports success but its output bytes are garbled;
//     Check detects the garbling, so an engine output verifier forces
//     another iteration instead of accepting bad data;
//   - license: windows of virtual time during which every run of a tool
//     class fails fast with a LicenseError carrying RetryAfter — the
//     retry/backoff layer waits the outage out.
package fault

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"

	"flowsched/internal/obs"
)

// Kind classifies an injected fault.
type Kind string

const (
	// None marks a pass-through application (recorded only in History).
	None Kind = "none"
	// Crash makes the run return an error after partial work.
	Crash Kind = "crash"
	// Hang makes the run consume Config.HangWork of virtual working time.
	Hang Kind = "hang"
	// Corrupt garbles the run's output bytes (success is still reported).
	Corrupt Kind = "corrupt"
	// License fails the run fast inside a license-loss window.
	License Kind = "license"
)

// Config parameterizes a fault plan. Probabilities are per tool
// application; Crash+Hang+Corrupt must stay below 1.
type Config struct {
	// Seed derives every stream in the plan. Two plans with the same
	// seed and config inject the identical fault sequence.
	Seed int64
	// Crash is the per-application probability of starting a crash burst.
	Crash float64
	// CrashBurst bounds a burst's length: a burst crashes 1..CrashBurst
	// consecutive applications (default 1, no bursting).
	CrashBurst int
	// Hang is the per-application probability of a virtual-clock hang.
	Hang float64
	// HangWork is the working time a hung run consumes when no run
	// deadline aborts it (default 720h — a tool wedged for a month).
	HangWork time.Duration
	// Corrupt is the per-application probability of garbled output.
	Corrupt float64
	// LicenseOutages is the number of license-loss windows injected per
	// tool class over the horizon (default 0, no outages).
	LicenseOutages int
	// LicenseStart anchors the outage horizon (required when
	// LicenseOutages > 0; typically the project start).
	LicenseStart time.Time
	// LicenseHorizon is the span over which outages are placed
	// (default 30 days of calendar time).
	LicenseHorizon time.Duration
	// LicenseLength is the nominal outage duration; actual lengths are
	// uniform in [0.5, 1.5) of it (default 4h).
	LicenseLength time.Duration
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.CrashBurst <= 0 {
		c.CrashBurst = 1
	}
	if c.HangWork <= 0 {
		c.HangWork = 720 * time.Hour
	}
	if c.LicenseHorizon <= 0 {
		c.LicenseHorizon = 30 * 24 * time.Hour
	}
	if c.LicenseLength <= 0 {
		c.LicenseLength = 4 * time.Hour
	}
	return c
}

// Validate rejects malformed configurations: probabilities must be
// finite, in [0,1), and sum below 1 so a pass-through remains possible.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"crash", c.Crash}, {"hang", c.Hang}, {"corrupt", c.Corrupt}} {
		if math.IsNaN(p.v) || p.v < 0 || p.v >= 1 {
			return fmt.Errorf("fault: %s probability %v out of [0,1)", p.name, p.v)
		}
	}
	if s := c.Crash + c.Hang + c.Corrupt; s >= 1 {
		return fmt.Errorf("fault: crash+hang+corrupt = %v must stay below 1", s)
	}
	if c.CrashBurst < 0 {
		return fmt.Errorf("fault: crash burst %d must be >= 0", c.CrashBurst)
	}
	if c.LicenseOutages < 0 {
		return fmt.Errorf("fault: license outages %d must be >= 0", c.LicenseOutages)
	}
	if c.LicenseOutages > 0 && c.LicenseStart.IsZero() {
		return fmt.Errorf("fault: license outages need a LicenseStart anchor")
	}
	return nil
}

// Injection is one recorded fault decision — the plan's replay log.
type Injection struct {
	Activity string
	Attempt  int
	Kind     Kind
	At       time.Time // virtual time of the application (zero without a clock)
}

// CrashError is the error an injected crash returns.
type CrashError struct {
	Activity string
	Attempt  int
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("fault: injected crash on %s (attempt %d)", e.Activity, e.Attempt)
}

// LicenseError is the error a run inside a license-loss window returns.
// It implements RetryAfter, so a backoff policy can wait the outage out
// instead of burning retries against a dead license server.
type LicenseError struct {
	Class string
	Until time.Time
}

func (e *LicenseError) Error() string {
	return fmt.Sprintf("fault: %s license lost until %s", e.Class, e.Until.Format("2006-01-02 15:04"))
}

// RetryAfter reports when the license returns.
func (e *LicenseError) RetryAfter() time.Time { return e.Until }

// window is one license outage interval [From, To).
type window struct{ From, To time.Time }

// Plan is a seeded fault plan shared by every injector wrapped from it.
// All methods are safe for concurrent use; decisions are deterministic
// per (seed, activity, attempt) regardless of wrapping order.
type Plan struct {
	cfg Config

	mu      sync.Mutex
	acts    map[string]*actState
	classes map[string][]window
	history []Injection

	// obs (nil until Instrument): injected-fault counters by kind.
	mFaults *obs.CounterVec
	byKind  map[Kind]*obs.Counter
	reg     *obs.Registry
}

// actState is one activity's fault stream: a splitmix64 generator plus
// the crash-burst countdown.
type actState struct {
	rng      rng
	attempts int
	burst    int // remaining forced crashes of the current burst
}

// NewPlan builds a fault plan from a validated config.
func NewPlan(cfg Config) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Plan{
		cfg:     cfg.withDefaults(),
		acts:    make(map[string]*actState),
		classes: make(map[string][]window),
	}, nil
}

// Fork returns a plan that continues from this one independently: each
// activity's stream and crash burst as they stand, the license windows
// derived so far, and an empty history. Decisions the fork makes never
// advance this plan, nor the other way round, so forks taken from the
// same state draw the same faults whatever order they run in. The fork
// is uninstrumented: its faults are not this plan's. Bind it to a forked
// registry with Rebind.
func (p *Plan) Fork() *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := &Plan{
		cfg:     p.cfg,
		acts:    make(map[string]*actState, len(p.acts)),
		classes: make(map[string][]window, len(p.classes)),
	}
	for a, st := range p.acts {
		cp := *st
		f.acts[a] = &cp
	}
	for c, ws := range p.classes {
		f.classes[c] = ws // never modified once derived
	}
	return f
}

// Seed reports the plan's seed.
func (p *Plan) Seed() int64 { return p.cfg.Seed }

// Config reports the plan's (default-filled) configuration.
func (p *Plan) Config() Config { return p.cfg }

// Instrument attaches the fault_injected_total{kind=...} family to the
// registry (one labeled series per fault kind). Returns p for chaining.
func (p *Plan) Instrument(o *obs.Obs) *Plan {
	if p == nil || o == nil || o.Metrics() == nil {
		return p
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reg = o.Metrics()
	p.mFaults = p.reg.BoundedCounterVec("fault_injected_total", 16, "kind")
	p.byKind = make(map[Kind]*obs.Counter)
	return p
}

// History returns a copy of every decision the plan has made, including
// pass-throughs — the replay log the chaos tests compare.
func (p *Plan) History() []Injection {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Injection(nil), p.history...)
}

// Injected counts the non-pass-through decisions so far.
func (p *Plan) Injected() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, h := range p.history {
		if h.Kind != None {
			n++
		}
	}
	return n
}

// streamFor derives the deterministic per-activity stream.
func (p *Plan) streamFor(activity string) *actState {
	st, ok := p.acts[activity]
	if !ok {
		st = &actState{rng: newStream(p.cfg.Seed, "act:"+activity)}
		p.acts[activity] = st
	}
	return st
}

// windowsFor derives (lazily, deterministically) the license-loss
// windows of one tool class.
func (p *Plan) windowsFor(class string) []window {
	ws, ok := p.classes[class]
	if ok {
		return ws
	}
	r := newStream(p.cfg.Seed, "class:"+class)
	ws = make([]window, 0, p.cfg.LicenseOutages)
	for i := 0; i < p.cfg.LicenseOutages; i++ {
		off := time.Duration(r.float64() * float64(p.cfg.LicenseHorizon))
		length := time.Duration((0.5 + r.float64()) * float64(p.cfg.LicenseLength))
		from := p.cfg.LicenseStart.Add(off)
		ws = append(ws, window{From: from, To: from.Add(length)})
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].From.Before(ws[j].From) })
	p.classes[class] = ws
	return ws
}

// Windows reports the license-loss windows of a tool class (for exhibits
// and tests; deterministic per seed).
func (p *Plan) Windows(class string) []struct{ From, To time.Time } {
	p.mu.Lock()
	defer p.mu.Unlock()
	ws := p.windowsFor(class)
	out := make([]struct{ From, To time.Time }, len(ws))
	for i, w := range ws {
		out[i] = struct{ From, To time.Time }{w.From, w.To}
	}
	return out
}

// decision is the resolved fault for one application.
type decision struct {
	kind     Kind
	attempt  int
	until    time.Time // license window end
	workFrac float64   // crash: fraction of the run's work consumed
}

// decide resolves the fault for one application of activity/class at
// virtual time now, records it in the history, and bumps the counters.
func (p *Plan) decide(activity, class string, now time.Time) decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.streamFor(activity)
	st.attempts++
	d := decision{attempt: st.attempts, kind: None}

	// License windows preempt the activity stream: they are a property
	// of (class, time), not of the attempt, so waiting them out does not
	// consume or shift the activity's fault sequence.
	if !now.IsZero() {
		for _, w := range p.windowsFor(class) {
			if !now.Before(w.From) && now.Before(w.To) {
				d.kind = License
				d.until = w.To
				p.record(activity, d, now)
				return d
			}
		}
	}

	if st.burst > 0 {
		st.burst--
		d.kind = Crash
		d.workFrac = 0.1 + 0.9*st.rng.float64()
		p.record(activity, d, now)
		return d
	}

	u := st.rng.float64()
	switch {
	case u < p.cfg.Crash:
		d.kind = Crash
		if p.cfg.CrashBurst > 1 {
			st.burst = int(st.rng.next() % uint64(p.cfg.CrashBurst))
		}
		d.workFrac = 0.1 + 0.9*st.rng.float64()
	case u < p.cfg.Crash+p.cfg.Hang:
		d.kind = Hang
	case u < p.cfg.Crash+p.cfg.Hang+p.cfg.Corrupt:
		d.kind = Corrupt
	}
	p.record(activity, d, now)
	return d
}

// record appends to the history and counts injected faults.
func (p *Plan) record(activity string, d decision, now time.Time) {
	p.history = append(p.history, Injection{
		Activity: activity, Attempt: d.attempt, Kind: d.kind, At: now,
	})
	if d.kind == None || p.reg == nil {
		return
	}
	c, ok := p.byKind[d.kind]
	if !ok {
		c = p.mFaults.With(string(d.kind))
		p.byKind[d.kind] = c
	}
	c.Inc()
}

// rng is a splitmix64 stream (the monte engine's determinism idiom): the
// state advances by a fixed odd constant and the output is a bijective
// hash of the state.
type rng uint64

const golden = 0x9e3779b97f4a7c15

// newStream derives the stream for one namespace (activity or class)
// under a seed: the namespace is hashed so adjacent names land in
// decorrelated states.
func newStream(seed int64, namespace string) rng {
	h := fnv.New64a()
	h.Write([]byte(namespace))
	return rng(mix64(mix64(uint64(seed)) + golden*mix64(h.Sum64())))
}

func (r *rng) next() uint64 {
	*r += golden
	return mix64(uint64(*r))
}

func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// mix64 is the splitmix64 finalizer (Stafford variant 13).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
