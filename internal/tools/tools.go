// Package tools provides simulated CAD tools.
//
// The paper's Hercules installation drove real Mentor Graphics tools; this
// reproduction substitutes deterministic pseudo-tools (DESIGN.md §5). Each
// simulated tool consumes design data bytes, produces derived output bytes,
// and reports how much *working time* the application took on the virtual
// clock. Runtimes, goal attainment (does the designer accept this version
// or iterate?), and failures are drawn from a PRNG seeded by the tool
// instance and iteration number, so every experiment is reproducible while
// still exercising the iterate-until-goals-met behaviour the schedule
// tracker must handle.
//
// The stream is math/rand's: a tool run draws what
// rand.New(rand.NewSource(seed)) would, computed lazily so the run does
// not pay for seeding a 607-word generator it draws four values from
// (lazyrand.go).
package tools

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Result is the outcome of one tool application.
type Result struct {
	// Output is the produced design data.
	Output []byte
	// Work is the working time the application consumed.
	Work time.Duration
	// GoalMet reports whether the produced version meets the design goals;
	// if false the designer will iterate the activity.
	GoalMet bool
}

// Tool is a runnable tool instance bound to an activity.
type Tool interface {
	// Instance is the unique tool instance reference, e.g. "hspice#1".
	Instance() string
	// Class is the schema tool class, e.g. "simulator".
	Class() string
	// Run applies the tool to the named inputs for the given 1-based
	// iteration. It returns an error to model a failed run (crash, license
	// loss); failed runs consume time but produce no data.
	Run(inputs map[string][]byte, iteration int) (Result, error)
}

// Profile parameterizes a simulated tool.
type Profile struct {
	// Base is the nominal working time of one application.
	Base time.Duration
	// Jitter is the relative runtime spread: actual runtime is uniform in
	// [Base*(1-Jitter), Base*(1+Jitter)]. Must be in [0, 1).
	Jitter float64
	// MeanIterations is the expected number of applications before the
	// design goals are met (≥ 1). Goal attainment per iteration has
	// probability 1/MeanIterations, with the final safeguard that
	// iteration 2*MeanIterations always succeeds.
	MeanIterations float64
	// FailureRate is the probability that an application fails outright.
	FailureRate float64
}

// Validate rejects malformed profiles at construction time. Jitter and
// FailureRate must lie in [0,1) and be actual numbers — NaN compares
// false against every bound, so without the explicit checks a NaN
// profile slips through and silently misbehaves (NaN work durations,
// never-failing failure draws).
func (p Profile) Validate() error {
	if p.Base <= 0 {
		return fmt.Errorf("tools: profile base %v must be positive", p.Base)
	}
	if math.IsNaN(p.Jitter) || p.Jitter < 0 || p.Jitter >= 1 {
		return fmt.Errorf("tools: profile jitter %v out of [0,1)", p.Jitter)
	}
	if math.IsNaN(p.MeanIterations) || math.IsInf(p.MeanIterations, 0) || p.MeanIterations < 1 {
		return fmt.Errorf("tools: mean iterations %v must be >= 1", p.MeanIterations)
	}
	if math.IsNaN(p.FailureRate) || p.FailureRate < 0 || p.FailureRate >= 1 {
		return fmt.Errorf("tools: failure rate %v out of [0,1)", p.FailureRate)
	}
	return nil
}

// SimTool is a deterministic simulated tool.
type SimTool struct {
	instance string
	class    string
	profile  Profile
	seed     uint64
}

var _ Tool = (*SimTool)(nil)

// NewSim builds a simulated tool instance. The seed namespace is the
// instance name, so distinct instances of the same class behave
// differently but reproducibly.
func NewSim(class, instance string, p Profile) (*SimTool, error) {
	if class == "" || instance == "" {
		return nil, fmt.Errorf("tools: class and instance must be non-empty")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(class))
	h.Write([]byte{0})
	h.Write([]byte(instance))
	return &SimTool{instance: instance, class: class, profile: p, seed: h.Sum64()}, nil
}

// Instance implements Tool.
func (t *SimTool) Instance() string { return t.instance }

// Class implements Tool.
func (t *SimTool) Class() string { return t.class }

// Profile returns the tool's simulation parameters.
func (t *SimTool) Profile() Profile { return t.profile }

// inputHashes sorts the input classes once and feeds both FNV states:
// seed covers every class name and content (the random source), digest
// the contents alone (the output's input digest).
func inputHashes(inputs map[string][]byte) (seed, digest uint64) {
	keys := make([]string, 0, len(inputs))
	for k := range inputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	hs, hd := fnv.New64a(), fnv.New64a()
	for _, k := range keys {
		hs.Write([]byte(k))
		hs.Write([]byte{0})
		hs.Write(inputs[k])
		hs.Write([]byte{0})
		hd.Write(inputs[k])
	}
	return hs.Sum64(), hd.Sum64()
}

// source returns the deterministic random source for one application:
// it depends on the tool identity, the iteration, and the input
// content (inputHashes' seed), so re-running the same application
// reproduces the same result.
func (t *SimTool) source(inputSeed uint64, iteration int) rand.Source {
	return newLazySource(int64(t.seed ^ inputSeed ^ (uint64(iteration) * 0x9e3779b97f4a7c15)))
}

// rng is the random source Run draws from for these inputs.
func (t *SimTool) rng(inputs map[string][]byte, iteration int) rand.Source {
	seed, _ := inputHashes(inputs)
	return t.source(seed, iteration)
}

// Run implements Tool. The output is a deterministic text artifact
// whose content reflects the tool, iteration, and an input digest —
// enough to give Level 4 distinct, traceable versions.
func (t *SimTool) Run(inputs map[string][]byte, iteration int) (Result, error) {
	if iteration < 1 {
		return Result{}, fmt.Errorf("tools: iteration %d must be >= 1", iteration)
	}
	seed, digest := inputHashes(inputs)
	rng := rand.New(t.source(seed, iteration))
	spread := 1 + t.profile.Jitter*(2*rng.Float64()-1)
	work := time.Duration(float64(t.profile.Base) * spread)
	if rng.Float64() < t.profile.FailureRate {
		return Result{Work: work}, fmt.Errorf("tools: %s failed on iteration %d", t.instance, iteration)
	}
	goalMet := rng.Float64() < 1/t.profile.MeanIterations ||
		float64(iteration) >= 2*t.profile.MeanIterations
	out := artifact(t.instance, t.class, iteration, digest, rng.Float64())
	return Result{Output: out, Work: work, GoalMet: goalMet}, nil
}

// artifact renders the text Run produces; for a quality in
// [0, 1) it writes what fmt's "# produced by %s (class %s)\n# iteration
// %d\n# input digest %016x\n# quality %.4f\n" does, byte for byte.
func artifact(instance, class string, iteration int, digest uint64, quality float64) []byte {
	b := make([]byte, 0, 112+len(instance)+len(class))
	b = append(b, "# produced by "...)
	b = append(b, instance...)
	b = append(b, " (class "...)
	b = append(b, class...)
	b = append(b, ")\n# iteration "...)
	b = strconv.AppendInt(b, int64(iteration), 10)
	b = append(b, "\n# input digest "...)
	var hex [16]byte
	h := strconv.AppendUint(hex[:0], digest, 16)
	for i := len(h); i < 16; i++ {
		b = append(b, '0')
	}
	b = append(b, h...)
	b = append(b, "\n# quality "...)
	b = strconv.AppendFloat(b, quality, 'f', 4, 64)
	return append(b, '\n')
}

// Registry maps activities to bound tool instances for an execution
// session: the "binding tools to tasks" half of task preparation.
//
// An activity may carry several interchangeable instances (a simulator
// farm, two license pools): the first is active, the rest are failover
// alternates the engine rotates to when runs keep failing.
//
// A Registry is safe for concurrent use: the serving layer reads
// bindings (For, Bound) while an executing run may Rotate to an
// alternate or rebind after a fault.
//
// Every change to the bindings moves the registry's generation, so a
// reader can tell whether what it derived from the bindings is still
// current (see Generation).
type Registry struct {
	mu         sync.RWMutex
	byActivity map[string]*binding
	gen        atomic.Uint64 // moved under mu by every mutator
}

// binding is one activity's instances; instances[active] runs next.
type binding struct {
	instances []Tool
	active    int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byActivity: make(map[string]*binding)} }

// Bind assigns a tool instance to an activity, replacing any previous
// bindings including alternates (tools "are not tied to specific tasks"
// — rebinding is normal).
func (r *Registry) Bind(activity string, t Tool) error {
	if activity == "" {
		return fmt.Errorf("tools: empty activity")
	}
	if t == nil {
		return fmt.Errorf("tools: nil tool for activity %q", activity)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byActivity[activity] = &binding{instances: []Tool{t}}
	r.gen.Add(1)
	return nil
}

// AddAlternate appends a failover instance for an activity. The first
// bound instance stays active; alternates run only after Rotate. Binding
// the same instance ref twice is rejected — failover to an identical
// tool would retry the identical failure.
func (r *Registry) AddAlternate(activity string, t Tool) error {
	if t == nil {
		return fmt.Errorf("tools: nil tool for activity %q", activity)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.byActivity[activity]
	if b == nil {
		if activity == "" {
			return fmt.Errorf("tools: empty activity")
		}
		r.byActivity[activity] = &binding{instances: []Tool{t}}
		r.gen.Add(1)
		return nil
	}
	for _, have := range b.instances {
		if have.Instance() == t.Instance() {
			return fmt.Errorf("tools: instance %s already bound to %q", t.Instance(), activity)
		}
	}
	b.instances = append(b.instances, t)
	r.gen.Add(1)
	return nil
}

// For returns the active tool bound to an activity, or nil.
func (r *Registry) For(activity string) Tool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b := r.byActivity[activity]
	if b == nil {
		return nil
	}
	return b.instances[b.active]
}

// Bound returns all instances bound to an activity, active first in
// rotation order.
func (r *Registry) Bound(activity string) []Tool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b := r.byActivity[activity]
	if b == nil {
		return nil
	}
	out := make([]Tool, 0, len(b.instances))
	for i := range b.instances {
		out = append(out, b.instances[(b.active+i)%len(b.instances)])
	}
	return out
}

// Rotate advances an activity's binding to its next alternate and
// returns the newly active tool. With fewer than two instances it
// reports rotated=false and leaves the binding alone.
func (r *Registry) Rotate(activity string) (t Tool, rotated bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.byActivity[activity]
	if b == nil {
		return nil, false
	}
	if len(b.instances) < 2 {
		return b.instances[b.active], false
	}
	b.active = (b.active + 1) % len(b.instances)
	r.gen.Add(1)
	return b.instances[b.active], true
}

// Map replaces every bound instance t of every activity with fn(activity,
// t), keeping each activity's rotation: how a forked project moves its
// cloned bindings onto state of its own (a fault plan's fork).
func (r *Registry) Map(fn func(activity string, t Tool) Tool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for a, b := range r.byActivity {
		for i, t := range b.instances {
			b.instances[i] = fn(a, t)
		}
	}
	r.gen.Add(1)
}

// Generation counts the registry's binding changes: Bind, AddAlternate,
// a Rotate that rotates, and Map each move it. A reader that loads the
// generation before deriving something from the bindings and finds it
// unchanged afterwards derived from one consistent set of bindings, and
// may keep the result until the generation moves again.
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// Clone returns an independent registry with the same bindings and
// generation. Tool instances are shared (they are stateless); rebinding
// in the clone never affects the original — what a forked project needs
// to explore alternative tool profiles.
func (r *Registry) Clone() *Registry {
	c := NewRegistry()
	r.mu.RLock()
	defer r.mu.RUnlock()
	c.gen.Store(r.gen.Load())
	for a, b := range r.byActivity {
		c.byActivity[a] = &binding{
			instances: append([]Tool(nil), b.instances...),
			active:    b.active,
		}
	}
	return c
}

// Activities returns the bound activities, sorted.
func (r *Registry) Activities() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byActivity))
	for a := range r.byActivity {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// StandardProfiles returns representative profiles for the CAD tool
// classes used across the examples and benchmarks. Times are working time
// on a designer's calendar.
func StandardProfiles() map[string]Profile {
	h := time.Hour
	return map[string]Profile{
		"editor":      {Base: 6 * h, Jitter: 0.40, MeanIterations: 1.6},
		"simulator":   {Base: 3 * h, Jitter: 0.30, MeanIterations: 2.2},
		"synthesizer": {Base: 8 * h, Jitter: 0.25, MeanIterations: 1.8},
		"planner":     {Base: 5 * h, Jitter: 0.35, MeanIterations: 1.4},
		"router":      {Base: 12 * h, Jitter: 0.30, MeanIterations: 2.0},
		"checker":     {Base: 2 * h, Jitter: 0.20, MeanIterations: 1.3},
		"sta":         {Base: 3 * h, Jitter: 0.20, MeanIterations: 1.5},
		"extractor":   {Base: 4 * h, Jitter: 0.25, MeanIterations: 1.2},
		"lvs":         {Base: 2 * h, Jitter: 0.20, MeanIterations: 1.3},
	}
}

// DefaultFor builds a simulated instance for a tool class, using its
// standard profile when known and a generic profile otherwise.
func DefaultFor(class, instance string) (*SimTool, error) {
	p, ok := StandardProfiles()[class]
	if !ok {
		p = Profile{Base: 4 * time.Hour, Jitter: 0.3, MeanIterations: 1.7}
	}
	return NewSim(class, instance, p)
}
