package tools

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sim(t *testing.T, class, inst string, p Profile) *SimTool {
	t.Helper()
	s, err := NewSim(class, inst, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var basic = Profile{Base: 4 * time.Hour, Jitter: 0.25, MeanIterations: 2}

func TestNewSimValidation(t *testing.T) {
	cases := []struct {
		name        string
		class, inst string
		p           Profile
	}{
		{"empty class", "", "x", basic},
		{"empty instance", "sim", "", basic},
		{"zero base", "sim", "x", Profile{Base: 0, MeanIterations: 1}},
		{"negative jitter", "sim", "x", Profile{Base: time.Hour, Jitter: -0.1, MeanIterations: 1}},
		{"jitter one", "sim", "x", Profile{Base: time.Hour, Jitter: 1, MeanIterations: 1}},
		{"mean iterations zero", "sim", "x", Profile{Base: time.Hour, MeanIterations: 0}},
		{"failure rate one", "sim", "x", Profile{Base: time.Hour, MeanIterations: 1, FailureRate: 1}},
	}
	for _, tc := range cases {
		if _, err := NewSim(tc.class, tc.inst, tc.p); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a := sim(t, "simulator", "hspice#1", basic)
	in := map[string][]byte{"netlist": []byte("v1"), "stimuli": []byte("s")}
	r1, err1 := a.Run(in, 1)
	r2, err2 := a.Run(in, 1)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Work != r2.Work || r1.GoalMet != r2.GoalMet || string(r1.Output) != string(r2.Output) {
		t.Fatalf("non-deterministic: %+v vs %+v", r1, r2)
	}
}

func TestRunVariesByIterationAndInput(t *testing.T) {
	a := sim(t, "simulator", "hspice#1", basic)
	in1 := map[string][]byte{"netlist": []byte("v1")}
	in2 := map[string][]byte{"netlist": []byte("v2")}
	r1, _ := a.Run(in1, 1)
	r2, _ := a.Run(in1, 2)
	r3, _ := a.Run(in2, 1)
	if r1.Work == r2.Work && string(r1.Output) == string(r2.Output) {
		t.Fatal("iteration did not change outcome")
	}
	if string(r1.Output) == string(r3.Output) {
		t.Fatal("input change did not change output")
	}
}

func TestRunWorkWithinJitterBounds(t *testing.T) {
	a := sim(t, "simulator", "hspice#1", basic)
	lo := time.Duration(float64(basic.Base) * (1 - basic.Jitter))
	hi := time.Duration(float64(basic.Base) * (1 + basic.Jitter))
	for i := 1; i <= 50; i++ {
		r, err := a.Run(map[string][]byte{"n": {byte(i)}}, i)
		if err != nil {
			continue
		}
		if r.Work < lo || r.Work > hi {
			t.Fatalf("iteration %d work %v outside [%v,%v]", i, r.Work, lo, hi)
		}
	}
}

func TestRunIterationValidation(t *testing.T) {
	a := sim(t, "simulator", "s#1", basic)
	if _, err := a.Run(nil, 0); err == nil {
		t.Fatal("iteration 0 accepted")
	}
}

func TestGoalAlwaysMetByIterationBound(t *testing.T) {
	p := Profile{Base: time.Hour, Jitter: 0, MeanIterations: 3}
	a := sim(t, "router", "r#1", p)
	// Iteration 6 = 2*MeanIterations must always meet goals.
	r, err := a.Run(map[string][]byte{"x": []byte("y")}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !r.GoalMet {
		t.Fatal("safeguard iteration did not meet goal")
	}
}

func TestMeanIterationsRoughlyHonored(t *testing.T) {
	p := Profile{Base: time.Hour, Jitter: 0, MeanIterations: 2}
	a := sim(t, "simulator", "s#1", p)
	met := 0
	const n = 400
	for i := 0; i < n; i++ {
		r, err := a.Run(map[string][]byte{"in": {byte(i), byte(i >> 8)}}, 1)
		if err != nil {
			continue
		}
		if r.GoalMet {
			met++
		}
	}
	frac := float64(met) / n
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("first-iteration goal rate %.2f, want ~0.5", frac)
	}
}

func TestFailureRate(t *testing.T) {
	p := Profile{Base: time.Hour, Jitter: 0, MeanIterations: 1, FailureRate: 0.5}
	a := sim(t, "router", "r#1", p)
	fails := 0
	const n = 300
	for i := 0; i < n; i++ {
		_, err := a.Run(map[string][]byte{"in": {byte(i), byte(i >> 8)}}, 1)
		if err != nil {
			fails++
		}
	}
	frac := float64(fails) / n
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("failure rate %.2f, want ~0.5", frac)
	}
}

func TestFailedRunConsumesTime(t *testing.T) {
	p := Profile{Base: time.Hour, Jitter: 0, MeanIterations: 1, FailureRate: 0.999}
	a := sim(t, "router", "r#1", p)
	r, err := a.Run(map[string][]byte{"in": []byte("x")}, 1)
	if err == nil {
		t.Skip("improbable success")
	}
	if r.Work != time.Hour {
		t.Fatalf("failed run work = %v, want 1h", r.Work)
	}
	if r.Output != nil {
		t.Fatal("failed run produced output")
	}
}

func TestOutputMentionsProvenance(t *testing.T) {
	a := sim(t, "simulator", "hspice#1", basic)
	r, err := a.Run(map[string][]byte{"netlist": []byte("v1")}, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := string(r.Output)
	for _, want := range []string{"hspice#1", "simulator", "iteration 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	tool := sim(t, "editor", "e#1", basic)
	if err := r.Bind("Create", tool); err != nil {
		t.Fatal(err)
	}
	if got := r.For("Create"); got != Tool(tool) {
		t.Fatalf("For = %v", got)
	}
	if r.For("Nope") != nil {
		t.Fatal("unbound activity returned tool")
	}
	if err := r.Bind("", tool); err == nil {
		t.Fatal("empty activity accepted")
	}
	if err := r.Bind("Create", nil); err == nil {
		t.Fatal("nil tool accepted")
	}
	// Rebinding replaces.
	tool2 := sim(t, "editor", "e#2", basic)
	r.Bind("Create", tool2)
	if got := r.For("Create"); got.Instance() != "e#2" {
		t.Fatalf("rebind ignored: %v", got.Instance())
	}
	if acts := r.Activities(); len(acts) != 1 || acts[0] != "Create" {
		t.Fatalf("Activities = %v", acts)
	}
}

func TestStandardProfilesValid(t *testing.T) {
	for class, p := range StandardProfiles() {
		if _, err := NewSim(class, class+"#std", p); err != nil {
			t.Errorf("standard profile %s invalid: %v", class, err)
		}
	}
}

func TestDefaultFor(t *testing.T) {
	known, err := DefaultFor("simulator", "s#1")
	if err != nil || known.Profile().Base != 3*time.Hour {
		t.Fatalf("DefaultFor known = %+v, %v", known, err)
	}
	unknown, err := DefaultFor("exotic", "x#1")
	if err != nil || unknown.Profile().Base != 4*time.Hour {
		t.Fatalf("DefaultFor unknown = %+v, %v", unknown, err)
	}
}

// Property: Run never produces work outside jitter bounds nor an empty
// output on success, for arbitrary inputs.
func TestRunBoundsProperty(t *testing.T) {
	a := sim(t, "simulator", "p#1", basic)
	lo := time.Duration(float64(basic.Base) * (1 - basic.Jitter))
	hi := time.Duration(float64(basic.Base) * (1 + basic.Jitter))
	f := func(data []byte, iter uint8) bool {
		it := int(iter%10) + 1
		r, err := a.Run(map[string][]byte{"in": data}, it)
		if err != nil {
			return r.Work >= lo && r.Work <= hi
		}
		return r.Work >= lo && r.Work <= hi && len(r.Output) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileValidate(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		p    Profile
		ok   bool
	}{
		{"typical", Profile{Base: time.Hour, Jitter: 0.3, MeanIterations: 2, FailureRate: 0.1}, true},
		{"zero jitter and failures", Profile{Base: time.Hour, MeanIterations: 1}, true},
		{"near-one bounds", Profile{Base: time.Hour, Jitter: 0.999, MeanIterations: 1, FailureRate: 0.999}, true},
		{"zero base", Profile{MeanIterations: 1}, false},
		{"negative base", Profile{Base: -time.Hour, MeanIterations: 1}, false},
		{"jitter below zero", Profile{Base: time.Hour, Jitter: -0.01, MeanIterations: 1}, false},
		{"jitter at one", Profile{Base: time.Hour, Jitter: 1, MeanIterations: 1}, false},
		{"jitter NaN", Profile{Base: time.Hour, Jitter: nan, MeanIterations: 1}, false},
		{"failure below zero", Profile{Base: time.Hour, MeanIterations: 1, FailureRate: -0.01}, false},
		{"failure at one", Profile{Base: time.Hour, MeanIterations: 1, FailureRate: 1}, false},
		{"failure NaN", Profile{Base: time.Hour, MeanIterations: 1, FailureRate: nan}, false},
		{"mean below one", Profile{Base: time.Hour, MeanIterations: 0.9}, false},
		{"mean NaN", Profile{Base: time.Hour, MeanIterations: nan}, false},
		{"mean Inf", Profile{Base: time.Hour, MeanIterations: math.Inf(1)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

func TestRegistryAlternatesAndRotation(t *testing.T) {
	r := NewRegistry()
	a := sim(t, "editor", "e#1", basic)
	b := sim(t, "editor", "e#2", basic)
	c := sim(t, "editor", "e#3", basic)

	// AddAlternate on an unbound activity acts as Bind.
	if err := r.AddAlternate("Create", a); err != nil {
		t.Fatal(err)
	}
	if r.For("Create") != Tool(a) {
		t.Fatal("first alternate did not become active")
	}
	if err := r.AddAlternate("Create", b); err != nil {
		t.Fatal(err)
	}
	if err := r.AddAlternate("Create", c); err != nil {
		t.Fatal(err)
	}
	// Duplicate instance refs are rejected (failover to an identical tool
	// would retry the identical failure).
	if err := r.AddAlternate("Create", sim(t, "editor", "e#2", basic)); err == nil {
		t.Fatal("duplicate instance accepted as alternate")
	}
	if err := r.AddAlternate("Create", nil); err == nil {
		t.Fatal("nil alternate accepted")
	}
	got := r.Bound("Create")
	if len(got) != 3 || got[0].Instance() != "e#1" || got[1].Instance() != "e#2" || got[2].Instance() != "e#3" {
		t.Fatalf("Bound order wrong: %v", got)
	}

	// Rotation walks the ring and Bound follows the active instance.
	next, rotated := r.Rotate("Create")
	if !rotated || next.Instance() != "e#2" {
		t.Fatalf("Rotate -> %v, %v", next, rotated)
	}
	if bound := r.Bound("Create"); bound[0].Instance() != "e#2" || bound[2].Instance() != "e#1" {
		t.Fatalf("Bound after rotate: %v", bound)
	}
	r.Rotate("Create")
	next, _ = r.Rotate("Create")
	if next.Instance() != "e#1" {
		t.Fatalf("ring did not wrap: %v", next.Instance())
	}
	// Single-instance and unbound activities do not rotate.
	r.Bind("Solo", a)
	if tl, rotated := r.Rotate("Solo"); rotated || tl != Tool(a) {
		t.Fatal("single binding rotated")
	}
	if _, rotated := r.Rotate("Nope"); rotated {
		t.Fatal("unbound activity rotated")
	}
	// Bind replaces the whole ring, alternates included.
	r.Bind("Create", c)
	if bound := r.Bound("Create"); len(bound) != 1 || bound[0].Instance() != "e#3" {
		t.Fatalf("Bind did not replace alternates: %v", bound)
	}
}

func TestRegistryCloneIndependentAlternates(t *testing.T) {
	r := NewRegistry()
	r.Bind("Create", sim(t, "editor", "e#1", basic))
	r.AddAlternate("Create", sim(t, "editor", "e#2", basic))
	c := r.Clone()
	// Rotating and extending the clone leaves the original alone.
	c.Rotate("Create")
	c.AddAlternate("Create", sim(t, "editor", "e#3", basic))
	if r.For("Create").Instance() != "e#1" {
		t.Fatal("clone rotation leaked into original")
	}
	if len(r.Bound("Create")) != 2 {
		t.Fatal("clone alternate leaked into original")
	}
	if c.For("Create").Instance() != "e#2" || len(c.Bound("Create")) != 3 {
		t.Fatal("clone state wrong")
	}
}

// TestRegistryGeneration: every binding change moves the generation and
// nothing else does — a refused Bind or AddAlternate, a Rotate with no
// alternate and every read leave it alone. A clone starts at its
// parent's generation and moves independently.
func TestRegistryGeneration(t *testing.T) {
	r := NewRegistry()
	a, b := sim(t, "sim", "a#1", basic), sim(t, "sim", "a#2", basic)
	step := func(what string, moves bool, fn func()) {
		t.Helper()
		before := r.Generation()
		fn()
		if got := r.Generation() != before; got != moves {
			t.Fatalf("%s: generation moved = %t, want %t", what, got, moves)
		}
	}
	step("Bind", true, func() { r.Bind("A", a) })
	step("refused Bind", false, func() { r.Bind("", a) })
	step("Rotate without alternate", false, func() { r.Rotate("A") })
	step("Rotate of unbound activity", false, func() { r.Rotate("B") })
	step("AddAlternate", true, func() { r.AddAlternate("A", b) })
	step("refused AddAlternate", false, func() { r.AddAlternate("A", b) })
	step("AddAlternate to unbound activity", true, func() { r.AddAlternate("B", b) })
	step("Rotate", true, func() { r.Rotate("A") })
	step("Map", true, func() { r.Map(func(_ string, t Tool) Tool { return t }) })
	step("reads", false, func() {
		r.For("A")
		r.Bound("A")
		r.Activities()
	})
	var c *Registry
	step("Clone", false, func() { c = r.Clone() })
	if c.Generation() != r.Generation() {
		t.Fatalf("clone generation %d, parent %d", c.Generation(), r.Generation())
	}
	step("Bind in the clone", false, func() { c.Bind("A", b) })
	if c.Generation() != r.Generation()+1 {
		t.Fatalf("clone generation %d after one Bind, want %d", c.Generation(), r.Generation()+1)
	}
}
