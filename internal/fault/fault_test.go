package fault

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"flowsched/internal/obs"
	"flowsched/internal/tools"
)

func TestConfigValidate(t *testing.T) {
	anchor := time.Date(1995, 6, 5, 9, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"typical", Config{Seed: 7, Crash: 0.2, Hang: 0.1, Corrupt: 0.05}, true},
		{"crash negative", Config{Crash: -0.1}, false},
		{"crash one", Config{Crash: 1}, false},
		{"crash NaN", Config{Crash: math.NaN()}, false},
		{"hang NaN", Config{Hang: math.NaN()}, false},
		{"corrupt NaN", Config{Corrupt: math.NaN()}, false},
		{"sum at one", Config{Crash: 0.5, Hang: 0.3, Corrupt: 0.2}, false},
		{"burst negative", Config{CrashBurst: -1}, false},
		{"outages negative", Config{LicenseOutages: -1}, false},
		{"outages without anchor", Config{LicenseOutages: 2}, false},
		{"outages with anchor", Config{LicenseOutages: 2, LicenseStart: anchor}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if c.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !c.ok && err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

// TestPlanDeterminism: two plans with the same seed make bit-identical
// decisions however the activities interleave; a different seed diverges.
func TestPlanDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Crash: 0.25, CrashBurst: 3, Hang: 0.15, Corrupt: 0.1}
	run := func(seed int64) []Injection {
		c := cfg
		c.Seed = seed
		p, err := NewPlan(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			// Interleave two activities; each stream is independent.
			p.decide("Place", "router", time.Time{})
			p.decide("Route", "router", time.Time{})
		}
		return p.History()
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("history lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].Kind != c[i].Kind {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical fault sequences")
	}
}

// TestCrashBursts: once a burst starts, the scheduled number of follow-up
// applications crash unconditionally before the stream resumes drawing.
func TestCrashBursts(t *testing.T) {
	p, err := NewPlan(Config{Seed: 9, Crash: 0.3, CrashBurst: 4})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	for i := 0; i < 200; i++ {
		kinds = append(kinds, p.decide("Sim", "simulator", time.Time{}).kind)
	}
	crashes, bursty := 0, false
	for i, k := range kinds {
		if k == Crash {
			crashes++
			if i > 0 && kinds[i-1] == Crash {
				bursty = true
			}
		}
	}
	if crashes == 0 {
		t.Fatal("200 applications at 30% crash probability injected nothing")
	}
	if !bursty {
		t.Fatal("CrashBurst=4 never produced consecutive crashes in 200 applications")
	}
	if got := p.Injected(); got != crashes {
		t.Fatalf("Injected() = %d, want %d", got, crashes)
	}
}

// TestLicenseWindows: windows are deterministic per (seed, class), sorted,
// sized around LicenseLength, and preempt the activity stream without
// consuming its draws.
func TestLicenseWindows(t *testing.T) {
	anchor := time.Date(1995, 6, 5, 0, 0, 0, 0, time.UTC)
	cfg := Config{
		Seed: 5, LicenseOutages: 3, LicenseStart: anchor,
		LicenseHorizon: 10 * 24 * time.Hour, LicenseLength: 4 * time.Hour,
	}
	p1, _ := NewPlan(cfg)
	p2, _ := NewPlan(cfg)
	w1, w2 := p1.Windows("simulator"), p2.Windows("simulator")
	if len(w1) != 3 || len(w2) != 3 {
		t.Fatalf("windows = %d/%d, want 3", len(w1), len(w2))
	}
	for i := range w1 {
		if !w1[i].From.Equal(w2[i].From) || !w1[i].To.Equal(w2[i].To) {
			t.Fatalf("window %d not deterministic: %+v vs %+v", i, w1[i], w2[i])
		}
		if i > 0 && w1[i].From.Before(w1[i-1].From) {
			t.Fatalf("windows unsorted at %d", i)
		}
		length := w1[i].To.Sub(w1[i].From)
		if length < 2*time.Hour || length >= 6*time.Hour {
			t.Fatalf("window %d length %v outside [0.5, 1.5) of 4h", i, length)
		}
	}
	if ws := p1.Windows("editor"); len(ws) == 3 && ws[0].From.Equal(w1[0].From) {
		t.Fatal("distinct classes share identical outage windows")
	}

	// Inside a window: License, with Until = window end.
	inside := w1[0].From.Add(time.Minute)
	d := p1.decide("Sim", "simulator", inside)
	if d.kind != License || !d.until.Equal(w1[0].To) {
		t.Fatalf("decision inside window = %+v, want License until %v", d, w1[0].To)
	}
	// The license hit did not consume the activity stream: p1's next
	// non-license decisions match p2's from the start.
	var after, clean []Kind
	for i := 0; i < 20; i++ {
		after = append(after, p1.decide("Sim", "simulator", time.Time{}).kind)
		clean = append(clean, p2.decide("Sim", "simulator", time.Time{}).kind)
	}
	for i := range after {
		if after[i] != clean[i] {
			t.Fatalf("license hit shifted the activity stream at %d: %v vs %v", i, after[i], clean[i])
		}
	}
}

// stubTool is a deterministic inner tool for injector tests.
type stubTool struct{ instance, class string }

func (s *stubTool) Instance() string { return s.instance }
func (s *stubTool) Class() string    { return s.class }
func (s *stubTool) Run(map[string][]byte, int) (tools.Result, error) {
	return tools.Result{Output: []byte("payload"), Work: 2 * time.Hour, GoalMet: true}, nil
}

// decideAll wraps a stub tool under a config whose dominant probability
// makes (essentially) every application inject the same kind.
func decideAll(t *testing.T, cfg Config) tools.Tool {
	t.Helper()
	p, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p.Wrap("Act", &stubTool{instance: "s#1", class: "simulator"}, nil)
}

func TestInjectorCrash(t *testing.T) {
	// Crash=0.999 < 1 keeps the config valid while crashing (essentially)
	// every application.
	wrapped := decideAll(t, Config{Seed: 1, Crash: 0.999})
	res, err := wrapped.Run(nil, 1)
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CrashError", err)
	}
	if ce.Activity != "Act" || ce.Attempt != 1 {
		t.Fatalf("crash error = %+v", ce)
	}
	if res.Work <= 0 || res.Work >= 2*time.Hour {
		t.Fatalf("crash consumed %v, want partial of 2h", res.Work)
	}
	if len(res.Output) != 0 {
		t.Fatal("crashed run produced output")
	}
}

func TestInjectorHang(t *testing.T) {
	wrapped := decideAll(t, Config{Seed: 1, Hang: 0.999, HangWork: 500 * time.Hour})
	res, err := wrapped.Run(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Work != 500*time.Hour {
		t.Fatalf("hang work = %v, want 500h", res.Work)
	}
	if !bytes.Equal(res.Output, []byte("payload")) {
		t.Fatal("hang garbled output")
	}
}

func TestInjectorCorruptAndCheck(t *testing.T) {
	wrapped := decideAll(t, Config{Seed: 1, Corrupt: 0.999})
	res, err := wrapped.Run(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !IsCorrupt(res.Output) {
		t.Fatal("corrupt output not detected by IsCorrupt")
	}
	if Check("Act", res.Output) == nil {
		t.Fatal("Check accepted corrupt output")
	}
	if Check("Act", []byte("payload")) != nil {
		t.Fatal("Check rejected clean output")
	}
	if bytes.Contains(res.Output, []byte("payload")) {
		t.Fatal("corruption left the payload readable")
	}
}

func TestInjectorLicense(t *testing.T) {
	anchor := time.Date(1995, 6, 5, 0, 0, 0, 0, time.UTC)
	p, err := NewPlan(Config{
		Seed: 5, LicenseOutages: 1, LicenseStart: anchor,
		LicenseHorizon: 24 * time.Hour, LicenseLength: 2 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := p.Windows("simulator")[0]
	now := w.From.Add(time.Minute)
	wrapped := p.Wrap("Act", &stubTool{instance: "s#1", class: "simulator"},
		func() time.Time { return now })
	res, err := wrapped.Run(nil, 1)
	var le *LicenseError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LicenseError", err)
	}
	if !le.RetryAfter().Equal(w.To) {
		t.Fatalf("RetryAfter = %v, want window end %v", le.RetryAfter(), w.To)
	}
	if res.Work >= time.Hour {
		t.Fatalf("license probe consumed %v, want fast failure", res.Work)
	}
}

// TestWrapForwardsProfile: wrapping a SimTool must keep Profile()
// reachable, or risk analysis on a chaos-wrapped registry breaks.
func TestWrapForwardsProfile(t *testing.T) {
	p, _ := NewPlan(Config{Seed: 1})
	sim, err := tools.NewSim("simulator", "spice#1",
		tools.Profile{Base: 3 * time.Hour, Jitter: 0.2, MeanIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := p.Wrap("Sim", sim, nil)
	pt, ok := wrapped.(interface{ Profile() tools.Profile })
	if !ok {
		t.Fatal("wrapped SimTool lost Profile()")
	}
	if pt.Profile() != sim.Profile() {
		t.Fatal("forwarded profile differs")
	}
	if wrapped.Instance() != "spice#1" || wrapped.Class() != "simulator" {
		t.Fatal("identity not forwarded")
	}
	// Idempotent: wrapping the wrapped tool is a no-op.
	if again := p.Wrap("Sim", wrapped, nil); again != wrapped {
		t.Fatal("double wrap created a second injector")
	}
	plain := p.Wrap("Sim", &stubTool{instance: "s#1", class: "t"}, nil)
	if again := p.Wrap("Sim", plain, nil); again != plain {
		t.Fatal("double wrap of plain injector created a second injector")
	}
}

// TestWrapReplacesOtherPlan: arming a new plan over an already-wrapped
// tool swaps the plans instead of stacking injectors — the old plan's
// faults must stop firing.
func TestWrapReplacesOtherPlan(t *testing.T) {
	old, _ := NewPlan(Config{Seed: 1, Crash: 0.999})
	clean, _ := NewPlan(Config{Seed: 2})
	inner := &stubTool{instance: "s#1", class: "t"}
	rewrapped := clean.Wrap("Sim", old.Wrap("Sim", inner, nil), nil)
	inj, ok := rewrapped.(*Injector)
	if !ok || inj.plan != clean || inj.inner != tools.Tool(inner) {
		t.Fatalf("rewrap = %#v, want a clean-plan injector around the original tool", rewrapped)
	}
	if _, err := rewrapped.Run(nil, 1); err != nil {
		t.Fatalf("old plan's crashes survived the rewrap: %v", err)
	}
	// Profiled variant too.
	sim, err := tools.NewSim("simulator", "spice#1",
		tools.Profile{Base: time.Hour, Jitter: 0.1, MeanIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	pw := clean.Wrap("Sim", old.Wrap("Sim", sim, nil), nil)
	pinj, ok := pw.(*profiledInjector)
	if !ok || pinj.plan != clean {
		t.Fatalf("profiled rewrap = %#v, want a clean-plan profiled injector", pw)
	}
}

func TestWrapRegistry(t *testing.T) {
	p, _ := NewPlan(Config{Seed: 1, Crash: 0.999})
	r := tools.NewRegistry()
	if err := r.Bind("Sim", &stubTool{instance: "a#1", class: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddAlternate("Sim", &stubTool{instance: "a#2", class: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := p.WrapRegistry(r, nil); err != nil {
		t.Fatal(err)
	}
	bound := r.Bound("Sim")
	if len(bound) != 2 {
		t.Fatalf("bound = %d, want 2 (alternate preserved)", len(bound))
	}
	for _, tl := range bound {
		if _, err := tl.Run(nil, 1); err == nil {
			t.Fatalf("instance %s not wrapped (no injected crash)", tl.Instance())
		}
	}
	if bound[0].Instance() != "a#1" || bound[1].Instance() != "a#2" {
		t.Fatalf("rotation order changed: %s, %s", bound[0].Instance(), bound[1].Instance())
	}
}

func TestPlanInstrument(t *testing.T) {
	o := obs.New()
	p, _ := NewPlan(Config{Seed: 9, Crash: 0.3, CrashBurst: 4})
	p.Instrument(o)
	for i := 0; i < 100; i++ {
		p.decide("Sim", "simulator", time.Time{})
	}
	faults := o.Metrics().CounterVec("fault_injected_total", "kind")
	total := faults.With("crash").Value()
	if total == 0 {
		t.Fatal(`fault_injected_total{kind="crash"} stayed zero`)
	}
	if int(total) != p.Injected() {
		t.Fatalf("counter %d != Injected() %d", total, p.Injected())
	}
}

// TestPlanForkContinuesIndependently: a fork draws exactly what its
// parent would have drawn next, mid-burst included, starts with an empty
// history, and neither side's draws move the other's streams.
func TestPlanForkContinuesIndependently(t *testing.T) {
	p, _ := NewPlan(Config{Seed: 9, Crash: 0.3, CrashBurst: 4})
	for i := 0; i < 37; i++ {
		p.decide("Sim", "simulator", time.Time{})
		p.decide("Route", "router", time.Time{})
	}
	before := len(p.History())
	f := p.Fork()
	if f.History() != nil || f.Injected() != 0 {
		t.Fatal("fork starts with the parent's history")
	}
	next := func(q *Plan) []decision {
		var ds []decision
		for i := 0; i < 50; i++ {
			ds = append(ds, q.decide("Sim", "simulator", time.Time{}), q.decide("Place", "placer", time.Time{}))
		}
		return ds
	}
	got := next(f)
	if len(p.History()) != before {
		t.Fatal("the fork's draws grew the parent's history")
	}
	if want := next(p); len(got) != len(want) {
		t.Fatalf("fork drew %d decisions, parent %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("decision %d: fork %+v, parent %+v", i, got[i], want[i])
			}
		}
	}
}

// TestRebindMovesInjectorsKeepingRotation: Rebind moves every injector
// of a registry onto the plan, leaves unwrapped tools alone and keeps
// each activity's rotation.
func TestRebindMovesInjectorsKeepingRotation(t *testing.T) {
	old, _ := NewPlan(Config{Seed: 1, Crash: 0.999})
	r := tools.NewRegistry()
	if err := r.Bind("Sim", &stubTool{instance: "a#1", class: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddAlternate("Sim", &stubTool{instance: "a#2", class: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := old.WrapRegistry(r, nil); err != nil {
		t.Fatal(err)
	}
	plain := &stubTool{instance: "b#1", class: "t"}
	if err := r.Bind("Edit", plain); err != nil {
		t.Fatal(err)
	}
	r.Rotate("Sim")
	f := old.Fork()
	f.Rebind(r, nil)
	bound := r.Bound("Sim")
	if bound[0].Instance() != "a#2" || bound[1].Instance() != "a#1" {
		t.Fatalf("rotation lost: %s, %s", bound[0].Instance(), bound[1].Instance())
	}
	for _, tl := range bound {
		if inj, ok := tl.(*Injector); !ok || inj.plan != f {
			t.Fatalf("instance %s is not on the forked plan", tl.Instance())
		}
	}
	if r.For("Edit") != tools.Tool(plain) {
		t.Fatal("Rebind wrapped a tool that had no injector")
	}
	if _, err := r.For("Sim").Run(nil, 1); err == nil {
		t.Fatal("the forked plan does not inject the parent's faults")
	}
	if len(old.History()) != 0 {
		t.Fatal("a run on the rebound registry drew from the parent plan")
	}
}
