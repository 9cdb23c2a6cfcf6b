package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"flowsched/internal/flow"
)

func TestFig4(t *testing.T) {
	s := Fig4()
	if len(s.Rules()) != 2 || s.Name != "circuit" {
		t.Fatalf("Fig4 = %s", s.Format())
	}
}

func TestASIC(t *testing.T) {
	s := ASIC()
	if len(s.Rules()) != 8 {
		t.Fatalf("ASIC rules = %d", len(s.Rules()))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// The full flow is extractable to its signoff reports.
	g, err := flow.FromSchema(s)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := g.Extract("drcreport", "lvsreport", "timingreport", "simreport")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Activities()) != 8 {
		t.Fatalf("full extraction covers %v", tr.Activities())
	}
}

func TestLayeredShape(t *testing.T) {
	s, err := Layered(LayeredConfig{Depth: 3, Width: 4, FanIn: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Rules()); got != 12 {
		t.Fatalf("rules = %d, want 12", got)
	}
	if got := len(s.PrimaryInputs()); got != 4 {
		t.Fatalf("primary inputs = %d, want 4", got)
	}
	// Every rule has exactly FanIn inputs.
	for _, r := range s.Rules() {
		if len(r.Inputs) != 2 {
			t.Fatalf("rule %s inputs = %v", r.Activity, r.Inputs)
		}
	}
}

func TestLayeredValidation(t *testing.T) {
	if _, err := Layered(LayeredConfig{Depth: 0, Width: 1}); err == nil {
		t.Fatal("depth 0 accepted")
	}
	if _, err := Layered(LayeredConfig{Depth: 1, Width: 0}); err == nil {
		t.Fatal("width 0 accepted")
	}
	// FanIn clamps.
	s, err := Layered(LayeredConfig{Depth: 1, Width: 2, FanIn: 99, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Rules() {
		if len(r.Inputs) != 2 {
			t.Fatalf("clamped fanin = %d", len(r.Inputs))
		}
	}
}

func TestLayeredDeterministic(t *testing.T) {
	a, _ := Layered(LayeredConfig{Depth: 4, Width: 3, FanIn: 2, Seed: 7})
	b, _ := Layered(LayeredConfig{Depth: 4, Width: 3, FanIn: 2, Seed: 7})
	if a.Format() != b.Format() {
		t.Fatal("Layered not deterministic per seed")
	}
	c, _ := Layered(LayeredConfig{Depth: 4, Width: 3, FanIn: 2, Seed: 8})
	if a.Format() == c.Format() {
		t.Fatal("seed has no effect")
	}
}

// Property: layered schemas always validate and have Depth*Width rules.
func TestLayeredProperty(t *testing.T) {
	f := func(d, w, fi uint8, seed int64) bool {
		cfg := LayeredConfig{
			Depth: int(d%5) + 1, Width: int(w%5) + 1, FanIn: int(fi%4) + 1, Seed: seed,
		}
		s, err := Layered(cfg)
		if err != nil {
			return false
		}
		return s.Validate() == nil && len(s.Rules()) == cfg.Depth*cfg.Width
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimates(t *testing.T) {
	s := ASIC()
	est, err := Estimates(s, 8*time.Hour, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.ByActivity) != 8 {
		t.Fatalf("estimates = %d", len(est.ByActivity))
	}
	lo := time.Duration(float64(8*time.Hour) * 0.75)
	hi := time.Duration(float64(8*time.Hour) * 1.25)
	for act, d := range est.ByActivity {
		if d < lo || d > hi {
			t.Fatalf("estimate %s = %v outside [%v, %v]", act, d, lo, hi)
		}
	}
	// Deterministic.
	est2, _ := Estimates(s, 8*time.Hour, 0.25, 3)
	for act := range est.ByActivity {
		if est.ByActivity[act] != est2.ByActivity[act] {
			t.Fatal("estimates not deterministic")
		}
	}
	if _, err := Estimates(s, 0, 0.1, 1); err == nil {
		t.Fatal("zero base accepted")
	}
	if _, err := Estimates(s, time.Hour, 1.0, 1); err == nil {
		t.Fatal("jitter 1 accepted")
	}
}

func TestAssignments(t *testing.T) {
	s := ASIC()
	team := []string{"ann", "bob", "cho"}
	a := Assignments(s, team)
	if len(a) != 8 {
		t.Fatalf("assignments = %d", len(a))
	}
	counts := map[string]int{}
	for _, rs := range a {
		if len(rs) != 1 {
			t.Fatalf("assignment = %v", rs)
		}
		counts[rs[0]]++
	}
	// Round robin over 8 activities and 3 people: 3/3/2.
	if counts["ann"] != 3 || counts["bob"] != 3 || counts["cho"] != 2 {
		t.Fatalf("distribution = %v", counts)
	}
	if Assignments(s, nil) != nil {
		t.Fatal("empty team should yield nil")
	}
}

func TestThreePoints(t *testing.T) {
	est, _ := Estimates(Fig4(), 10*time.Hour, 0, 1)
	tp := ThreePoints(est)
	p, err := tp.Estimate("Create", nil)
	if err != nil {
		t.Fatal(err)
	}
	// (6 + 4*10 + 18)/6 h = 10.67h approximately.
	want := (6*time.Hour + 40*time.Hour + 18*time.Hour) / 6
	if p.Work != want {
		t.Fatalf("three-point expected = %v, want %v", p.Work, want)
	}
}

func TestBoard(t *testing.T) {
	s := Board()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Rules()) != 6 {
		t.Fatalf("rules = %d", len(s.Rules()))
	}
	if got := s.PrimaryInputs(); len(got) != 1 || got[0] != "requirements" {
		t.Fatalf("primary inputs = %v", got)
	}
	g, err := flow.FromSchema(s)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := g.Extract("gerbers", "drcreport")
	if err != nil || len(tr.Activities()) != 6 {
		t.Fatalf("extraction = %v, %v", tr, err)
	}
}

func TestAnalog(t *testing.T) {
	s := Analog()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Rules()) != 6 {
		t.Fatalf("rules = %d", len(s.Rules()))
	}
	// The simulator tool class backs two distinct activities.
	pre, post := s.RuleByActivity("SimPre"), s.RuleByActivity("SimPost")
	if pre == nil || post == nil || pre.Tool != "simulator" || post.Tool != "simulator" {
		t.Fatalf("simulator rules = %v / %v", pre, post)
	}
	g, _ := flow.FromSchema(s)
	tr, err := g.Extract("postsim", "simreport")
	if err != nil || len(tr.Activities()) != 6 {
		t.Fatalf("extraction = %v, %v", tr, err)
	}
}

func TestSchemaSource(t *testing.T) {
	for name, want := range map[string]string{
		"builtin:fig4": Fig4Source, "builtin:asic": ASICSource,
		"builtin:board": BoardSource, "builtin:analog": AnalogSource,
	} {
		if got, err := SchemaSource(name); err != nil || got != want {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(SchemaUsage, name) {
			t.Fatalf("SchemaUsage %q leaves out %s", SchemaUsage, name)
		}
	}
	path := filepath.Join(t.TempDir(), "flow.dsl")
	if err := os.WriteFile(path, []byte(Fig4Source), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := SchemaSource(path); err != nil || got != Fig4Source {
		t.Fatalf("file: %q, %v", got, err)
	}
	if _, err := SchemaSource("builtin:nope"); err == nil {
		t.Fatal("unknown builtin resolved")
	}
}
