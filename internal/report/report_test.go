package report

import (
	"strings"
	"testing"
)

func TestScenarioReproducesFig5Population(t *testing.T) {
	s, err := NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 5: two schedule-instance versions per activity, two plans, no
	// execution metadata beyond the imported stimuli.
	for _, act := range []string{"Create", "Simulate"} {
		c := s.Mgr.DB.Container("sched:" + act)
		if c.Len() != 2 {
			t.Errorf("sched:%s instances = %d, want 2 (CC1/CC2, SC1/SC2)", act, c.Len())
		}
	}
	if got := s.Mgr.DB.Container("schedule").Len(); got != 2 {
		t.Errorf("plans = %d, want 2", got)
	}
	if got := s.Mgr.DB.Container("netlist").Len(); got != 0 {
		t.Errorf("netlist entities before execution = %d", got)
	}
	if got := s.Mgr.DB.Container("stimuli").Len(); got != 1 {
		t.Errorf("stimuli entities = %d, want 1", got)
	}
}

func TestScenarioReproducesFig6Fig7Population(t *testing.T) {
	s, err := NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Execute(); err != nil {
		t.Fatal(err)
	}
	// Fig. 6: each activity iterated exactly twice -> two entity instances
	// per produced class and two runs per activity.
	for _, class := range []string{"netlist", "performance"} {
		if got := s.Mgr.DB.Container(class).Len(); got != 2 {
			t.Errorf("%s entities = %d, want 2 (N1/N2, P1/P2)", class, got)
		}
	}
	for _, act := range []string{"Create", "Simulate"} {
		if got := s.Mgr.DB.Container("run:" + act).Len(); got != 2 {
			t.Errorf("run:%s = %d, want 2", act, got)
		}
	}
	// Fig. 7: exactly the final entity instance of each activity is linked
	// to the current (version 2) schedule instance.
	for _, pair := range []struct{ class, act string }{
		{"netlist", "Create"}, {"performance", "Simulate"},
	} {
		final := s.Mgr.DB.Container(pair.class).Latest()
		schedInst := s.Mgr.DB.Get("sched:" + pair.act + "/2")
		if !s.Mgr.DB.Linked(schedInst.ID, final.ID) {
			t.Errorf("%s not linked to %s", schedInst.ID, final.ID)
		}
		first := s.Mgr.DB.Container(pair.class).At(0)
		if len(first.Links) != 0 {
			t.Errorf("non-final entity %s has links %v", first.ID, first.Links)
		}
	}
}

func TestFigureTexts(t *testing.T) {
	cases := []struct {
		name string
		gen  func() (string, error)
		want []string
	}{
		{"Fig1", Fig1, []string{"Level 2", "Create --netlist--> Simulate", "sched:Create/2", "<-> netlist/2"}},
		{"Fig2", Fig2, []string{"Level 1", "2 construction rules", "Level 3", "Level 4"}},
		{"Fig3", Fig3, []string{"execution space", "schedule space", "2 runs", "2 schedule instances"}},
		{"Fig5", Fig5, []string{"Planning Phase", "sched:Create", "sched:Simulate/2", "schedule/2"}},
		{"Fig6", Fig6, []string{"Execution Phase", "netlist/2", "performance/2", "run:Create/2"}},
		{"Fig7", Fig7, []string{"Completion", "->{", "netlist/2", "sched:Create/2"}},
		{"Fig8", Fig8, []string{"task tree", "Create", "plan v2", "actual", "done"}},
	}
	for _, tc := range cases {
		out, err := tc.gen()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s missing %q:\n%s", tc.name, want, out)
			}
		}
	}
}

func TestFig4Text(t *testing.T) {
	out := Fig4()
	for _, want := range []string{"netlist", "performance <- simulator(netlist, stimuli)", "rule Create"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4 missing %q:\n%s", want, out)
		}
	}
}

func TestTableIText(t *testing.T) {
	out, err := TableIText()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"TABLE I", "Hercules", "VOV", "Run, Entity Inst."} {
		if !strings.Contains(out, want) {
			t.Errorf("TableI missing %q:\n%s", want, out)
		}
	}
}

func TestE1TrackingDrift(t *testing.T) {
	out, err := E1TrackingDrift()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"integrated", "separate", "meanLag"} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 missing %q:\n%s", want, out)
		}
	}
	// Shape check: the integrated row reports zero lag.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "integrated") && !strings.Contains(line, "0s") {
			t.Errorf("integrated lag not zero: %s", line)
		}
	}
}

func TestE2Prediction(t *testing.T) {
	out, err := E2Prediction()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mean", "ewma(0.5)", "regression", "MAPE"} {
		if !strings.Contains(out, want) {
			t.Errorf("E2 missing %q:\n%s", want, out)
		}
	}
}

func TestE3Scaling(t *testing.T) {
	out, err := E3Scaling()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "depth width acts") {
		t.Fatalf("E3 header missing:\n%s", out)
	}
	// Four sweep rows.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "2 ") || strings.HasPrefix(line, "4 ") ||
			strings.HasPrefix(line, "6 ") || strings.HasPrefix(line, "8 ") {
			rows++
		}
	}
	if rows != 4 {
		t.Fatalf("E3 rows = %d:\n%s", rows, out)
	}
}

func TestE4CriticalPath(t *testing.T) {
	out, err := E4CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"critical path:", "Synthesize", "project duration:", "P(finish within"} {
		if !strings.Contains(out, want) {
			t.Errorf("E4 missing %q:\n%s", want, out)
		}
	}
	// The critical path must start at Synthesize (the flow's root).
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "critical path:") && !strings.Contains(line, "Synthesize ->") {
			t.Errorf("critical path does not start at Synthesize: %s", line)
		}
	}
}

func TestE5Queries(t *testing.T) {
	out, err := E5Queries()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"duration of Create", "lineage", "schedule/1 -> schedule/2", "runs of Create\n  runs of Create = 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("E5 missing %q:\n%s", want, out)
		}
	}
}

func TestScenarioDeterministic(t *testing.T) {
	out1, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	out2, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Fatal("scenario not deterministic")
	}
}

func TestE6Risk(t *testing.T) {
	out, err := E6Risk()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Monte-Carlo", "p50", "criticality", "Synthesize", "Route", "serial", "parallel"} {
		if !strings.Contains(out, want) {
			t.Errorf("E6 missing %q:\n%s", want, out)
		}
	}
	// The backbone chain must dominate criticality over the side branches.
	if !strings.Contains(out, "Route       1.00") {
		t.Errorf("Route not fully critical:\n%s", out)
	}
}

func TestE7Observability(t *testing.T) {
	out, err := E7Observability()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"span tree",
		"engine.plan", "engine.execute", "monte.simulate",
		"nested span(s)", // depth-2 rendering summarizes runs and shards
		"virtual containment: ok",
		"engine_events_total", "monte_trials_total", "store_puts_total",
		"engine_activity_virtual_seconds", "histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E7 missing %q:\n%s", want, out)
		}
	}
}

func TestE9FaultTolerance(t *testing.T) {
	out, err := E9FaultTolerance()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"with and without faults",
		"clean finish", "faulty finish", "slip (working)",
		"Synthesize", "GateSim",
		"project finish: clean",
		"fault plan (seed 1995):",
		"injected",
		"retries (backoff)",
		"failovers",
		"replays bit-identically",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E9 missing %q:\n%s", want, out)
		}
	}
	// The exhibit's own claim: seeded faults replay bit-identically.
	again, err := E9FaultTolerance()
	if err != nil {
		t.Fatal(err)
	}
	if out != again {
		t.Fatal("E9 not reproducible across runs")
	}
}
