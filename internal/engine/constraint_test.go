package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"flowsched/internal/tools"
)

// markerTool produces outputs that only carry an acceptance marker from
// iteration `cleanAfter` onward.
type markerTool struct {
	instance   string
	cleanAfter int
}

func (m *markerTool) Instance() string { return m.instance }
func (m *markerTool) Class() string    { return "checker" }

func (m *markerTool) Run(inputs map[string][]byte, iteration int) (tools.Result, error) {
	out := fmt.Sprintf("report iteration %d\n", iteration)
	if iteration >= m.cleanAfter {
		out += "DRC CLEAN\n"
	}
	return tools.Result{Output: []byte(out), Work: time.Hour, GoalMet: true}, nil
}

func TestConstraintForcesIteration(t *testing.T) {
	m := newManager(t)
	m.BindTool("Create", &markerTool{instance: "drc#1", cleanAfter: 3})
	sim, _ := tools.DefaultFor("simulator", "s#1")
	m.BindTool("Simulate", sim)
	m.Import("stimuli", []byte("v"))
	tree, _ := m.ExtractTree("performance")

	res, err := m.ExecuteTask(tree, ExecOptions{
		Constraints: []Constraint{{
			Activity: "Create", Name: "drc-clean", Check: Contains("DRC CLEAN"),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The tool says GoalMet every time, but the constraint rejects
	// iterations 1 and 2.
	if res.Outcomes[0].Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", res.Outcomes[0].Iterations)
	}
	// All three versions are filed as metadata (bad versions exist too).
	if got := m.DB.Container("netlist").Len(); got != 3 {
		t.Fatalf("netlist versions = %d, want 3", got)
	}
	// Violations were emitted.
	violations := 0
	for _, ev := range m.Events() {
		if ev.Kind == EvConstraint {
			violations++
		}
	}
	if violations != 2 {
		t.Fatalf("constraint events = %d, want 2", violations)
	}
}

func TestConstraintExhaustsIterations(t *testing.T) {
	m := newManager(t)
	m.BindTool("Create", &markerTool{instance: "drc#1", cleanAfter: 99})
	sim, _ := tools.DefaultFor("simulator", "s#1")
	m.BindTool("Simulate", sim)
	m.Import("stimuli", []byte("v"))
	tree, _ := m.ExtractTree("performance")
	_, err := m.ExecuteTask(tree, ExecOptions{
		MaxIterations: 4,
		Constraints: []Constraint{{
			Activity: "Create", Name: "drc-clean", Check: Contains("DRC CLEAN"),
		}},
	})
	if !errors.Is(err, ErrGoalNotMet) {
		t.Fatalf("err = %v, want ErrGoalNotMet", err)
	}
}

func TestConstraintValidation(t *testing.T) {
	m := newManager(t)
	m.BindDefaults()
	m.Import("stimuli", []byte("v"))
	tree, _ := m.ExtractTree("performance")
	cases := []struct {
		name string
		c    Constraint
	}{
		{"no activity", Constraint{Name: "x", Check: NonEmpty}},
		{"no name", Constraint{Activity: "Create", Check: NonEmpty}},
		{"no check", Constraint{Activity: "Create", Name: "x"}},
		{"unknown activity", Constraint{Activity: "Ghost", Name: "x", Check: NonEmpty}},
	}
	for _, tc := range cases {
		_, err := m.ExecuteTask(tree, ExecOptions{Constraints: []Constraint{tc.c}})
		if err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestConstraintChecks(t *testing.T) {
	if NonEmpty(nil) == nil {
		t.Error("NonEmpty accepted empty")
	}
	if NonEmpty([]byte("x")) != nil {
		t.Error("NonEmpty rejected content")
	}
	c := Contains("CLEAN")
	if c([]byte("dirty")) == nil {
		t.Error("Contains accepted missing marker")
	}
	if c([]byte("all CLEAN here")) != nil {
		t.Error("Contains rejected marker")
	}
	mb := MaxBytes(4)
	if mb([]byte("12345")) == nil {
		t.Error("MaxBytes accepted oversize")
	}
	if mb([]byte("1234")) != nil {
		t.Error("MaxBytes rejected exact size")
	}
}

func TestConstraintOnOtherActivityIgnored(t *testing.T) {
	m := newManager(t)
	m.BindDefaults()
	m.Import("stimuli", []byte("v"))
	tree, _ := m.ExtractTree("performance")
	// Constraint on Simulate never matches Create's output marker, but
	// default simulated output is non-empty, so NonEmpty passes and the
	// flow completes.
	res, err := m.ExecuteTask(tree, ExecOptions{
		Constraints: []Constraint{{Activity: "Simulate", Name: "nonempty", Check: NonEmpty}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
}
