package engine

import (
	"bytes"
	"fmt"
	"time"
)

// Constraint is an acceptance condition on an activity's output — the
// constraint handling of hierarchical flow environments (paper ref [12],
// van der Wolf et al.). A produced version that violates a constraint
// does not meet the design goals, so the activity iterates even if the
// designer model would have accepted it; the violation is recorded in
// the event stream.
type Constraint struct {
	// Activity names the activity whose output is checked.
	Activity string
	// Name labels the constraint in events ("drc-clean", "nonempty").
	Name string
	// Check returns an error describing the violation, nil when clean.
	Check func(output []byte) error
}

func (c Constraint) validate() error {
	if c.Activity == "" {
		return fmt.Errorf("engine: constraint %q has no activity", c.Name)
	}
	if c.Name == "" {
		return fmt.Errorf("engine: constraint on %s has no name", c.Activity)
	}
	if c.Check == nil {
		return fmt.Errorf("engine: constraint %s on %s has no check", c.Name, c.Activity)
	}
	return nil
}

// EvConstraint is emitted when an output violates a constraint.
const EvConstraint EventKind = "constraint-violated"

// checkConstraints applies the constraints bound to an activity and
// returns the first violation (nil when clean). Violations are emitted.
func (m *Manager) checkConstraints(cs []Constraint, activity string, output []byte, at time.Time) error {
	for _, c := range cs {
		if c.Activity != activity {
			continue
		}
		if err := c.Check(output); err != nil {
			m.emit(EvConstraint, activity, at, fmt.Sprintf("%s: %v", c.Name, err))
			return fmt.Errorf("engine: constraint %s: %w", c.Name, err)
		}
	}
	return nil
}

// NonEmpty is a constraint check requiring non-empty output.
func NonEmpty(output []byte) error {
	if len(output) == 0 {
		return fmt.Errorf("output is empty")
	}
	return nil
}

// Contains returns a check requiring the output to contain the marker
// (e.g. "DRC CLEAN" in a checker report).
func Contains(marker string) func([]byte) error {
	return func(output []byte) error {
		if !bytes.Contains(output, []byte(marker)) {
			return fmt.Errorf("output lacks marker %q", marker)
		}
		return nil
	}
}

// MaxBytes returns a check bounding the output size (a stand-in for area
// or runtime budgets).
func MaxBytes(n int) func([]byte) error {
	return func(output []byte) error {
		if len(output) > n {
			return fmt.Errorf("output is %d bytes, budget %d", len(output), n)
		}
		return nil
	}
}
