package main

import (
	"strings"
	"testing"
)

// TestMilestoneDateForms: hercules' milestone takes its minute form and
// RFC 3339, as /milestone does, to the same target date.
func TestMilestoneDateForms(t *testing.T) {
	out := script(t,
		"schema builtin:fig4",
		"tools",
		"import stimuli vec",
		"plan performance 8",
		"milestone short performance 1995-06-09T17:00",
		"milestone rfc performance 1995-06-09T17:00:00Z",
		"milestones",
	)
	if strings.Contains(out, "error:") {
		t.Fatalf("a milestone date form was refused:\n%s", out)
	}
	for _, want := range []string{
		"milestone short: performance by 1995-06-09T17:00\n",
		"milestone rfc: performance by 1995-06-09T17:00:00Z\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "target 1995-06-09"); n != 2 {
		t.Fatalf("%d milestones target 1995-06-09, want 2:\n%s", n, out)
	}
}
