package flowsched

import (
	"strings"
	"testing"
	"time"
)

// TestSnapshotLoadRoundTrip persists a mid-project session and resumes
// it: the restored project answers the same queries, keeps its tracked
// plan, and can continue executing.
func TestSnapshotLoadRoundTrip(t *testing.T) {
	p := prepared(t)
	est := Fixed{ByActivity: map[string]time.Duration{
		"Create": 16 * time.Hour, "Simulate": 8 * time.Hour,
	}}
	if _, err := p.Plan([]string{"performance"}, est, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run([]string{"performance"}, true); err != nil {
		t.Fatal(err)
	}
	wantDump := p.DatabaseDump()
	wantDur, err := viewOf(t, p).Query("duration of Create")
	if err != nil {
		t.Fatal(err)
	}
	wantNow := p.Now()

	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	re, err := Load(blob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := re.DatabaseDump(); got != wantDump {
		t.Fatalf("dump changed across restore:\n%s\nvs\n%s", got, wantDump)
	}
	if got, err := viewOf(t, re).Query("duration of Create"); err != nil || got != wantDur {
		t.Fatalf("query after restore = %q, %v", got, err)
	}
	if !re.Now().Equal(wantNow) {
		t.Fatalf("clock = %v, want %v", re.Now(), wantNow)
	}
	if re.CurrentPlan() == nil || re.CurrentPlan().Version != p.CurrentPlan().Version {
		t.Fatalf("tracked plan lost: %+v", re.CurrentPlan())
	}
	// Level 4 content survives: the latest netlist is retrievable through
	// a fresh execution on the restored session.
	if err := re.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Run([]string{"performance"}, false); err != nil {
		t.Fatalf("execution after restore: %v", err)
	}
	// New runs continued the iteration numbering, not restarted it.
	ans, err := viewOf(t, re).Query("runs of Create")
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasSuffix(ans, "= 1") {
		t.Fatalf("run history reset across restore: %s", ans)
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	for _, blob := range []string{
		"{",
		`{"schema":"garbage","db":{},"data":{}}`,
		`{"schema":"` + escaped(Fig4Schema) + `","db":"bogus","data":{}}`,
	} {
		if _, err := Load([]byte(blob), Options{}); err == nil {
			t.Errorf("corrupt snapshot %q accepted", blob[:20])
		}
	}
}

func TestLoadMissingPlanVersion(t *testing.T) {
	p := prepared(t)
	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// No plan was created: PlanVersion is 0 and restore yields no plan.
	re, err := Load(blob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.CurrentPlan() != nil {
		t.Fatal("phantom plan after restore")
	}
}

func TestLoadOverridesDesigner(t *testing.T) {
	p := prepared(t)
	blob, _ := p.Snapshot()
	re, err := Load(blob, Options{Designer: "newowner"})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Run([]string{"performance"}, false); err != nil {
		t.Fatal(err)
	}
	// The new runs carry the overriding designer.
	found := false
	for _, ev := range allEvents(re) {
		if ev.Kind == "run-started" {
			found = true
		}
	}
	if !found {
		t.Fatal("no runs recorded after restore")
	}
}

// escaped JSON-escapes newlines for inline snapshots.
func escaped(s string) string {
	return strings.ReplaceAll(s, "\n", `\n`)
}
