package flowsched

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestSnapshotLoadRoundTrip persists a mid-project session and resumes
// it: the restored project has the same store version, container
// watermarks, event stream and risk fingerprint, answers the same
// queries, keeps its tracked plan, and can continue executing.
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
	if _, err := p.Propagate(); err != nil {
		t.Fatal(err)
	}
	want := identityOf(t, p)
	wantEvents := p.EventCount()
	wantDur, err := viewOf(t, p).Query("duration of Create")
	if err != nil {
		t.Fatal(err)
	}

	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	re, err := Load(blob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	if got := re.EventCount(); got != wantEvents {
		t.Fatalf("event count = %d, want %d", got, wantEvents)
	}
	checkIdentity(t, want, identityOf(t, re))
	if got, err := viewOf(t, re).Query("duration of Create"); err != nil || got != wantDur {
		t.Fatalf("query after restore = %q, %v", got, err)
	}
	// Level 4 content survives: the latest netlist is retrievable through
	// a fresh execution on the restored session.
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

// corruptSessions are inputs Load must reject, each with a fragment of
// the error it must give: malformed JSON, a bad schema, a store that is
// not a State, a session in the retired "db" format (the error names the
// format change), and an image without a store.
var corruptSessions = []struct{ blob, err string }{
	{"{", "unexpected end of JSON input"},
	{`{"schema":"garbage","store":{},"data":{}}`, "load schema"},
	{`{"schema":"` + escaped(Fig4Schema) + `","store":"bogus","data":{}}`, "cannot unmarshal string"},
	{`{"schema":"` + escaped(Fig4Schema) + `","designer":"ewj","now":"1995-06-05T09:00:00Z","db":{"containers":[]},"data":{"classes":{}}}`,
		`retired "db" snapshot format`},
	{`{"schema":"` + escaped(Fig4Schema) + `","now":"1995-06-05T09:00:00Z","data":{}}`, "store: state: missing"},
}

func TestLoadRejectsCorrupt(t *testing.T) {
	for _, c := range corruptSessions {
		_, err := Load([]byte(c.blob), Options{})
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("snapshot %.40q: err = %v, want it to mention %q", c.blob, err, c.err)
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

// FuzzLoad feeds arbitrary bytes to Load. Its seed corpus in
// testdata/fuzz/FuzzLoad holds saved sessions and every corruptSessions
// input. Load must never panic, and every input it accepts must be a
// fixed point of Snapshot → Load → Snapshot.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		p, err := Load(blob, Options{})
		if err != nil {
			return
		}
		first, err := p.Snapshot()
		if err != nil {
			t.Fatalf("snapshot of a loaded session: %v", err)
		}
		re, err := Load(first, Options{})
		if err != nil {
			t.Fatalf("reload of a snapshot: %v", err)
		}
		second, err := re.Snapshot()
		if err != nil {
			t.Fatalf("snapshot of a reloaded session: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("Snapshot → Load → Snapshot changed the session:\n%s\nvs\n%s", first, second)
		}
	})
}
