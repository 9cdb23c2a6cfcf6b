package obs

import (
	"strings"
	"testing"
)

func lintMessages(r *Registry) []string {
	var msgs []string
	for _, err := range r.Lint() {
		msgs = append(msgs, err.Error())
	}
	return msgs
}

func TestLintCleanRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine_runs_total")
	r.Gauge("pool_workers")
	r.Histogram("exec_wall_seconds", nil)
	r.Histogram("snapshot_bytes", []float64{256, 1 << 10, 4 << 10})
	r.CounterVec("serve_requests_total", "route", "cache").With("risk", "hit").Inc()
	r.HistogramVec("serve_request_seconds", nil, "route").With("risk").Observe(1)
	if errs := r.Lint(); len(errs) != 0 {
		t.Fatalf("clean registry linted dirty: %v", errs)
	}
	var nilReg *Registry
	if errs := nilReg.Lint(); errs != nil {
		t.Fatalf("nil registry linted dirty: %v", errs)
	}
}

func TestLintCatchesMalformedNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("CamelCase")          // not snake_case, missing _total
	r.Counter("engine_runs")        // missing _total
	r.Gauge("double__underscore")   // malformed
	r.Histogram("exec_wall", nil)   // missing unit suffix
	r.CounterVec("ok_total", "Bad") // malformed label key
	msgs := strings.Join(lintMessages(r), "\n")
	for _, want := range []string{
		`"CamelCase" is not snake_case`,
		`"engine_runs" missing _total`,
		`"double__underscore" is not snake_case`,
		`"exec_wall" missing a unit suffix`,
		`label key "Bad" is not snake_case`,
	} {
		if !strings.Contains(msgs, want) {
			t.Errorf("lint output lacks %q:\n%s", want, msgs)
		}
	}
}

func TestLintCatchesOverBoundFamily(t *testing.T) {
	// The admit path enforces the bound, so an over-bound family can
	// only arise from a future code change; simulate one by shrinking
	// the declared bound after series were minted.
	r := NewRegistry()
	v := r.BoundedCounterVec("wild_total", 16, "id")
	for _, id := range []string{"a", "b", "c", "d"} {
		v.With(id).Inc()
	}
	v.ls.max = 2
	msgs := strings.Join(lintMessages(r), "\n")
	if !strings.Contains(msgs, `"wild_total" holds 4 live series, over its bound of 2`) {
		t.Fatalf("lint missed the over-bound family:\n%s", msgs)
	}
}

func TestLintCatchesKindCollision(t *testing.T) {
	r := NewRegistry()
	r.Counter("thing_total")
	r.GaugeVec("thing_total", "k")
	msgs := strings.Join(lintMessages(r), "\n")
	if !strings.Contains(msgs, `"thing_total" registered as`) {
		t.Fatalf("lint missed the kind collision:\n%s", msgs)
	}
}

// TestKindCollisionDetachesTheSecondFamily: a name taken by one kind
// and asked for as another gives the second caller a working handle
// that the exposition leaves out, so no name carries two TYPE lines.
func TestKindCollisionDetachesTheSecondFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("thing_total").Add(2)
	g := r.GaugeVec("thing_total", "k")
	g.With("v").Set(7)
	if got := g.With("v").Value(); got != 7 {
		t.Fatalf("detached gauge = %d, want 7", got)
	}
	if r.GaugeVec("thing_total", "k") != g {
		t.Fatal("a repeated clashing registration must return the same detached family")
	}
	if want := "# TYPE thing_total counter\nthing_total 2\n"; r.PromText() != want {
		t.Fatalf("exposition = %q, want %q", r.PromText(), want)
	}
	blob, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "gauge") || strings.Count(string(blob), `"name"`) != 1 {
		t.Fatalf("JSON exposes the detached family:\n%s", blob)
	}
	msgs := strings.Join(lintMessages(r), "\n")
	if !strings.Contains(msgs, `"thing_total" registered as counter and gauge vec`) {
		t.Fatalf("lint does not name both kinds:\n%s", msgs)
	}
}
