package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"flowsched"
)

// newTracked builds a fig4 project with observability on, tools bound,
// stimuli imported, a plan in force, and one tracked run completed — so
// every read surface has content to serve.
func newTracked(t *testing.T) *flowsched.Project {
	t.Helper()
	p, err := flowsched.New(flowsched.Fig4Schema, flowsched.Options{
		Designer: "ewj", Obs: flowsched.ObsOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return track(t, p)
}

// newTrackedDurable is newTracked on a durable project in a temporary
// directory (no fsync).
func newTrackedDurable(t *testing.T) *flowsched.Project {
	t.Helper()
	p, err := flowsched.Open(t.TempDir(), flowsched.Fig4Schema, flowsched.Options{
		Designer: "ewj", Obs: flowsched.ObsOptions{Enabled: true},
	}, flowsched.PersistOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return track(t, p)
}

// track binds tools, imports stimuli, plans and runs performance.
func track(t *testing.T, p *flowsched.Project) *flowsched.Project {
	t.Helper()
	if err := p.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Import("stimuli", []byte("pulse 0 5 1ns")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan([]string{"performance"}, flowsched.Fixed{Default: 8 * time.Hour}, flowsched.PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run([]string{"performance"}, true); err != nil {
		t.Fatal(err)
	}
	return p
}

// get performs one in-process request against the server's handler.
func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func TestRoutesServeEveryReadSurface(t *testing.T) {
	p := newTracked(t)
	if err := p.SetMilestone("tapeout", "performance", p.Now().Add(90*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	s := New(p, Options{})
	cases := []struct {
		path string
		want string // substring of a correct body
	}{
		{"/healthz", `"status": "ok"`},
		{"/version", `"storeVersion"`},
		{"/status", `"activities"`},
		{"/gantt", "Create"},
		{"/tasktree", "performance"},
		{"/dashboard", "project dashboard"},
		{"/analyze", `"CriticalPath"`},
		{"/milestones", "tapeout"},
		{"/query?q=duration+of+Create", "Create"},
		{"/report", "status report"},
		{"/risk?trials=50&seed=7", `"p95"`},
		{"/whatif?edit=slow=Simulate*2.0", "What-if sweep"},
		{"/predict?activity=Create", `"estimate"`},
		{"/metrics", `serve_request_seconds_count{route="metrics"}`},
		{"/trace", "plan"},
		{"/events?since=0", `"events"`},
	}
	for _, c := range cases {
		rec := get(t, s, c.path)
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d: %s", c.path, rec.Code, rec.Body.String())
			continue
		}
		if !strings.Contains(rec.Body.String(), c.want) {
			t.Errorf("GET %s body lacks %q:\n%.400s", c.path, c.want, rec.Body.String())
		}
	}
}

func TestBadRequests(t *testing.T) {
	s := New(newTracked(t), Options{})
	for path, wantCode := range map[string]int{
		"/query":   http.StatusBadRequest, // missing q
		"/predict": http.StatusBadRequest, // missing activity
		"/predict?activity=Create&method=psychic": http.StatusBadRequest,
		"/risk?trials=banana":                     http.StatusBadRequest,
		"/risk?trials=0":                          http.StatusBadRequest,
		"/risk?trials=-5":                         http.StatusBadRequest,
		"/risk?trials=10000001":                   http.StatusBadRequest,
		"/report?from=tuesday":                    http.StatusBadRequest,
		"/whatif":                                 http.StatusBadRequest, // no edits
	} {
		if rec := get(t, s, path); rec.Code != wantCode {
			t.Errorf("GET %s = %d, want %d", path, rec.Code, wantCode)
		}
	}
	if rec := get(t, s, "/risk?trials=30000000"); !strings.Contains(rec.Body.String(), "10000000") {
		t.Errorf("/risk trials over the bound: body does not name it: %s", rec.Body.String())
	}
	req := httptest.NewRequest(http.MethodPost, "/status", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /status = %d, want 405", rec.Code)
	}
}

// metricValue extracts one series' value from a /metrics page. name is
// the full series identity — for labeled families include the label
// set exactly as exposed, e.g. `serve_cache_events_total{event="hit",tier="memo"}`
// (label keys are emitted sorted).
func metricValue(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	body := get(t, s, "/metrics").Body.String()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`).FindStringSubmatch(body)
	if m == nil {
		return 0
	}
	n, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRiskMemoized proves the response cache short-circuits the
// expensive read: after warm-up, an identical risk request re-runs zero
// Monte-Carlo trials and the hit is observable in /metrics.
func TestRiskMemoized(t *testing.T) {
	s := New(newTracked(t), Options{})
	first := get(t, s, "/risk?trials=200&seed=3")
	if first.Code != http.StatusOK {
		t.Fatalf("cold risk = %d: %s", first.Code, first.Body.String())
	}
	if h := first.Header().Get("X-Flowsched-Cache"); h != "miss" {
		t.Fatalf("cold risk cache header = %q, want miss", h)
	}
	trialsBefore := metricValue(t, s, "monte_trials_total")
	if trialsBefore == 0 {
		t.Fatal("monte_trials_total not visible in /metrics after cold read")
	}

	second := get(t, s, "/risk?seed=3&trials=200") // same params, different spelling order
	if h := second.Header().Get("X-Flowsched-Cache"); h != "fingerprint" {
		t.Fatalf("warm risk cache header = %q, want fingerprint", h)
	}
	if second.Body.String() != first.Body.String() {
		t.Fatal("cached risk body differs from cold body")
	}
	if after := metricValue(t, s, "monte_trials_total"); after != trialsBefore {
		t.Fatalf("cached risk re-ran the simulation: monte_trials_total %d -> %d", trialsBefore, after)
	}
	if hits := metricValue(t, s, `serve_cache_events_total{event="hit",tier="fingerprint"}`); hits < 1 {
		t.Fatalf("fingerprint cache hits = %d, want >= 1", hits)
	}
}

// TestCacheInvalidatedWhenStoreAdvances pins the auto-invalidation: a
// mutation bumps the store version and the next read renders fresh.
func TestCacheInvalidatedWhenStoreAdvances(t *testing.T) {
	p := newTracked(t)
	s := New(p, Options{})
	a := get(t, s, "/status")
	b := get(t, s, "/status")
	if b.Header().Get("X-Flowsched-Cache") != "hit" {
		t.Fatalf("second identical read = %q, want hit", b.Header().Get("X-Flowsched-Cache"))
	}
	// Mutate Level 3: a milestone write advances the store version.
	if err := p.SetMilestone("m1", "performance", p.Now().Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	c := get(t, s, "/status")
	if c.Header().Get("X-Flowsched-Cache") != "miss" {
		t.Fatalf("read after mutation = %q, want miss", c.Header().Get("X-Flowsched-Cache"))
	}
	if av, cv := a.Header().Get("X-Flowsched-Version"), c.Header().Get("X-Flowsched-Version"); av == cv {
		t.Fatalf("store version did not advance across mutation (%s)", av)
	}
}

// TestSnapshotIsolationUnderMutatingRun is the end-to-end race proof:
// reader goroutines hammer the read surfaces while the project executes
// a mutating tracked run. Every response must be internally consistent;
// responses that observed the same snapshot identity must be
// byte-identical.
func TestSnapshotIsolationUnderMutatingRun(t *testing.T) {
	p := newTracked(t)
	s := New(p, Options{})

	type resp struct {
		route, version, now, body string
	}
	var mu sync.Mutex
	var got []resp

	stop := make(chan struct{})
	// Readers check in after their first response so the writer cannot
	// finish all its passes before any reader was ever scheduled (a real
	// risk on one CPU).
	started := make(chan struct{}, 4)
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		defer close(stop)
		for g := 0; g < 4; g++ {
			<-started
		}
		// A mutating tracked run: each pass re-plans and re-executes,
		// writing schedule instances, run records, and propagated dates.
		for i := 0; i < 3; i++ {
			if _, err := p.Plan([]string{"performance"}, flowsched.Fixed{Default: 8 * time.Hour}, flowsched.PlanOptions{}); err != nil {
				t.Error(err)
				return
			}
			if _, err := p.RunWith([]string{"performance"}, flowsched.RunOptions{AutoComplete: true}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	routes := []string{"/status", "/dashboard", "/gantt", "/version", "/milestones", "/risk?trials=40&seed=9"}
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				route := routes[(g+i)%len(routes)]
				req := httptest.NewRequest(http.MethodGet, route, nil)
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s = %d during run: %s", route, rec.Code, rec.Body.String())
					return
				}
				mu.Lock()
				got = append(got, resp{
					route:   route,
					version: rec.Header().Get("X-Flowsched-Version"),
					now:     rec.Header().Get("X-Flowsched-Now"),
					body:    rec.Body.String(),
				})
				mu.Unlock()
				if i == 0 {
					started <- struct{}{}
				}
			}
		}(g)
	}
	writers.Wait()
	readers.Wait()

	if len(got) == 0 {
		t.Fatal("no responses collected")
	}
	// Same route + same snapshot identity => byte-identical body.
	seen := make(map[string]string)
	groups := 0
	for _, r := range got {
		key := r.route + "|" + r.version + "|" + r.now
		if prev, ok := seen[key]; ok {
			if prev != r.body {
				t.Fatalf("torn read: two %s responses at snapshot v%s/%s differ", r.route, r.version, r.now)
			}
			groups++
		} else {
			seen[key] = r.body
		}
	}
	t.Logf("%d responses, %d same-snapshot pairs verified", len(got), groups)
}

// TestGracefulShutdown serves over a real listener, then drains.
func TestGracefulShutdown(t *testing.T) {
	s := New(newTracked(t), Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()

	url := fmt.Sprintf("http://%s/healthz", l.Addr())
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP = %d", res.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if _, err := http.Get(url); err == nil {
		t.Fatal("request succeeded after shutdown")
	}
}

// TestRiskFingerprintSurvivesStoreAdvance is the cross-snapshot warm
// hit: a store mutation that does not change the risk model (a
// milestone write) invalidates the per-snapshot memo, but the
// fingerprint tier still answers without re-running a single trial.
func TestRiskFingerprintSurvivesStoreAdvance(t *testing.T) {
	p := newTracked(t)
	s := New(p, Options{})
	const path = "/risk?trials=120&seed=5"

	cold := get(t, s, path)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold risk = %d: %s", cold.Code, cold.Body.String())
	}
	if h := cold.Header().Get("X-Flowsched-Cache"); h != "miss" {
		t.Fatalf("cold risk cache header = %q, want miss", h)
	}
	trialsBefore := metricValue(t, s, "monte_trials_total")

	// Advance the store on a branch the risk model never reads.
	if err := p.SetMilestone("unrelated", "performance", p.Now().Add(48*time.Hour)); err != nil {
		t.Fatal(err)
	}

	warm := get(t, s, path)
	if h := warm.Header().Get("X-Flowsched-Cache"); h != "fingerprint" {
		t.Fatalf("post-advance risk cache header = %q, want fingerprint", h)
	}
	if warm.Header().Get("X-Flowsched-Version") == cold.Header().Get("X-Flowsched-Version") {
		t.Fatal("store version did not advance across the mutation")
	}
	if warm.Body.String() != cold.Body.String() {
		t.Fatal("fingerprint-tier body differs from the cold render")
	}
	if after := metricValue(t, s, "monte_trials_total"); after != trialsBefore {
		t.Fatalf("fingerprint hit re-ran the simulation: monte_trials_total %d -> %d", trialsBefore, after)
	}
	if hits := metricValue(t, s, `serve_cache_events_total{event="hit",tier="fingerprint"}`); hits != 1 {
		t.Fatalf("fingerprint cache hits = %d, want 1", hits)
	}
}
