package serve

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"flowsched"
	"flowsched/internal/workload"
)

// simTool builds a simulated tool or fails the test.
func simTool(t testing.TB, class, instance string, p flowsched.ToolProfile) flowsched.Tool {
	t.Helper()
	tl, err := flowsched.NewSimTool(class, instance, p)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// TestRiskKeyFollowsToolBindings: tool bindings are session state the
// store version does not see, yet they decide the risk models. After
// each way the bindings change — BindTool with a new profile,
// AddAlternateTool and UseSimulatedTools binding activities outside the
// tree, InjectFaults wrapping every binding, AddAlternateTool on a bound
// activity, and a faulted run that fails over to that alternate — the
// risk fingerprint changes, the next /risk
// is a miss, and its body equals an uncached server's. Every step but
// the run leaves the store version where it was, so only the bindings
// can have moved the key.
func TestRiskKeyFollowsToolBindings(t *testing.T) {
	p, err := flowsched.New(workload.ASICSource, flowsched.Options{
		Designer: "ewj", Obs: flowsched.ObsOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Bind only drcreport's tree; UseSimulatedTools below binds the rest.
	for act, class := range map[string]string{
		"Synthesize": "synthesizer", "Floorplan": "planner", "Route": "router", "DRC": "checker",
	} {
		if err := p.BindTool(act, simTool(t, class, class+"#1", flowsched.ToolProfile{
			Base: 4 * time.Hour, Jitter: 0.3, MeanIterations: 1.5,
		})); err != nil {
			t.Fatal(err)
		}
	}
	for _, class := range []string{"rtl", "constraints"} {
		if _, err := p.Import(class, []byte(class+" v1")); err != nil {
			t.Fatal(err)
		}
	}
	cached := New(p, Options{})
	fresh := New(p, Options{DisableCache: true})
	fp := riskFP(t, p)
	body := get(t, fresh, riskPath).Body.String()
	if rec := get(t, cached, riskPath); rec.Code != http.StatusOK || rec.Body.String() != body {
		t.Fatalf("cold /risk = %d, body equal to uncached: %t", rec.Code, rec.Body.String() == body)
	}

	// check asserts the key moved with the bindings and the cached server
	// renders what an uncached one does; it returns the new body.
	check := func(step string, keepVersion bool, fn func() error) string {
		t.Helper()
		before := p.Version()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if keepVersion && p.Version() != before {
			t.Fatalf("%s moved the store version %d -> %d", step, before, p.Version())
		}
		next := riskFP(t, p)
		if next == fp {
			t.Fatalf("%s kept the risk fingerprint %s", step, fp)
		}
		fp = next
		want := get(t, fresh, riskPath).Body.String()
		rec := get(t, cached, riskPath)
		if h := rec.Header().Get("X-Flowsched-Cache"); h != "miss" {
			t.Fatalf("/risk after %s = %q, want miss", step, h)
		}
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("/risk after %s = %d, body equal to uncached: %t", step, rec.Code, rec.Body.String() == want)
		}
		return want
	}

	slow := check("BindTool", true, func() error {
		return p.BindTool("Route", simTool(t, "router", "router#2", flowsched.ToolProfile{
			Base: 20 * time.Hour, Jitter: 0.3, MeanIterations: 2,
		}))
	})
	if slow == body {
		t.Fatal("rebinding Route with a slower profile kept the /risk body")
	}
	check("AddAlternateTool on an unbound activity", true, func() error {
		return p.AddAlternateTool("GateSim", simTool(t, "simulator", "simulator#1", flowsched.ToolProfile{
			Base: 3 * time.Hour, Jitter: 0.3, MeanIterations: 2,
		}))
	})
	check("UseSimulatedTools", true, p.UseSimulatedTools)
	check("InjectFaults", true, func() error {
		return p.InjectFaults(flowsched.FaultConfig{Seed: 3, Crash: 0.99, CrashBurst: 8})
	})
	withAlt := check("AddAlternateTool", true, func() error {
		return p.AddAlternateTool("Synthesize", simTool(t, "synthesizer", "synthesizer#2", flowsched.ToolProfile{
			Base: 30 * time.Hour, Jitter: 0.2, MeanIterations: 1.2,
		}))
	})
	failedOver := check("a run that fails over", false, func() error {
		// Two crashes: the first rotates Synthesize to its alternate,
		// the second exhausts MaxFailures with the alternate active (the
		// recovery policy fences the blocked activity; whether the run
		// reports that as an error does not matter here).
		p.RunWith([]string{"netlist"}, flowsched.RunOptions{MaxFailures: 2, Recovery: flowsched.DefaultRecovery()})
		evs, _ := p.EventsPage(0)
		for _, e := range evs {
			if e.Kind == "tool-failover" && e.Activity == "Synthesize" {
				return nil
			}
		}
		t.Fatal("the faulted run never failed over")
		return nil
	})
	if failedOver == withAlt {
		t.Fatal("failing over to a slower Synthesize kept the /risk body")
	}
}

// TestRiskKeyIgnoresWorkers: runs are bit-identical at any worker
// count, so a /risk differing only in workers is a fingerprint hit with
// the same bytes; a malformed workers value is still refused.
func TestRiskKeyIgnoresWorkers(t *testing.T) {
	p := newASIC(t)
	s := New(p, Options{})
	first := get(t, s, riskPath+"&workers=1")
	if h := first.Header().Get("X-Flowsched-Cache"); first.Code != http.StatusOK || h != "miss" {
		t.Fatalf("first /risk = %d %q, want 200 miss", first.Code, h)
	}
	second := get(t, s, riskPath+"&workers=4")
	if h := second.Header().Get("X-Flowsched-Cache"); h != "fingerprint" {
		t.Fatalf("/risk with another worker count = %q, want fingerprint", h)
	}
	if second.Body.String() != first.Body.String() {
		t.Fatal("/risk with another worker count changed the body")
	}
	if rec := get(t, s, riskPath+"&workers=many"); rec.Code != http.StatusBadRequest {
		t.Fatalf("/risk?workers=many = %d, want 400", rec.Code)
	}
}

// TestRiskMemoHammer races /risk readers against a goroutine that
// rebinds Route between two profiles. Checked readers hold the read
// side of a lock the binder writes under, so each of their requests
// starts after a BindTool returned and ends before the next: it must get
// exactly that binding's body. Free readers race the binds themselves
// (deriving while the bindings change, filing into the memo and the
// response cache) and must get one of the two bodies.
func TestRiskMemoHammer(t *testing.T) {
	p := newASIC(t)
	profiles := []flowsched.ToolProfile{
		{Base: 12 * time.Hour, Jitter: 0.3, MeanIterations: 2},
		{Base: 30 * time.Hour, Jitter: 0.1, MeanIterations: 1.4},
	}
	bind := func(i int) {
		if err := p.BindTool("Route", simTool(t, "router", "router#1", profiles[i])); err != nil {
			t.Error(err)
		}
	}
	fresh := New(p, Options{DisableCache: true})
	var bodies [2]string
	for i := range profiles {
		bind(i)
		bodies[i] = get(t, fresh, riskPath).Body.String()
	}
	if bodies[0] == bodies[1] {
		t.Fatal("the two Route profiles render one /risk body")
	}

	s := New(p, Options{})
	var (
		mu      sync.RWMutex
		current = 1
		wg      sync.WaitGroup
	)
	const binds, checked, free, reads = 40, 3, 2, 40
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < binds; i++ {
			mu.Lock()
			bind(i % 2)
			current = i % 2
			mu.Unlock()
			time.Sleep(time.Millisecond)
		}
	}()
	for g := 0; g < checked+free; g++ {
		wg.Add(1)
		go func(locked bool) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				want := -1
				if locked {
					mu.RLock()
					want = current
				}
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, riskPath, nil))
				if locked {
					mu.RUnlock()
				}
				body := rec.Body.String()
				switch {
				case rec.Code != http.StatusOK:
					t.Errorf("/risk = %d: %s", rec.Code, body)
				case locked && body != bodies[want]:
					t.Errorf("/risk after binding profile %d rendered another binding's body (cache %q)",
						want, rec.Header().Get("X-Flowsched-Cache"))
				case body != bodies[0] && body != bodies[1]:
					t.Error("/risk rendered a body of neither binding")
				}
			}
		}(g < checked)
	}
	wg.Wait()
}

// BenchmarkRiskHit is a warm /risk through the handler at one store
// version: the response comes from the fingerprint tier, so the cost
// is the request path and the cache key — query parsing and the risk
// fingerprint.
func BenchmarkRiskHit(b *testing.B) {
	p, err := flowsched.New(workload.ASICSource, flowsched.Options{Designer: "ewj"})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.UseSimulatedTools(); err != nil {
		b.Fatal(err)
	}
	h := New(p, Options{}).Handler()
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, riskPath, nil))
		return rec
	}
	if rec := serve(); rec.Code != http.StatusOK {
		b.Fatalf("cold /risk = %d: %s", rec.Code, rec.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(); rec.Header().Get("X-Flowsched-Cache") == "miss" {
			b.Fatal("warm /risk missed the cache")
		}
	}
}
