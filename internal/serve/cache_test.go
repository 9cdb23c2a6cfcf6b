package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"flowsched"
	"flowsched/internal/workload"
)

// TestForkReadsKeepProjectMemo: a fork continues its parent's version
// numbers, so a fork read at a newer version must not clear the
// project's snapshot-keyed entries.
func TestForkReadsKeepProjectMemo(t *testing.T) {
	s := New(newTracked(t), Options{})
	get(t, s, "/status")
	if h := get(t, s, "/status").Header().Get("X-Flowsched-Cache"); h != "hit" {
		t.Fatalf("warm /status = %q, want hit", h)
	}
	if rec := post(t, s, "/fork?name=f", ""); rec.Code != http.StatusOK {
		t.Fatalf("POST /fork = %d: %s", rec.Code, rec.Body.String())
	}
	target := time.Date(1995, 6, 9, 17, 0, 0, 0, time.UTC).Format(time.RFC3339)
	if rec := post(t, s, "/milestone?fork=f&name=m&class=performance&target="+target, ""); rec.Code != http.StatusOK {
		t.Fatalf("fork milestone = %d: %s", rec.Code, rec.Body.String())
	}
	fork := get(t, s, "/status?fork=f")
	main := get(t, s, "/status")
	if fork.Header().Get("X-Flowsched-Version") == main.Header().Get("X-Flowsched-Version") {
		t.Fatal("fork milestone did not advance the fork's version")
	}
	if h := main.Header().Get("X-Flowsched-Cache"); h != "hit" {
		t.Fatalf("project /status after a fork read = %q, want hit", h)
	}
}

// TestForkNameReuseRendersFresh: a discarded session's entries must not
// answer a new session that reuses its name, even at the same version.
func TestForkNameReuseRendersFresh(t *testing.T) {
	p := newTracked(t)
	s := New(p, Options{})
	target := p.Now().Add(72 * time.Hour).Format(time.RFC3339)
	for _, name := range []string{"first-branch", "second-branch"} {
		if rec := post(t, s, "/fork?name=f", ""); rec.Code != http.StatusOK {
			t.Fatalf("POST /fork = %d: %s", rec.Code, rec.Body.String())
		}
		if rec := post(t, s, "/milestone?fork=f&class=performance&target="+target+"&name="+name, ""); rec.Code != http.StatusOK {
			t.Fatalf("fork milestone = %d: %s", rec.Code, rec.Body.String())
		}
		if body := get(t, s, "/milestones?fork=f").Body.String(); !strings.Contains(body, name) {
			t.Fatalf("fork session read misses its own milestone %q:\n%s", name, body)
		}
		req := httptest.NewRequest(http.MethodDelete, "/fork?name=f", nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("DELETE /fork = %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// newASIC builds an ASIC-flow project with the drcreport tree's inputs
// imported and planned. testbench is declared in the schema but lies
// outside that tree.
func newASIC(t *testing.T) *flowsched.Project {
	t.Helper()
	p, err := flowsched.New(workload.ASICSource, flowsched.Options{
		Designer: "ewj", Obs: flowsched.ObsOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"rtl", "constraints"} {
		if _, err := p.Import(class, []byte(class+" v1")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Plan([]string{"drcreport"}, flowsched.Fixed{Default: 8 * time.Hour}, flowsched.PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	return p
}

// riskFP is the fingerprint the server keys riskPath by.
func riskFP(t *testing.T, p *flowsched.Project) string {
	t.Helper()
	v, err := p.View()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := v.RiskFingerprint([]string{"drcreport"}, flowsched.RiskOptions{Trials: 300, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

const riskPath = "/risk?targets=drcreport&trials=300&seed=4"

// TestRiskKeyProperties is the /risk cache key's contract, checked
// against an uncached server so no cache can mask a changed body:
// random state-neutral writes (milestones, propagates, imports of a
// class outside the tree) keep both the fingerprint and the rendered
// body, and the cached server answers each from its fingerprint entry;
// an edit that scales an in-tree activity changes both.
func TestRiskKeyProperties(t *testing.T) {
	p := newASIC(t)
	cached := New(p, Options{})
	fresh := New(p, Options{DisableCache: true})
	fp0 := riskFP(t, p)
	body0 := get(t, fresh, riskPath).Body.String()
	if rec := get(t, cached, riskPath); rec.Code != http.StatusOK || rec.Body.String() != body0 {
		t.Fatalf("cold /risk = %d, body equal to uncached: %t", rec.Code, rec.Body.String() == body0)
	}

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 24; i++ {
		before := p.Version()
		var write string
		var err error
		switch rng.Intn(3) {
		case 0:
			write = "milestone"
			err = p.SetMilestone(fmt.Sprintf("m%d", rng.Intn(4)), "drcreport", p.Now().Add(time.Duration(1+rng.Intn(240))*time.Hour))
		case 1:
			write = "propagate"
			_, err = p.Propagate()
		case 2:
			write = "import testbench"
			_, err = p.Import("testbench", []byte(fmt.Sprintf("tb %d", rng.Int63())))
		}
		if err != nil {
			t.Fatalf("step %d %s: %v", i, write, err)
		}
		if fp := riskFP(t, p); fp != fp0 {
			t.Fatalf("step %d: %s changed the risk fingerprint %s -> %s", i, write, fp0, fp)
		}
		if body := get(t, fresh, riskPath).Body.String(); body != body0 {
			t.Fatalf("step %d: %s changed the rendered /risk body", i, write)
		}
		rec := get(t, cached, riskPath)
		if h := rec.Header().Get("X-Flowsched-Cache"); h != "fingerprint" {
			t.Fatalf("step %d: /risk after %s (v%d -> v%d) = %q, want fingerprint", i, write, before, p.Version(), h)
		}
		if rec.Body.String() != body0 {
			t.Fatalf("step %d: cached /risk body differs after %s", i, write)
		}
	}

	if rec := post(t, cached, "/edit?spec=crunch=Route*1.5", ""); rec.Code != http.StatusOK {
		t.Fatalf("POST /edit = %d: %s", rec.Code, rec.Body.String())
	}
	if fp := riskFP(t, p); fp == fp0 {
		t.Fatal("scaling an in-tree activity kept the risk fingerprint")
	}
	body := get(t, fresh, riskPath).Body.String()
	if body == body0 {
		t.Fatal("scaling an in-tree activity kept the rendered /risk body")
	}
	rec := get(t, cached, riskPath)
	if h := rec.Header().Get("X-Flowsched-Cache"); h != "miss" || rec.Body.String() != body {
		t.Fatalf("cached /risk after the edit = %q, body equal to uncached: %t; want a fresh miss", h, rec.Body.String() == body)
	}
}

// TestRiskSingleflightAcrossSnapshots: concurrent /risk requests pinned
// to different snapshots with one fingerprint share a single
// simulation — the followers wait for the leader's render instead of
// each starting their own.
func TestRiskSingleflightAcrossSnapshots(t *testing.T) {
	p := newTracked(t)
	s := New(p, Options{})
	// Large enough that the leader is still sampling while the
	// followers arrive.
	const path = "/risk?trials=200000&seed=11"
	const n = 4
	sims := metricValue(t, s, "monte_simulations_total")

	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if i > 0 {
			// A neutral write gives the next request its own snapshot.
			if err := p.SetMilestone(fmt.Sprintf("m%d", i), "performance", p.Now().Add(time.Duration(i)*time.Hour)); err != nil {
				t.Fatal(err)
			}
		}
		pinned := int64(p.Version())
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = get(t, s, path)
		}(i)
		// The handler publishes the version it pinned; wait for it so
		// the next write cannot land before this request's snapshot.
		for deadline := time.Now().Add(10 * time.Second); s.storeVersion.Value() != pinned; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("request %d never pinned version %d", i, pinned)
			}
		}
	}
	wg.Wait()

	versions := make(map[string]bool)
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d = %d: %s", i, rec.Code, rec.Body.String())
		}
		if rec.Body.String() != recs[0].Body.String() {
			t.Fatalf("request %d body differs from request 0", i)
		}
		versions[rec.Header().Get("X-Flowsched-Version")] = true
	}
	if len(versions) != n {
		t.Fatalf("%d requests pinned %d distinct snapshots, want %d", n, len(versions), n)
	}
	if got := metricValue(t, s, "monte_simulations_total") - sims; got != 1 {
		t.Fatalf("%d concurrent /risk requests ran %d simulations, want 1", n, got)
	}
}
