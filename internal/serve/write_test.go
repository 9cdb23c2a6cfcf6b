package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"flowsched"
	"flowsched/internal/host"
)

// post performs one in-process POST against the server's handler.
func post(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	return postIfMatch(t, s, path, body, "")
}

// postIfMatch is post with an optional If-Match version header.
func postIfMatch(t *testing.T, s *Server, path, body, ifMatch string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	if ifMatch != "" {
		req.Header.Set("If-Match", ifMatch)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// version reads the store version a response stamped.
func version(t *testing.T, rec *httptest.ResponseRecorder) uint64 {
	t.Helper()
	raw := rec.Header().Get("X-Flowsched-Version")
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		t.Fatalf("bad X-Flowsched-Version %q: %v", raw, err)
	}
	return v
}

// TestWriteRoutesMutateTheProject drives the happy path of each
// mutating route once and checks the write actually landed.
func TestWriteRoutesMutateTheProject(t *testing.T) {
	p := newTracked(t)
	s := New(p, Options{})

	target := p.Now().Add(90 * 24 * time.Hour).Format(time.RFC3339)
	cases := []struct {
		path, body, want string
	}{
		{"/import?class=stimuli", "pulse 2", `"class": "stimuli"`},
		{"/plan?targets=performance&hours=6", "", `"planVersion"`},
		// After /plan: milestones attach to the current plan, and a
		// re-plan drops them.
		{"/milestone?name=tapeout&class=performance&target=" + target, "", `"milestone": "tapeout"`},
		{"/run?targets=performance", "", `"finished"`},
		{"/propagate", "", `"finish"`},
		{"/edit?spec=crunch=Simulate*0.5", "", `"applied": "crunch"`},
	}
	var last uint64
	for _, c := range cases {
		rec := post(t, s, c.path, c.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", c.path, rec.Code, rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), c.want) {
			t.Fatalf("POST %s body lacks %q:\n%s", c.path, c.want, rec.Body.String())
		}
		v := version(t, rec)
		if v <= last {
			t.Fatalf("POST %s left version at %d (previous %d): write did not commit", c.path, v, last)
		}
		last = v
	}
	if p.Version() != last {
		t.Fatalf("project at version %d, last response said %d", p.Version(), last)
	}
	// The milestone is visible on the read surface.
	if rec := get(t, s, "/milestones"); !strings.Contains(rec.Body.String(), "tapeout") {
		t.Fatalf("/milestones does not show the written milestone:\n%s", rec.Body.String())
	}
}

// TestWriteErrorMappingTable pins the write path's status mapping:
// transport misuse, stale versions, read-only mode, and quarantine
// each answer a distinct, structured error.
func TestWriteErrorMappingTable(t *testing.T) {
	p := newTracked(t)
	s := New(p, Options{})
	cur := p.Version()

	t.Run("get_is_405", func(t *testing.T) {
		rec := get(t, s, "/milestone")
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("GET /milestone = %d, want 405", rec.Code)
		}
		if allow := rec.Header().Get("Allow"); allow != http.MethodPost {
			t.Fatalf("Allow = %q, want POST", allow)
		}
	})
	t.Run("malformed_is_400", func(t *testing.T) {
		for _, path := range []string{
			"/milestone", // missing name/class/target
			"/milestone?name=x&class=y&target=tuesday", // bad RFC3339
			"/complete",                         // missing activity
			"/import",                           // missing class
			"/plan?targets=performance&hours=0", // non-positive estimate
			"/edit",                             // missing spec
		} {
			if rec := post(t, s, path, ""); rec.Code != http.StatusBadRequest {
				t.Errorf("POST %s = %d, want 400: %s", path, rec.Code, rec.Body.String())
			}
		}
	})
	t.Run("bad_ifmatch_is_400", func(t *testing.T) {
		rec := postIfMatch(t, s, "/propagate", "", "banana")
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("If-Match banana = %d, want 400", rec.Code)
		}
	})
	t.Run("stale_ifmatch_is_409_with_current_version", func(t *testing.T) {
		rec := postIfMatch(t, s, "/propagate", "", strconv.FormatUint(cur+100, 10))
		if rec.Code != http.StatusConflict {
			t.Fatalf("stale If-Match = %d, want 409: %s", rec.Code, rec.Body.String())
		}
		if v := version(t, rec); v != cur {
			t.Fatalf("conflict header version = %d, want current %d", v, cur)
		}
		var body struct {
			CurrentVersion *uint64 `json:"currentVersion"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body.CurrentVersion == nil || *body.CurrentVersion != cur {
			t.Fatalf("conflict body currentVersion = %v, want %d", body.CurrentVersion, cur)
		}
		if p.Version() != cur {
			t.Fatalf("conflicted write mutated the store: %d -> %d", cur, p.Version())
		}
	})
	t.Run("quoted_ifmatch_accepted", func(t *testing.T) {
		rec := postIfMatch(t, s, "/propagate", "", fmt.Sprintf("%q", strconv.FormatUint(p.Version(), 10)))
		if rec.Code != http.StatusOK {
			t.Fatalf("quoted fresh If-Match = %d, want 200: %s", rec.Code, rec.Body.String())
		}
	})
	t.Run("readonly_is_403", func(t *testing.T) {
		ro := New(newTracked(t), Options{ReadOnly: true})
		for _, path := range []string{"/propagate", "/fork", "/schedules?kind=daily&action=propagate"} {
			rec := post(t, ro, path, "")
			if rec.Code != http.StatusForbidden {
				t.Errorf("read-only POST %s = %d, want 403: %s", path, rec.Code, rec.Body.String())
			}
		}
	})
	t.Run("unknown_fork_is_404", func(t *testing.T) {
		if rec := post(t, s, "/propagate?fork=ghost", ""); rec.Code != http.StatusNotFound {
			t.Fatalf("write to unknown fork = %d, want 404", rec.Code)
		}
	})
}

// TestQuarantinedWriteAnswers503NamingTheSentinel pins satellite 3: a
// write against a quarantined durable project maps ErrQuarantined to
// 503 with structured JSON naming the sentinel — over the host's full
// HTTP dispatch, exactly as an operator's probe would see it.
func TestQuarantinedWriteAnswers503NamingTheSentinel(t *testing.T) {
	ffs := &toggleFS{}
	h, err := NewHost(host.Options{
		Root:    t.TempDir(),
		Persist: flowsched.PersistOptions{NoSync: true, FS: ffs},
		Project: flowsched.Options{Designer: "ewj"},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown(context.Background())
	seedProject(t, h, "alpha")

	// Disk dies; the first write through HTTP both quarantines the
	// project and reports it.
	ffs.setFail(true)
	req := httptest.NewRequest(http.MethodPost, "/p/alpha/import?class=stimuli", strings.NewReader("lost"))
	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write on dead disk = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Quarantined bool   `json:"quarantined"`
		Sentinel    string `json:"sentinel"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if !body.Quarantined || body.Sentinel != "ErrQuarantined" {
		t.Fatalf("quarantine body = %+v, want quarantined=true sentinel=ErrQuarantined:\n%s",
			body, rec.Body.String())
	}

	// Subsequent writes keep answering 503, reads keep serving.
	req = httptest.NewRequest(http.MethodPost, "/p/alpha/propagate", nil)
	rec = httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write while quarantined = %d, want 503", rec.Code)
	}
	if rec := hostGet(t, h, "/p/alpha/status"); rec.Code != http.StatusOK {
		t.Fatalf("read while quarantined = %d, want 200", rec.Code)
	}
	// And the sanity check the mapping rests on: the error really is
	// the sentinel.
	hd, err := h.Projects().Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer hd.Release()
	werr := hd.Do(func(p *flowsched.Project) error {
		_, err := p.Import("stimuli", []byte("still dead"))
		return err
	})
	if !errors.Is(werr, flowsched.ErrQuarantined) {
		t.Fatalf("direct write = %v, want ErrQuarantined", werr)
	}
}

// TestOCCConflictRetryFansOutExactlyOnce is the PR's acceptance pin: a
// stale If-Match answers 409 carrying the current version, the retried
// write at the fresh version succeeds, and its event reaches every
// live SSE subscriber exactly once with byte-identical payloads.
func TestOCCConflictRetryFansOutExactlyOnce(t *testing.T) {
	p := newTracked(t)
	s := New(p, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.CloseStreams()

	// Three live streams, already past history.
	n := p.EventCount()
	const streams = 3
	readers := make([]*sseReader, streams)
	for i := range readers {
		res, sr := openSSE(t, ts, fmt.Sprintf("/events?stream=sse&since=%d", n), -1)
		defer res.Body.Close()
		readers[i] = sr
	}

	// Designer A read version v; designer B commits first.
	v := p.Version()
	if rec := post(t, s, "/milestone?name=race&class=performance&target="+
		p.Now().Add(24*time.Hour).Format(time.RFC3339), ""); rec.Code != http.StatusOK {
		t.Fatalf("interleaved write = %d: %s", rec.Code, rec.Body.String())
	}

	// A's write at the stale version: 409 + where the store actually is.
	rec := postIfMatch(t, s, "/import?class=stimuli", "occ retry", strconv.FormatUint(v, 10))
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale write = %d, want 409: %s", rec.Code, rec.Body.String())
	}
	fresh := version(t, rec)
	if fresh <= v {
		t.Fatalf("conflict reported version %d, want > %d", fresh, v)
	}

	// A retries at the reported version and wins.
	rec = postIfMatch(t, s, "/import?class=stimuli", "occ retry", strconv.FormatUint(fresh, 10))
	if rec.Code != http.StatusOK {
		t.Fatalf("retry at fresh version = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	var imported struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &imported); err != nil || imported.ID == "" {
		t.Fatalf("bad import body: %s", rec.Body.String())
	}

	// The retried write's event lands on every stream exactly once,
	// byte-identical, and never the conflicted attempt.
	payloads := make([]string, streams)
	for i, sr := range readers {
		hits := 0
		timeout := time.After(5 * time.Second)
		frames := make(chan sseFrame)
		errc := make(chan error, 1)
		go func() {
			for {
				f, err := sr.next()
				if err != nil {
					errc <- err
					return
				}
				frames <- f
			}
		}()
	read:
		for {
			select {
			case f := <-frames:
				if strings.Contains(f.data, " as "+imported.ID+`"`) {
					hits++
					payloads[i] = fmt.Sprintf("id=%d %s", f.id, f.data)
					break read // stream stays open; one hit is the claim
				}
			case err := <-errc:
				t.Fatalf("stream %d: %v", i, err)
			case <-timeout:
				t.Fatalf("stream %d never saw the retried write (hits=%d)", i, hits)
			}
		}
	}
	for i := 1; i < streams; i++ {
		if payloads[i] != payloads[0] {
			t.Fatalf("fan-out not byte-identical:\nstream0: %s\nstream%d: %s", payloads[0], i, payloads[i])
		}
	}
}

// TestForkSessions: a designer branches the tracked project, mutates
// and reads the branch through ?fork=, and discards it — without the
// tracked project ever changing.
func TestForkSessions(t *testing.T) {
	p := newTracked(t)
	s := New(p, Options{})
	base := p.Version()

	rec := post(t, s, "/fork?name=crunch", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /fork = %d: %s", rec.Code, rec.Body.String())
	}

	// Mutate the branch: milestone + re-plan.
	target := p.Now().Add(30 * 24 * time.Hour).Format(time.RFC3339)
	if rec := post(t, s, "/milestone?fork=crunch&name=branch-only&class=performance&target="+target, ""); rec.Code != http.StatusOK {
		t.Fatalf("fork write = %d: %s", rec.Code, rec.Body.String())
	}
	if p.Version() != base {
		t.Fatalf("fork write moved the tracked project: %d -> %d", base, p.Version())
	}

	// The branch's read surface sees it; the tracked one does not.
	if rec := get(t, s, "/milestones?fork=crunch"); !strings.Contains(rec.Body.String(), "branch-only") {
		t.Fatalf("fork read missing branch milestone:\n%s", rec.Body.String())
	}
	if rec := get(t, s, "/milestones"); strings.Contains(rec.Body.String(), "branch-only") {
		t.Fatalf("tracked read shows the fork's milestone:\n%s", rec.Body.String())
	}

	// Duplicate names refuse; the list names the session.
	if rec := post(t, s, "/fork?name=crunch", ""); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate fork = %d, want 409", rec.Code)
	}
	if rec := get(t, s, "/fork"); !strings.Contains(rec.Body.String(), "crunch") {
		t.Fatalf("fork list missing session:\n%s", rec.Body.String())
	}

	// Discard; the branch is gone from reads and writes.
	req := httptest.NewRequest(http.MethodDelete, "/fork?name=crunch", nil)
	del := httptest.NewRecorder()
	s.Handler().ServeHTTP(del, req)
	if del.Code != http.StatusOK {
		t.Fatalf("DELETE /fork = %d: %s", del.Code, del.Body.String())
	}
	if rec := get(t, s, "/milestones?fork=crunch"); rec.Code != http.StatusNotFound {
		t.Fatalf("read on discarded fork = %d, want 404", rec.Code)
	}
}

// TestForkLimit: the session budget answers 409 with the limit error,
// and freeing a slot restores service.
func TestForkLimit(t *testing.T) {
	s := New(newTracked(t), Options{MaxForks: 1})
	if rec := post(t, s, "/fork?name=a", ""); rec.Code != http.StatusOK {
		t.Fatalf("first fork = %d: %s", rec.Code, rec.Body.String())
	}
	rec := post(t, s, "/fork?name=b", "")
	if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), "fork limit") {
		t.Fatalf("fork past limit = %d %s, want 409 naming the limit", rec.Code, rec.Body.String())
	}
	req := httptest.NewRequest(http.MethodDelete, "/fork?name=a", nil)
	del := httptest.NewRecorder()
	s.Handler().ServeHTTP(del, req)
	if del.Code != http.StatusOK {
		t.Fatalf("DELETE = %d", del.Code)
	}
	if rec := post(t, s, "/fork?name=b", ""); rec.Code != http.StatusOK {
		t.Fatalf("fork after free = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestSchedulesFireOnVirtualClockCross: a schedule fires when a write
// moves the virtual clock across its boundary — deterministically,
// because virtual time only advances when work executes.
func TestSchedulesFireOnVirtualClockCross(t *testing.T) {
	p := newTracked(t)
	s := New(p, Options{})

	rec := post(t, s, "/schedules?kind=every&every=1h&action=propagate", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /schedules = %d: %s", rec.Code, rec.Body.String())
	}
	var sc Schedule
	if err := json.Unmarshal(rec.Body.Bytes(), &sc); err != nil {
		t.Fatal(err)
	}
	if !sc.Next.After(p.Now()) {
		t.Fatalf("schedule next %s not after now %s", sc.Next, p.Now())
	}

	// A milestone write does not move the clock: nothing fires.
	if rec := post(t, s, "/milestone?name=idle&class=performance&target="+
		p.Now().Add(48*time.Hour).Format(time.RFC3339), ""); rec.Code != http.StatusOK {
		t.Fatalf("milestone = %d", rec.Code)
	}
	if got := scheduleByID(t, s, sc.ID); got.Fired != 0 {
		t.Fatalf("schedule fired %d times with the clock parked", got.Fired)
	}

	// Fresh stimuli plus a re-plan make the flow runnable again; the
	// run executes real work and carries the clock hours forward —
	// past the boundary.
	if rec := post(t, s, "/import?class=stimuli", "fresh vectors"); rec.Code != http.StatusOK {
		t.Fatalf("import = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := post(t, s, "/plan?targets=performance", ""); rec.Code != http.StatusOK {
		t.Fatalf("plan = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := post(t, s, "/run?targets=performance", ""); rec.Code != http.StatusOK {
		t.Fatalf("run = %d: %s", rec.Code, rec.Body.String())
	}
	got := scheduleByID(t, s, sc.ID)
	if got.Fired < 1 {
		t.Fatalf("schedule never fired; next %s, now %s", got.Next, p.Now())
	}
	if got.LastErr != "" {
		t.Fatalf("schedule fire failed: %s", got.LastErr)
	}
	// Catch-up collapsed: however many periods the run spanned, the
	// next fire is in the future, not a backlog.
	if !got.Next.After(p.Now()) {
		t.Fatalf("next fire %s not past now %s: backlog left behind", got.Next, p.Now())
	}

	// DELETE removes it.
	req := httptest.NewRequest(http.MethodDelete, fmt.Sprintf("/schedules?id=%d", sc.ID), nil)
	del := httptest.NewRecorder()
	s.Handler().ServeHTTP(del, req)
	if del.Code != http.StatusOK {
		t.Fatalf("DELETE /schedules = %d: %s", del.Code, del.Body.String())
	}
	if list := scheduleList(t, s); len(list) != 0 {
		t.Fatalf("schedules after delete: %+v", list)
	}
}

func scheduleList(t *testing.T, s *Server) []Schedule {
	t.Helper()
	rec := get(t, s, "/schedules")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /schedules = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Schedules []Schedule `json:"schedules"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	return body.Schedules
}

func scheduleByID(t *testing.T, s *Server, id int) Schedule {
	t.Helper()
	for _, sc := range scheduleList(t, s) {
		if sc.ID == id {
			return sc
		}
	}
	t.Fatalf("no schedule %d", id)
	return Schedule{}
}

// TestAddScheduleSpec pins the flowservd -schedule flag syntax.
func TestAddScheduleSpec(t *testing.T) {
	s := New(newTracked(t), Options{})
	for _, spec := range []string{"daily:run:performance", "every=4h:plan:performance:6", "weekly:propagate"} {
		if _, err := s.AddSchedule(spec); err != nil {
			t.Errorf("AddSchedule(%q): %v", spec, err)
		}
	}
	for _, spec := range []string{"daily", "sometimes:plan", "every:plan", "daily:dance"} {
		if _, err := s.AddSchedule(spec); err == nil {
			t.Errorf("AddSchedule(%q) accepted a bad spec", spec)
		}
	}
}
