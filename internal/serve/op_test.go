package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// importedSeq reads an import response's instance number: stimuli/3 → 3.
func importedSeq(t *testing.T, s *Server) int {
	t.Helper()
	rec := post(t, s, "/import?class=stimuli", "pulse")
	var body struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("import = %d: %s", rec.Code, rec.Body.String())
	}
	n, err := strconv.Atoi(body.ID[strings.LastIndexByte(body.ID, '/')+1:])
	if err != nil {
		t.Fatalf("import id %q: %v", body.ID, err)
	}
	return n
}

// TestOversizeWriteBodyIs413: a body over the 1 MiB cap answers 413
// under its own outcome label, and the write is not applied — neither
// a truncated import nor truncated actuals.
func TestOversizeWriteBodyIs413(t *testing.T) {
	p := newTracked(t)
	s := New(p, Options{})
	before := importedSeq(t, s)
	version, events := p.Version(), p.EventCount()
	big := strings.Repeat("x", 1<<20+4<<10) // 1 MiB + 4 KiB
	for _, route := range []string{"import", "track"} {
		rec := post(t, s, "/"+route+"?class=stimuli", big)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST /%s with %d bytes = %d, want 413: %s", route, len(big), rec.Code, rec.Body.String())
		}
		if got := metricValue(t, s, `serve_writes_total{outcome="too_large",route="`+route+`"}`); got != 1 {
			t.Fatalf("too_large count for %s = %d, want 1", route, got)
		}
	}
	if p.Version() != version || p.EventCount() != events {
		t.Fatalf("oversize writes moved version %d→%d, events %d→%d", version, p.Version(), events, p.EventCount())
	}
	if after := importedSeq(t, s); after != before+1 {
		t.Fatalf("next import is stimuli/%d after stimuli/%d: the oversize import was filed", after, before)
	}
}

// TestScheduleOpsValidateLikeTheirRoutes: a schedule's op parses with
// its route's grammar, so a query its route refuses is refused at
// /schedules too, and nothing is installed.
func TestScheduleOpsValidateLikeTheirRoutes(t *testing.T) {
	s := New(newTracked(t), Options{})
	for _, c := range []struct{ route, query string }{
		{"plan", "targets=performance&hours=0"},
		{"plan", "hours=eight"},
		{"run", "parallel=yes"},
		{"run", "autocomplete=maybe"},
	} {
		for _, path := range []string{
			"/" + c.route + "?" + c.query,
			"/schedules?kind=daily&action=" + c.route + "&" + c.query,
		} {
			if rec := post(t, s, path, ""); rec.Code != http.StatusBadRequest {
				t.Errorf("POST %s = %d, want 400: %s", path, rec.Code, rec.Body.String())
			}
		}
	}
	if list := scheduleList(t, s); len(list) != 0 {
		t.Fatalf("refused schedules were installed: %+v", list)
	}

	// An accepted schedule carries its op in the canonical form.
	rec := post(t, s, "/schedules?kind=daily&action=run&targets=performance&parallel=true", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /schedules = %d: %s", rec.Code, rec.Body.String())
	}
	var raw struct {
		Op string `json:"op"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if want := "run?parallel=true&targets=performance"; raw.Op != want {
		t.Fatalf("schedule op = %q, want %q", raw.Op, want)
	}
	if got := scheduleList(t, s); len(got) != 1 || !got[0].Op.Parallel || got[0].Op.String() != raw.Op {
		t.Fatalf("listed schedules = %+v, want the parallel run", got)
	}
}

// TestMilestoneDateFormsOverHTTP: /milestone takes RFC 3339 and the
// hercules minute form (UTC), to the same instant.
func TestMilestoneDateFormsOverHTTP(t *testing.T) {
	s := New(newTracked(t), Options{})
	want := time.Date(1995, 6, 9, 17, 0, 0, 0, time.UTC)
	for name, target := range map[string]string{"short": "1995-06-09T17:00", "rfc": "1995-06-09T17:00:00Z"} {
		rec := post(t, s, "/milestone?name="+name+"&class=performance&target="+target, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /milestone target=%s = %d: %s", target, rec.Code, rec.Body.String())
		}
		var body struct {
			Target time.Time `json:"target"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if !body.Target.Equal(want) {
			t.Fatalf("target=%s committed %s, want %s", target, body.Target, want)
		}
	}
	rec := post(t, s, "/milestone?name=bad&class=performance&target=1995-06-09", "")
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad target date") {
		t.Fatalf("date without a time = %d %s, want 400 naming the bad target date", rec.Code, rec.Body.String())
	}
}
