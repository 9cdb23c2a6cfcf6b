package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"flowsched"
)

// TestEventsNextCursorEchoesConsumedPosition pins the /events poll
// contract: "next" is the cursor after the returned page — since +
// len(events) — not an echo of the request's since. (The original
// handler echoed since, so every poller replayed the full stream
// forever.)
func TestEventsNextCursorEchoesConsumedPosition(t *testing.T) {
	p := newTracked(t)
	s := New(p, Options{})

	var page struct {
		Since  int               `json:"since"`
		Next   int               `json:"next"`
		Events []flowsched.Event `json:"events"`
	}
	rec := get(t, s, "/events?since=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /events = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) == 0 {
		t.Fatal("tracked project produced no events")
	}
	if page.Next != len(page.Events) {
		t.Fatalf("next = %d, want %d (since + page length)", page.Next, len(page.Events))
	}

	// Polling from next returns an empty page with the same cursor —
	// the poller idles instead of replaying.
	rec = get(t, s, fmt.Sprintf("/events?since=%d", page.Next))
	var again struct {
		Next   int               `json:"next"`
		Events []flowsched.Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &again); err != nil {
		t.Fatal(err)
	}
	if len(again.Events) != 0 || again.Next != page.Next {
		t.Fatalf("poll at head = %d events, next %d; want 0 events, next %d",
			len(again.Events), again.Next, page.Next)
	}

	// A mid-stream cursor pages the remainder only.
	rec = get(t, s, "/events?since=2")
	if err := json.Unmarshal(rec.Body.Bytes(), &again); err != nil {
		t.Fatal(err)
	}
	if want := page.Next; again.Next != want || len(again.Events) != want-2 {
		t.Fatalf("since=2: %d events, next %d; want %d events, next %d",
			len(again.Events), again.Next, want-2, want)
	}

	// EventsPage (the facade twin the hercules poller uses) agrees.
	evs, next := p.EventsPage(0)
	if next != len(evs) || next != page.Next {
		t.Fatalf("EventsPage(0) next = %d over %d events, want %d", next, len(evs), page.Next)
	}
}

// TestEventsNegativeSinceRejected pins the 400 on a negative cursor:
// EventsPage silently clamps to zero, which would hide a client-side
// cursor underflow behind a full-stream replay.
func TestEventsNegativeSinceRejected(t *testing.T) {
	s := New(newTracked(t), Options{})
	rec := get(t, s, "/events?since=-1")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("GET /events?since=-1 = %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "cursor must be >= 0") {
		t.Fatalf("400 body does not explain the cursor rule: %s", rec.Body.String())
	}

	// The SSE resume header gets the same treatment.
	req := httptest.NewRequest(http.MethodGet, "/events?stream=sse", nil)
	req.Header.Set("Last-Event-ID", "-3")
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("SSE with Last-Event-ID -3 = %d, want 400", rec.Code)
	}
}

// counterValue reads one plain counter off the server's registry.
func counterValue(s *Server, name string) float64 {
	for _, m := range s.Registry().Snapshot() {
		if m.Name == name && m.Labels == nil {
			return m.Value
		}
	}
	return 0
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	id    int
	event string
	data  string
}

// sseReader incrementally parses an SSE stream.
type sseReader struct {
	br *bufio.Reader
}

func newSSEReader(r io.Reader) *sseReader { return &sseReader{br: bufio.NewReader(r)} }

// next reads one frame, blocking until the blank separator line.
func (sr *sseReader) next() (sseFrame, error) {
	var f sseFrame
	seen := false
	for {
		line, err := sr.br.ReadString('\n')
		if err != nil {
			return f, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if seen {
				return f, nil
			}
		case strings.HasPrefix(line, "id: "):
			seen = true
			f.id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			seen = true
			f.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			seen = true
			f.data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// openSSE starts one stream against a live test server and returns the
// response (caller closes) plus the parser.
func openSSE(t *testing.T, ts *httptest.Server, path string, lastEventID int) (*http.Response, *sseReader) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastEventID))
	}
	res, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		t.Fatalf("GET %s = %d: %s", path, res.StatusCode, body)
	}
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	return res, newSSEReader(res.Body)
}

// TestSSEReplayThenLive: a stream replays history with 1-based stream
// positions as SSE ids, then pushes each new write's events without
// polling.
func TestSSEReplayThenLive(t *testing.T) {
	p := newTracked(t)
	s := New(p, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.CloseStreams()

	n := p.EventCount()
	res, sr := openSSE(t, ts, "/events?stream=sse", -1)
	defer res.Body.Close()

	for i := 1; i <= n; i++ {
		f, err := sr.next()
		if err != nil {
			t.Fatalf("replay frame %d: %v", i, err)
		}
		if f.id != i || f.event != "flow" {
			t.Fatalf("replay frame = id %d event %q, want id %d event flow", f.id, f.event, i)
		}
		var e flowsched.Event
		if err := json.Unmarshal([]byte(f.data), &e); err != nil {
			t.Fatalf("frame %d data is not an Event: %v\n%s", i, err, f.data)
		}
	}

	// A write lands on the open stream with the next position.
	rec := post(t, s, "/import?class=stimuli", "live push")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /import = %d: %s", rec.Code, rec.Body.String())
	}
	f, err := sr.next()
	if err != nil {
		t.Fatalf("live frame: %v", err)
	}
	if f.id != n+1 || !strings.Contains(f.data, "imported") {
		t.Fatalf("live frame = id %d data %s, want id %d with the import event", f.id, f.data, n+1)
	}
}

// TestSSELastEventIDResume: a reconnecting client presents the last id
// it consumed and receives only what it missed.
func TestSSELastEventIDResume(t *testing.T) {
	p := newTracked(t)
	s := New(p, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.CloseStreams()

	n := p.EventCount()
	if n < 2 {
		t.Fatalf("need at least 2 events, have %d", n)
	}
	res, sr := openSSE(t, ts, "/events", n-2)
	defer res.Body.Close()
	for want := n - 1; want <= n; want++ {
		f, err := sr.next()
		if err != nil {
			t.Fatal(err)
		}
		if f.id != want {
			t.Fatalf("resumed frame id = %d, want %d", f.id, want)
		}
	}
}

// TestSSEBurstDeliveredWhole: a burst of writes far larger than any
// per-stream buffer reaches an open stream whole — every event, in
// order, with no terminal frame — because the stream reads the event
// log by cursor. GOMAXPROCS(1) lets the writer run well ahead of the
// stream's goroutine.
func TestSSEBurstDeliveredWhole(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := newTracked(t)
	s := New(p, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.CloseStreams()

	from := p.EventCount()
	res, sr := openSSE(t, ts, "/events", from)
	defer res.Body.Close()
	const imports = 200
	for i := 0; i < imports; i++ {
		if _, err := p.Import("stimuli", []byte(fmt.Sprintf("burst %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	to := p.EventCount()
	seen := 0
	for want := from + 1; want <= to; want++ {
		f, err := sr.next()
		if err != nil {
			t.Fatalf("after %d frames: %v", want-from-1, err)
		}
		if f.event != "flow" || f.id != want {
			t.Fatalf("frame %d = id %d event %q, want id %d event flow", want-from, f.id, f.event, want)
		}
		if strings.Contains(f.data, "imported") {
			seen++
		}
	}
	if seen != imports {
		t.Fatalf("stream carried %d import events, want %d", seen, imports)
	}
	for _, name := range []string{"serve_sse_streams_total", "serve_sse_subscribers"} {
		if got := counterValue(s, name); got != 1 {
			t.Fatalf("%s = %v with one open stream, want 1", name, got)
		}
	}
}

// TestSSEHammerConcurrentWritersAndShutdown is the race recipe for the
// push path: concurrent writers commit through the HTTP surface while
// several SSE subscribers stream, then the server drains. Pins:
//
//   - every accepted write's event reaches every surviving stream
//     exactly once (no loss at the replay/live boundary, no dupes);
//   - fan-out is byte-identical — the same id carries the same bytes
//     on every stream;
//   - drain is bounded: every stream ends with a terminal frame and
//     the test server's Close (which waits for open requests) returns.
func TestSSEHammerConcurrentWritersAndShutdown(t *testing.T) {
	p := newTracked(t)
	s := New(p, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const subscribers, writers, writesEach = 4, 4, 10

	type streamResult struct {
		frames   map[int]string // id -> data
		terminal string
		err      error
	}
	results := make([]streamResult, subscribers)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		res, sr := openSSE(t, ts, "/events?stream=sse", -1)
		wg.Add(1)
		go func(i int, res *http.Response, sr *sseReader) {
			defer wg.Done()
			defer res.Body.Close()
			r := streamResult{frames: make(map[int]string)}
			for {
				f, err := sr.next()
				if err != nil {
					r.err = err
					break
				}
				if f.event != "flow" {
					r.terminal = f.event
					break
				}
				if _, dup := r.frames[f.id]; dup {
					r.err = fmt.Errorf("duplicate id %d", f.id)
					break
				}
				r.frames[f.id] = f.data
			}
			results[i] = r
		}(i, res, sr)
	}

	// Writers commit imports; each accepted response names the entity
	// whose creation event must reach every stream.
	accepted := make([][]string, writers)
	var ww sync.WaitGroup
	for i := 0; i < writers; i++ {
		ww.Add(1)
		go func(i int) {
			defer ww.Done()
			for j := 0; j < writesEach; j++ {
				res, err := ts.Client().Post(
					fmt.Sprintf("%s/import?class=stimuli", ts.URL),
					"text/plain", strings.NewReader(fmt.Sprintf("w%d-%d", i, j)))
				if err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
				var out struct {
					ID string `json:"id"`
				}
				blob, _ := io.ReadAll(res.Body)
				res.Body.Close()
				if res.StatusCode != http.StatusOK {
					t.Errorf("writer %d: status %d: %s", i, res.StatusCode, blob)
					return
				}
				if err := json.Unmarshal(blob, &out); err != nil || out.ID == "" {
					t.Errorf("writer %d: bad body %s", i, blob)
					return
				}
				accepted[i] = append(accepted[i], out.ID)
			}
		}(i)
	}
	ww.Wait()

	// Give the pump a beat to fan the tail out, then drain. Shutdown
	// must send every stream its terminal frame and return promptly.
	time.Sleep(200 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung on open SSE streams")
	}
	wg.Wait()

	for i, r := range results {
		if r.err != nil {
			t.Fatalf("subscriber %d: %v", i, r.err)
		}
		if r.terminal != "shutdown" {
			t.Fatalf("subscriber %d terminal = %q, want shutdown", i, r.terminal)
		}
		for w, ids := range accepted {
			for _, id := range ids {
				hits := 0
				for _, data := range r.frames {
					if strings.Contains(data, " as "+id+`"`) {
						hits++
					}
				}
				if hits != 1 {
					t.Fatalf("subscriber %d saw write %s (writer %d) %d times, want exactly 1", i, id, w, hits)
				}
			}
		}
	}
	// Byte-identical fan-out: every stream that carries id k carries
	// the same bytes for it.
	canonical := make(map[int]string)
	for i, r := range results {
		for id, data := range r.frames {
			if want, ok := canonical[id]; ok && want != data {
				t.Fatalf("subscriber %d id %d bytes differ across streams:\n%s\n%s", i, id, data, want)
			}
			canonical[id] = data
		}
	}
}
