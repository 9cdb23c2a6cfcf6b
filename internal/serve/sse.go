package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// wantsSSE reports whether the /events request asked for a stream
// (Accept: text/event-stream, or ?stream=sse for curl-friendliness).
func wantsSSE(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "sse" {
		return true
	}
	return strings.HasPrefix(r.Header.Get("Accept"), "text/event-stream")
}

// writeSSEEvent emits one SSE frame: id is the resume cursor after this
// event, data the one-line JSON payload.
func writeSSEEvent(w http.ResponseWriter, id int, data []byte) {
	fmt.Fprintf(w, "id: %d\nevent: flow\ndata: %s\n\n", id, data)
}

// eventsSSE serves one live stream as a cursor over the project's event
// log: each pass writes every event past the cursor, then blocks until
// the next append, client disconnect, or server drain (which sends what
// is already logged, then a terminal frame). The log is the only
// buffer, so a burst of writes can never end a stream, and every event
// is delivered once, in order.
//
// Event IDs are 1-based stream positions: event i (0-based) carries id
// i+1, which is exactly the "next" cursor after consuming it — the same
// token the JSON poll mode returns, so the two modes share resume
// semantics. Each stream marshals its own events; json.Marshal of an
// Event is deterministic, so fan-out stays byte-identical.
func (s *Server) eventsSSE(w http.ResponseWriter, r *http.Request, since int) {
	// Resume: Last-Event-ID (the standard reconnect header) wins over
	// ?since. Both are "events already seen" counts.
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		n, err := strconv.Atoi(lei)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad Last-Event-ID %q: want non-negative integer", lei),
				http.StatusBadRequest)
			return
		}
		since = n
	}

	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	select {
	case <-s.draining:
		w.Header().Set("Retry-After", retryAfterValue(s.opt.RetryAfter))
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	default:
	}
	s.sseStreams.Inc()
	s.sseSubscribers.Add(1)
	defer s.sseSubscribers.Add(-1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// A stream outlives any sane write timeout; clear the deadline for
	// this connection only.
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Time{})

	ctx := r.Context()
	cursor := since
	for {
		evs, wake := s.p.EventsAfter(cursor)
		for _, e := range evs {
			cursor++
			data, err := json.Marshal(e)
			if err != nil {
				continue // cannot happen for Event; skip rather than wedge
			}
			writeSSEEvent(w, cursor, data)
		}
		flusher.Flush()
		s.sseSent.Add(int64(len(evs)))
		if wake == nil {
			// More may already be logged: read again at once, but
			// still honour drain and disconnect.
			wake = ready
		}
		select {
		case <-wake:
		case <-s.draining:
			if len(evs) > 0 {
				continue // deliver everything logged before the drain
			}
			// The terminal frame every live stream is promised on drain.
			fmt.Fprintf(w, "event: shutdown\ndata: {\"resume\":%d}\n\n", cursor)
			flusher.Flush()
			return
		case <-ctx.Done():
			return
		}
	}
}

// ready is an always-closed channel: the wait a stream takes when the
// log already holds events past its cursor.
var ready = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()
