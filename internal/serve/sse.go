package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"flowsched"
	"flowsched/internal/obs"
)

// eventHub fans the project's event stream out to every connected SSE
// subscriber: one pump goroutine per project (running only while
// someone is subscribed) blocks on Project.EventsAfter, marshals each
// new event once, and broadcasts the bytes — so N dashboards ride one
// stream instead of N pollers hammering snapshots.
//
// Each subscriber owns a bounded queue. A subscriber that cannot keep
// up is dropped (its channel closed with reason "slow" and the drop
// counted), never waited on: one stalled dashboard must not stall the
// pump or the other streams. Dropped clients reconnect with
// Last-Event-ID and replay what they missed from the log.
//
// Event IDs are 1-based stream positions: event i (0-based) carries
// id i+1, which is exactly the "next" cursor after consuming it — the
// same token the JSON poll mode returns, so the two modes share resume
// semantics.
type eventHub struct {
	p     *flowsched.Project
	queue int // per-subscriber buffer

	mu      sync.Mutex
	subs    map[*subscriber]struct{}
	closed  bool
	stop    chan struct{} // current pump's stop signal; nil when idle
	stopped chan struct{} // closed when the current pump exits

	subscribers *obs.Gauge   // serve_sse_subscribers
	streams     *obs.Counter // serve_sse_streams_total
	delivered   *obs.Counter // serve_sse_events_sent_total
	slowDrops   *obs.Counter // serve_sse_slow_dropped_total
}

// hubEvent is one broadcast event: the stream position (1-based; also
// the SSE id and resume cursor) plus the marshaled payload, shared by
// every subscriber so fan-out is byte-identical.
type hubEvent struct {
	seq  int
	data []byte
}

// subscriber is one live stream. reason is set under the hub lock
// before ch is closed, so the handler may read it after ch closes.
type subscriber struct {
	ch     chan hubEvent
	reason string // "slow" or "shutdown"
}

const defaultSSEQueue = 64

func newEventHub(p *flowsched.Project, queue int, reg *obs.Registry) *eventHub {
	if queue <= 0 {
		queue = defaultSSEQueue
	}
	return &eventHub{
		p: p, queue: queue,
		subs:        make(map[*subscriber]struct{}),
		subscribers: reg.Gauge("serve_sse_subscribers"),
		streams:     reg.Counter("serve_sse_streams_total"),
		delivered:   reg.Counter("serve_sse_events_sent_total"),
		slowDrops:   reg.Counter("serve_sse_slow_dropped_total"),
	}
}

// subscribe registers a new stream and (re)starts the pump if it is the
// first. Returns nil when the hub is already closed (server draining).
// The subscription is registered before the pump cursor is read, so an
// event appended at any point after subscribe is either within reach of
// the caller's history replay or will arrive on the channel — never
// lost in between. Duplicates across that boundary carry their stream
// position, so the handler filters them by seq.
func (h *eventHub) subscribe() *subscriber {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	sub := &subscriber{ch: make(chan hubEvent, h.queue)}
	h.subs[sub] = struct{}{}
	h.subscribers.Set(int64(len(h.subs)))
	h.streams.Inc()
	if h.stop == nil {
		h.stop = make(chan struct{})
		h.stopped = make(chan struct{})
		go h.pump(h.p.EventCount(), h.stop, h.stopped)
	}
	return sub
}

// unsubscribe removes a stream; the last one out stops the pump so an
// idle project carries no goroutine.
func (h *eventHub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	if _, ok := h.subs[sub]; ok {
		delete(h.subs, sub)
		h.subscribers.Set(int64(len(h.subs)))
	}
	var stop chan struct{}
	if len(h.subs) == 0 && h.stop != nil && !h.closed {
		stop, h.stop, h.stopped = h.stop, nil, nil
	}
	h.mu.Unlock()
	if stop != nil {
		close(stop)
	}
}

// pump follows the event stream from cursor and broadcasts every new
// event until stopped. Marshaling happens once per event, here.
func (h *eventHub) pump(cursor int, stop <-chan struct{}, stopped chan<- struct{}) {
	defer close(stopped)
	for {
		evs, wake := h.p.EventsAfter(cursor)
		for _, e := range evs {
			cursor++
			data, err := json.Marshal(e)
			if err != nil {
				continue // cannot happen for Event; skip rather than wedge
			}
			h.broadcast(hubEvent{seq: cursor, data: data})
		}
		if wake == nil {
			continue
		}
		select {
		case <-wake:
		case <-stop:
			return
		}
	}
}

// broadcast enqueues one event to every subscriber, dropping those
// whose queue is full rather than blocking the pump.
func (h *eventHub) broadcast(he hubEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for sub := range h.subs {
		select {
		case sub.ch <- he:
			h.delivered.Inc()
		default:
			sub.reason = "slow"
			delete(h.subs, sub)
			close(sub.ch)
			h.slowDrops.Inc()
		}
	}
	h.subscribers.Set(int64(len(h.subs)))
}

// close shuts the hub down for server drain: the pump exits, then every
// remaining subscriber's channel is closed with reason "shutdown" so
// each live stream emits one terminal event and returns — Shutdown
// never hangs on an open stream.
func (h *eventHub) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	stop, stopped := h.stop, h.stopped
	h.stop, h.stopped = nil, nil
	h.mu.Unlock()

	if stop != nil {
		close(stop)
		<-stopped
	}

	h.mu.Lock()
	for sub := range h.subs {
		sub.reason = "shutdown"
		delete(h.subs, sub)
		close(sub.ch)
	}
	h.subscribers.Set(0)
	h.mu.Unlock()
}

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

// eventsSSE serves one live stream: history replayed from the resume
// cursor, then hub broadcasts until client disconnect, slow-drop, or
// server shutdown (which sends a terminal frame).
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
	sub := s.hub.subscribe()
	if sub == nil {
		w.Header().Set("Retry-After", retryAfterValue(s.opt.RetryAfter))
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	defer s.hub.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// A stream outlives any sane write timeout; clear the deadline for
	// this connection only.
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Time{})

	// Replay history the client has not seen. Subscription happened
	// first, so anything appended from here on is also on the channel;
	// the seq filter below discards the overlap.
	cursor := since
	evs, _ := s.p.EventsPage(cursor)
	for _, e := range evs {
		cursor++
		data, err := json.Marshal(e)
		if err != nil {
			continue
		}
		writeSSEEvent(w, cursor, data)
	}
	flusher.Flush()

	ctx := r.Context()
	for {
		select {
		case he, ok := <-sub.ch:
			if !ok {
				// Closed by the hub: say why, then end the stream. A
				// slow-dropped client resumes via Last-Event-ID; a
				// shutdown frame is the terminal event every live
				// subscriber is promised on drain.
				fmt.Fprintf(w, "event: %s\ndata: {\"resume\":%d}\n\n", sub.reason, cursor)
				flusher.Flush()
				return
			}
			if he.seq <= cursor {
				continue // already replayed from history
			}
			writeSSEEvent(w, he.seq, he.data)
			cursor = he.seq
			flusher.Flush()
		case <-ctx.Done():
			return
		}
	}
}
