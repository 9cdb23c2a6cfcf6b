package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sseSub is the designer workload's event-stream follower: one live
// /events stream opened before the timed phase. When the server drops
// it as a slow subscriber (its queue filled during a burst), it
// reconnects with Last-Event-ID, as any client must, and resumes.
type sseSub struct {
	e      *env
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu         sync.Mutex
	ids        []int
	arrivals   []time.Time
	reconnects int
	err        error
}

// sseResult is what the follower received against what the project
// appended.
type sseResult struct {
	since               int // the EventCount the follower started after
	expected, delivered int
	reconnects          int
	arrivals            []time.Time // by event position past the start
	errs                []string
}

// startSSE opens the stream resuming after since and returns once the
// server has answered with the stream's headers.
func startSSE(e *env, since int) (*sseSub, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &sseSub{e: e, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	resp, err := s.open(since)
	if err != nil {
		cancel()
		return nil, err
	}
	go s.follow(resp, since)
	return s, nil
}

func (s *sseSub) open(cursor int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(s.ctx, "GET", fmt.Sprintf("%s/events?since=%d", s.e.base, cursor), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", strconv.Itoa(cursor))
	resp, err := s.e.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	return resp, nil
}

// follow reads streams until the follower is stopped, reconnecting
// after a slow-subscriber drop.
func (s *sseSub) follow(resp *http.Response, cursor int) {
	defer close(s.done)
	for {
		var terminal string
		cursor, terminal = s.read(resp, cursor)
		resp.Body.Close()
		if terminal != "slow" || s.ctx.Err() != nil {
			return
		}
		var err error
		if resp, err = s.open(cursor); err != nil {
			if s.ctx.Err() == nil {
				s.setErr(err)
			}
			return
		}
		s.mu.Lock()
		s.reconnects++
		s.mu.Unlock()
	}
}

// read consumes one stream's frames and returns the cursor reached and
// the terminal event that ended the stream, if any.
func (s *sseSub) read(resp *http.Response, cursor int) (int, string) {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	id, event := -1, ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id, _ = strconv.Atoi(line[4:])
		case strings.HasPrefix(line, "event: "):
			event = line[7:]
		case line == "":
			if event != "flow" {
				return cursor, event
			}
			s.mu.Lock()
			s.ids = append(s.ids, id)
			s.arrivals = append(s.arrivals, time.Now())
			s.mu.Unlock()
			cursor = id
			id, event = -1, ""
		}
	}
	if err := sc.Err(); err != nil && s.ctx.Err() == nil {
		s.setErr(err)
	}
	return cursor, ""
}

func (s *sseSub) setErr(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// stop ends the stream and waits for the follower to exit.
func (s *sseSub) stop() {
	s.cancel()
	<-s.done
}

// finish waits (bounded) until the follower has seen every event up to
// count, then checks it received each event past since exactly once
// and in order.
func (s *sseSub) finish(count, since int) *sseResult {
	res := &sseResult{since: since, expected: count - since}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.ids)
		s.mu.Unlock()
		if n >= res.expected || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	res.delivered, res.reconnects, res.arrivals = len(s.ids), s.reconnects, s.arrivals
	if s.err != nil {
		res.errs = append(res.errs, s.err.Error())
	}
	if len(s.ids) != res.expected {
		res.errs = append(res.errs, fmt.Sprintf("received %d events, EventCount grew by %d", len(s.ids), res.expected))
	}
	for i, id := range s.ids {
		if id != since+i+1 {
			res.errs = append(res.errs, fmt.Sprintf("event %d has id %d, want %d", i, id, since+i+1))
			break
		}
	}
	return res
}
