package serve

import (
	"sync"

	"flowsched/internal/obs"
)

// fpCache is the fingerprint tier behind the per-snapshot memo: rendered
// bodies keyed by a canonical hash of everything the response depends on
// (route, parameters, derived risk/what-if inputs). Unlike memoCache it
// deliberately survives store-version advances — a mutation that does
// not change a response's fingerprint (a write on an unrelated branch of
// the database) leaves its entry valid, so the next request is answered
// without re-running the simulation at all. Soundness rests entirely on
// the fingerprint: equal fingerprints must mean byte-identical renders
// (see flowsched.ProjectView.RiskFingerprint / WhatIfFingerprint).
type fpCache struct {
	mu      sync.Mutex
	entries map[string]fpBody
	max     int

	hits, misses, evictions *obs.Counter
}

type fpBody struct {
	body  []byte
	ctype string
}

func newFPCache(max int, reg *obs.Registry) *fpCache {
	ev := reg.CounterVec("serve_cache_events_total", "tier", "event")
	return &fpCache{
		entries:   make(map[string]fpBody),
		max:       max,
		hits:      ev.With("fingerprint", "hit"),
		misses:    ev.With("fingerprint", "miss"),
		evictions: ev.With("fingerprint", "eviction"),
	}
}

// get returns the memoized body for the fingerprint key. Only probed on
// a per-snapshot memo miss, so the hit counter counts exactly the
// renders the tier saved across snapshots.
func (c *fpCache) get(key string) ([]byte, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses.Inc()
		return nil, "", false
	}
	c.hits.Inc()
	return e.body, e.ctype, true
}

// put files a rendered body under its fingerprint key. Full: drop
// everything rather than track recency (same policy as memoCache —
// precision would buy little for a bounded response cache).
func (c *fpCache) put(key string, body []byte, ctype string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= c.max {
		c.entries = make(map[string]fpBody)
		c.evictions.Inc()
	}
	c.entries[key] = fpBody{body: body, ctype: ctype}
}
