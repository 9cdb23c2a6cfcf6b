package serve

import (
	"sync"

	"flowsched/internal/obs"
)

// respCache is the server's one response cache: rendered bodies with
// singleflight semantics — when N requests with one key arrive
// together, one renders and N-1 wait for its bytes. Every route has
// exactly one key, filed in one of two generations:
//
//   - snapshot keys ("session.version.now|route?query") name the full
//     snapshot identity, so a hit is byte-identical to the leader's
//     render. The generation is dropped when the server's project
//     advances; the clear is for memory, not correctness.
//   - fingerprint keys ("route?query|fingerprint") name a canonical hash
//     of the response's inputs (see flowsched.ProjectView.RiskFingerprint)
//     and survive store advances that leave those inputs unchanged;
//     soundness rests on equal fingerprints meaning identical renders.
//
// Each generation has its own bound, so clearing or overflowing the
// snapshot generation never evicts a fingerprint entry.
type respCache struct {
	mu       sync.Mutex
	version  uint64 // newest project version seen; older snapshot entries are garbage
	snap, fp generation

	invalidations *obs.Counter
}

// generation is one bounded key space of the cache. When full it drops
// everything rather than track recency: snapshot keys turn over with
// every store advance anyway, and precision would buy little for a
// bounded response cache.
type generation struct {
	entries map[string]*cacheEntry
	max     int

	hits, misses, evictions *obs.Counter
}

// cacheEntry is one rendered body. ready is closed once body/ctype/err
// are final; waiters must not read them before.
type cacheEntry struct {
	ready chan struct{}
	body  []byte
	ctype string
	err   error
}

func newRespCache(max int, reg *obs.Registry) *respCache {
	// One labeled family covers both generations: tier="memo" for
	// snapshot keys, tier="fingerprint" for input keys.
	ev := reg.CounterVec("serve_cache_events_total", "tier", "event")
	gen := func(tier string) generation {
		return generation{
			entries:   make(map[string]*cacheEntry),
			max:       max,
			hits:      ev.With(tier, "hit"),
			misses:    ev.With(tier, "miss"),
			evictions: ev.With(tier, "eviction"),
		}
	}
	return &respCache{
		snap:          gen("memo"),
		fp:            gen("fingerprint"),
		invalidations: ev.With("memo", "invalidation"),
	}
}

// do returns the cached body for key, rendering at most once per key.
// fingerprint selects the generation key belongs to. version is the
// store version of the server's own project behind the render, or 0
// for a fork session's view: a fork continues its parent's version
// numbers, so its views must not clear the project's snapshot entries
// (its keys carry the session instead). Failed renders are never cached.
func (c *respCache) do(key string, fingerprint bool, version uint64, render func() ([]byte, string, error)) (body []byte, ctype string, hit bool, err error) {
	c.mu.Lock()
	if version > c.version {
		c.snap.entries = make(map[string]*cacheEntry)
		c.version = version
		c.invalidations.Inc()
	}
	g := &c.snap
	if fingerprint {
		g = &c.fp
	}
	if e, ok := g.entries[key]; ok {
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, "", false, e.err
		}
		g.hits.Inc()
		return e.body, e.ctype, true, nil
	}
	if len(g.entries) >= g.max {
		g.entries = make(map[string]*cacheEntry)
		g.evictions.Inc()
	}
	e := &cacheEntry{ready: make(chan struct{})}
	g.entries[key] = e
	c.mu.Unlock()

	g.misses.Inc()
	e.body, e.ctype, e.err = render()
	if e.err != nil {
		c.mu.Lock()
		if g.entries[key] == e {
			delete(g.entries, key)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.body, e.ctype, false, e.err
}
