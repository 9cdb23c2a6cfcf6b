package monte

import (
	"container/list"
	"sync"
	"time"
)

// Memo is a byte-budgeted LRU cache of per-subtree trial streams: for
// each (subtree fingerprint, seed, trial count) it keeps the activity's
// finish-time sample per trial index, plus the total iteration count
// behind those samples. A Simulate call given a Memo reuses cached
// samples for every activity whose fingerprint hits and re-samples only
// the rest — and because the RNG streams are keyed per activity, the
// composed result is bit-identical to a cold full run (see
// fingerprint.go for the soundness argument). The memo therefore never
// changes results, only how much sampling work a run performs; when an
// entry would not fit the byte budget the run simply samples without
// caching.
//
// A Memo is safe for concurrent use and is meant to be long-lived:
// shared across a project's re-simulations, across the forks of a
// scenario sweep, and across serve-layer requests.
type Memo struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used; values are *memoEntry
	entries  map[memoKey]*list.Element

	hits, misses, evictions, rejects int64
}

// memoKey identifies one activity's trial stream. The fingerprint
// covers the activity's whole predecessor closure (names, distribution
// parameters, structure); seed and trials pin the sampling layout.
type memoKey struct {
	fp     uint64
	seed   int64
	trials int
}

// memoEntry is one cached stream. finish is read-only after insert and
// may be shared by any number of concurrent readers.
type memoEntry struct {
	key    memoKey
	finish []time.Duration
	iters  int64
}

// memoEntryOverhead approximates per-entry bookkeeping bytes (map
// cell, list element, header) on top of the sample array.
const memoEntryOverhead = 96

// DefaultMemoBytes is the budget used when NewMemo is given a
// non-positive limit: room for ~64 activities at 500k trials, or a few
// hundred at benchmark scale.
const DefaultMemoBytes = 256 << 20

// NewMemo returns an empty memo bounded to maxBytes of cached samples
// (DefaultMemoBytes when maxBytes <= 0).
func NewMemo(maxBytes int64) *Memo {
	if maxBytes <= 0 {
		maxBytes = DefaultMemoBytes
	}
	return &Memo{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[memoKey]*list.Element),
	}
}

// entrySize is the budgeted footprint of a stream with the given trial
// count.
func entrySize(trials int) int64 {
	return int64(trials)*int64(8) + memoEntryOverhead
}

// admits reports whether a run's fresh streams of the given trial count
// fit the budget together. Simulate allocates all of a run's fresh
// sample arrays before it inserts any, so it skips materializing them
// unless every one can be kept — the run still produces identical
// results, it just does not seed the cache.
func (m *Memo) admits(streams, trials int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int64(streams)*entrySize(trials) > m.maxBytes {
		m.rejects++
		return false
	}
	return true
}

// lookup returns the cached stream for k, marking it most recently
// used. The returned slice is shared and must be treated as read-only.
func (m *Memo) lookup(k memoKey) ([]time.Duration, int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[k]
	if !ok {
		m.misses++
		return nil, 0, false
	}
	m.hits++
	m.ll.MoveToFront(el)
	e := el.Value.(*memoEntry)
	return e.finish, e.iters, true
}

// insert caches a freshly sampled stream, evicting least-recently-used
// entries until it fits. A key already present is left alone (two
// concurrent cold runs produce bit-identical arrays, so either copy
// serves). Streams larger than the whole budget are rejected.
func (m *Memo) insert(k memoKey, finish []time.Duration, iters int64) {
	size := entrySize(k.trials)
	m.mu.Lock()
	defer m.mu.Unlock()
	if size > m.maxBytes {
		m.rejects++
		return
	}
	if _, ok := m.entries[k]; ok {
		return
	}
	for m.bytes+size > m.maxBytes {
		back := m.ll.Back()
		if back == nil {
			break
		}
		old := back.Value.(*memoEntry)
		m.ll.Remove(back)
		delete(m.entries, old.key)
		m.bytes -= entrySize(old.key.trials)
		m.evictions++
	}
	m.entries[k] = m.ll.PushFront(&memoEntry{key: k, finish: finish, iters: iters})
	m.bytes += size
}

// MemoStats is a point-in-time snapshot of memo effectiveness.
type MemoStats struct {
	Entries   int
	Bytes     int64
	MaxBytes  int64
	Hits      int64 // subtree lookups served from cache
	Misses    int64 // subtree lookups that required sampling
	Evictions int64 // entries dropped for space
	Rejects   int64 // runs or streams too large for the budget entirely
}

// Stats returns current counters and occupancy.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{
		Entries:   len(m.entries),
		Bytes:     m.bytes,
		MaxBytes:  m.maxBytes,
		Hits:      m.hits,
		Misses:    m.misses,
		Evictions: m.evictions,
		Rejects:   m.rejects,
	}
}
