// Package store implements the Hercules-style task database: a set of
// containers, one per entity or schedule class, each holding versioned
// instances created during flow execution or schedule planning.
//
// The database is the shared substrate beneath Level 3 of the four-level
// architecture. The execution space (package meta) and the schedule space
// (package sched) both store their instances here, which is precisely what
// lets the paper's schedule model mirror the execution model and link the
// two spaces together (paper Figs. 3, 5–7).
//
// Instances are append-only and versioned densely per container (version 1,
// 2, 3, …), matching the paper's CC1/CC2, SC1/SC2, N1/N2 labelling. Typed
// payloads are carried as JSON so the database itself stays schema-neutral.
// The JSON bytes are the only durable and identity form, and a database
// with a commit hook (a durable project) marshals them as each payload is
// written. A database without one — a scenario fork, an in-memory
// project — keeps a struct payload in its typed form and marshals it only
// when something asks for the bytes (Entry.Payload): a what-if sweep
// never does. Either way the latest entry of each container keeps its
// typed value, so reading it again (the automatic plan update re-reads
// every schedule instance on each slip) copies a struct instead of
// parsing JSON.
//
// # Snapshot isolation and copy-on-write
//
// Entries are immutable once appended: SetPayload and Link replace the
// affected *Entry with a clone rather than mutating it in place. A
// container keeps its entries in fixed chunks of 64 behind a chunk index.
// That makes two cheap operations safe:
//
//   - Snapshot returns an immutable View of the whole database in
//     O(containers), sharing the chunks with the live DB (the index
//     clipped to its length, so later appends stay invisible). Until the
//     next mutation it returns that same View again, and the next View
//     shares its copies of the containers no mutation touched.
//   - ForkAt branches a child DB off a View in O(containers); parent and
//     child share the chunks. A write copies at most the one chunk it
//     touches, plus the chunk index when it replaces an entry: a fork's
//     first append copies the last chunk it inherited, and a replacement
//     after a Snapshot or ForkAt copies the replaced entry's chunk. One
//     epoch per container, bumped by Snapshot, tells which chunks a
//     container may write in place.
//
// See docs/store.md for the aliasing rules and fork semantics.
package store

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"flowsched/internal/obs"
)

// Space identifies which Level 3 space a container belongs to.
type Space string

const (
	// ExecutionSpace containers hold design metadata from actual runs.
	ExecutionSpace Space = "execution"
	// ScheduleSpace containers hold schedule instances from simulated runs.
	ScheduleSpace Space = "schedule"
)

// Entry is one versioned instance inside a container.
//
// Entries are immutable once stored: packages outside store must treat every
// field — including Links and the payload — as read-only. SetPayload and
// Link swap in a cloned entry instead of mutating, so a pointer obtained
// from Get (or from a View) is a stable value forever.
//
// An entry may also carry the typed value of its payload (see Decode).
// In a database with a commit hook only a container's latest entry keeps
// one: appending to a container retires the value of the entry that was
// latest before. In one without, an entry keeps its value until its
// bytes exist (see docs/store.md).
type Entry struct {
	// ID is the globally unique identifier "container/version".
	ID string `json:"id"`
	// Container names the owning container.
	Container string `json:"container"`
	// Version is the dense, 1-based version within the container.
	Version int `json:"version"`
	// Created is the virtual time at which the instance was created.
	Created time.Time `json:"created"`
	// Deps are the IDs of the entries this instance was created from
	// (instance dependencies, drawn as lines in the paper's figures).
	Deps []string `json:"deps,omitempty"`
	// Links are cross-space associations: a schedule instance linked to the
	// entity instance that completed its task, and vice versa (Fig. 7).
	Links []string `json:"links,omitempty"`

	// payload carries the typed instance data (run metadata, schedule
	// parameters, …) as JSON; nil for no payload and for a lazy one,
	// whose bytes value produces. Read it through Payload.
	payload json.RawMessage
	// value holds the decoded payload, and a lazy payload's bytes once
	// produced; nil for an eager entry that was never a container's
	// latest in this process. Link clones share it.
	value *decoded
}

// WithPayload returns a copy of e that carries raw as its payload bytes
// and keeps no decoded value: how codecs rebuild the entries they
// decode. raw is kept as given.
func (e Entry) WithPayload(raw json.RawMessage) *Entry {
	e.payload, e.value = raw, nil
	return &e
}

// Payload returns the entry's payload as JSON, or nil for an entry
// without one. An entry written to a database without a commit hook
// produces its bytes on the first call, exactly as json.Marshal of the
// written payload would have at write time. The bytes are read-only.
func (e *Entry) Payload() json.RawMessage {
	if e.payload != nil {
		return e.payload
	}
	return e.value.bytes()
}

// entryFields is Entry without its methods, for the JSON codec below.
type entryFields Entry

// entryJSON is an Entry's JSON form: its exported fields and the
// payload bytes.
type entryJSON struct {
	*entryFields
	Payload json.RawMessage `json:"payload,omitempty"`
}

// MarshalJSON encodes the entry with its payload bytes, producing them
// if they do not exist yet.
func (e *Entry) MarshalJSON() ([]byte, error) {
	return json.Marshal(entryJSON{(*entryFields)(e), e.Payload()})
}

// UnmarshalJSON decodes what MarshalJSON encodes.
func (e *Entry) UnmarshalJSON(b []byte) error {
	j := entryJSON{entryFields: (*entryFields)(e)}
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	e.payload, e.value = j.Payload, nil
	return nil
}

// Container groups the versioned instances of one class.
//
// Its entries sit in chunks of chunkSize behind a chunk index, so a
// view or a fork shares them by sharing the index, and a write that may
// not touch a shared chunk copies that one chunk (see docs/store.md).
// Read them with Len, At, Latest or Entries.
type Container struct {
	// Name is the container name, unique within the database (e.g.
	// "netlist", "sched:Create").
	Name string `json:"name"`
	// Space tells whether the container belongs to the execution or the
	// schedule space.
	Space Space `json:"space"`
	// Class is the schema class or activity the container was created for.
	Class string `json:"class"`

	// chunks is the chunk index: entry i sits in
	// chunks[i/chunkSize].e[i%chunkSize]. Every chunk but the last is
	// full.
	chunks []chunk
	// n counts the entries.
	n int
	// epoch is this container's ownership epoch. A chunk stamped with it
	// was made since the last Snapshot (or ForkAt) could share it, so the
	// container may replace its entries in place. Snapshot bumps it, and
	// a fork starts above the epoch of the view it was taken from, so no
	// chunk a fork inherits carries its epoch.
	epoch uint64
	// ownIndex says the same of the chunk index: this container made the
	// index array since a view last shared it, so it may replace slots
	// in place.
	ownIndex bool
	// ownTail says the free slots of the last chunk are this container's
	// to fill: it made or copied that chunk. A fork's inherited last
	// chunk is not; its parent fills those slots, so the fork copies the
	// chunk before it appends.
	ownTail bool
	// watermark is the owning DB's version counter at this container's last
	// mutation.
	watermark uint64
	// inherited counts the leading entries a forked DB took over from its
	// parent. They are shared with the parent and its views, so the fork
	// never retires their decoded values.
	inherited int
}

const (
	// chunkShift sets chunkSize, the entries per chunk: a write to a
	// shared chunk copies at most chunkSize pointers.
	chunkShift = 6
	chunkSize  = 1 << chunkShift
	// firstChunk is the length of a container's first chunk. A last
	// chunk that fills up, or is copied, doubles up to chunkSize as a
	// slice grows, so a small container holds no more slots than a slice
	// of its entries would.
	firstChunk = 2
)

// chunk is one slot of a container's chunk index.
type chunk struct {
	// e holds the entries. Its length is fixed when the chunk is made;
	// slots past the container's count are unfilled, and only the
	// container that owns the chunk's tail fills them.
	e []*Entry
	// epoch is the epoch of the container that made or copied the chunk.
	epoch uint64
}

// Len returns the number of entries.
func (c *Container) Len() int { return c.n }

// At returns the entry of version i+1. It panics unless 0 <= i < Len().
func (c *Container) At(i int) *Entry {
	if uint(i) >= uint(c.n) {
		panic("store: entry index out of range")
	}
	return c.chunks[i>>chunkShift].e[i&(chunkSize-1)]
}

// Latest returns the highest-version entry, or nil for an empty container.
func (c *Container) Latest() *Entry {
	if c.n == 0 {
		return nil
	}
	return c.At(c.n - 1)
}

// Entries returns a copy of the entries in version order, or nil for an
// empty container.
func (c *Container) Entries() []*Entry {
	if c.n == 0 {
		return nil
	}
	out := make([]*Entry, 0, c.n)
	for k := 0; len(out) < c.n; k++ {
		e := c.chunks[k].e
		out = append(out, e[:min(len(e), c.n-len(out))]...)
	}
	return out
}

// containerJSON is a Container's JSON form.
type containerJSON struct {
	Name    string   `json:"name"`
	Space   Space    `json:"space"`
	Class   string   `json:"class"`
	Entries []*Entry `json:"entries"`
}

// MarshalJSON encodes the container with its entries in version order.
func (c *Container) MarshalJSON() ([]byte, error) {
	return json.Marshal(containerJSON{c.Name, c.Space, c.Class, c.Entries()})
}

// UnmarshalJSON decodes what MarshalJSON encodes.
func (c *Container) UnmarshalJSON(b []byte) error {
	var j containerJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*c = Container{Name: j.Name, Space: j.Space, Class: j.Class}
	c.setEntries(j.Entries)
	return nil
}

// setEntries fills an empty container with a copy of entries. The chunks
// share one array, and a container of at most chunkSize entries gets a
// chunk that just fits them.
func (c *Container) setEntries(entries []*Entry) {
	n := len(entries)
	if n == 0 {
		return
	}
	size := chunkSize
	if n < chunkSize {
		size = n
	}
	k := (n + chunkSize - 1) >> chunkShift
	all := make([]*Entry, (k-1)<<chunkShift+size)
	copy(all, entries)
	c.chunks = make([]chunk, k)
	for i := range c.chunks {
		c.chunks[i] = chunk{e: all[i<<chunkShift : i<<chunkShift+size : i<<chunkShift+size], epoch: c.epoch}
	}
	c.n, c.ownIndex, c.ownTail = n, true, true
}

// appendLocked adds e as the last entry. It writes into the last chunk
// when the container owns its free slots and it has one left; otherwise
// it copies that chunk into one with room for twice its filled slots (up
// to chunkSize and, unless the chunk is full, to its length), as append
// grows a slice, or starts a new chunk when the last is full. Caller
// holds the owning DB's mu for writing.
func (c *Container) appendLocked(e *Entry) {
	k, j := c.n>>chunkShift, c.n&(chunkSize-1)
	switch {
	case k == len(c.chunks):
		size := chunkSize
		if k == 0 {
			size = firstChunk
		}
		if len(c.chunks) == cap(c.chunks) {
			// A new index array: no view or fork can hold it.
			c.chunks = append(make([]chunk, 0, 2*len(c.chunks)+1), c.chunks...)
			c.ownIndex = true
		}
		c.chunks = append(c.chunks, chunk{e: make([]*Entry, size), epoch: c.epoch})
		c.ownTail = true
	case !c.ownTail || j == len(c.chunks[k].e):
		size := min(max(2*j, firstChunk), chunkSize)
		if j < len(c.chunks[k].e) {
			size = min(size, len(c.chunks[k].e))
		}
		c.copyChunk(k, size)
		c.ownTail = true
	}
	c.chunks[k].e[j] = e
	c.n++
}

// replaceLocked swaps e in as entry i, first copying its chunk (and the
// index) when a view or fork may share them. A copy of the last chunk
// keeps room for one append, as a copied slice of the entries would.
// Caller holds the owning DB's mu for writing.
func (c *Container) replaceLocked(i int, e *Entry) {
	k := i >> chunkShift
	if c.chunks[k].epoch != c.epoch {
		size := len(c.chunks[k].e)
		if k == len(c.chunks)-1 {
			size = min(size, c.n-k<<chunkShift+1)
			c.ownTail = true
		}
		c.copyChunk(k, size)
	}
	c.chunks[k].e[i&(chunkSize-1)] = e
}

// copyChunk replaces chunk k with a copy of the given length that this
// container owns. Only the filled slots are read: the chunk's owner may
// be filling the others.
func (c *Container) copyChunk(k, size int) {
	if !c.ownIndex {
		c.chunks = append([]chunk(nil), c.chunks...)
		c.ownIndex = true
	}
	e := make([]*Entry, size)
	copy(e, c.chunks[k].e[:min(len(c.chunks[k].e), c.n-k<<chunkShift)])
	c.chunks[k] = chunk{e: e, epoch: c.epoch}
}

// share returns a read-only copy of the container for a view, and bumps
// the epoch and gives up the index so the next replacement copies what
// the copy shares. Caller holds the owning DB's mu for writing.
func (c *Container) share() *Container {
	k := len(c.chunks)
	v := &Container{
		Name:      c.Name,
		Space:     c.Space,
		Class:     c.Class,
		chunks:    c.chunks[:k:k],
		n:         c.n,
		epoch:     c.epoch,
		watermark: c.watermark,
	}
	c.epoch++
	c.ownIndex = false
	return v
}

// Watermark returns the owning database's version counter at this
// container's last mutation. Comparing watermarks across a Snapshot tells
// which containers changed since.
func (c *Container) Watermark() uint64 { return c.watermark }

// DB is the task database. The zero value is not usable; call NewDB.
// DB is safe for concurrent use.
type DB struct {
	mu         sync.RWMutex
	containers map[string]*Container
	order      []string
	// version counts mutations (container creations, puts, payload swaps,
	// links); each mutation stamps the touched container's watermark.
	version uint64
	// last is the View Snapshot returned last; it is returned again
	// while version stays at last.version.
	last *View
	// commitHook, when set, observes every committed mutation in commit
	// order (see SetCommitHook) — the change feed a write-ahead log
	// subscribes to. Called under mu.
	commitHook func(Mutation)

	// Cached observability handles (nil = uninstrumented, no-op).
	// Written by Instrument and read by container ops, both under mu.
	mPuts    *obs.Counter // store_puts_total
	mGets    *obs.Counter // store_gets_total
	mLinks   *obs.Counter // store_links_total
	mSnaps   *obs.Counter // store_snapshots_total
	mForks   *obs.Counter // store_forks_total
	gEntries *obs.Gauge   // store_entries
}

// Instrument attaches observability to the database: container-op
// counters, fork/snapshot counters, and a live instance-count gauge.
// Call it before sharing the DB; a nil Obs is a no-op.
func (db *DB) Instrument(o *obs.Obs) {
	m := o.Metrics()
	if m == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.mPuts = m.Counter("store_puts_total")
	db.mGets = m.Counter("store_gets_total")
	db.mLinks = m.Counter("store_links_total")
	db.mSnaps = m.Counter("store_snapshots_total")
	db.mForks = m.Counter("store_forks_total")
	db.gEntries = m.Gauge("store_entries")
	var entries int64
	for _, c := range db.containers {
		entries += int64(c.n)
	}
	db.gEntries.Set(entries)
}

// NewDB returns an empty task database.
func NewDB() *DB {
	return &DB{containers: make(map[string]*Container)}
}

// Version returns the database's mutation counter. It increases on every
// container creation, put, payload swap, link, and touch.
func (db *DB) Version() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.version
}

// Touch commits a contentless version bump and returns the new version.
// It exists for mutations that live outside the database — a scenario
// edit rebinds tool profiles, changing every future estimate — yet must
// invalidate version-keyed snapshot caches and fail concurrent
// optimistic writes, exactly like a data mutation. The bump is emitted
// to the commit feed (MutTouch) so write-ahead replay reproduces the
// version counter bit-identically.
func (db *DB) Touch() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.version++
	db.emitLocked(Mutation{Kind: MutTouch, Version: db.version})
	return db.version
}

// CreateContainer adds an empty container. Creating an existing container
// with identical space and class is a no-op; mismatching redefinition is an
// error.
func (db *DB) CreateContainer(name string, space Space, class string) (*Container, error) {
	if name == "" {
		return nil, fmt.Errorf("store: empty container name")
	}
	if strings.ContainsRune(name, '/') {
		return nil, fmt.Errorf("store: container name %q must not contain '/'", name)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if c, ok := db.containers[name]; ok {
		if c.Space != space || c.Class != class {
			return nil, fmt.Errorf("store: container %q redefined (%s/%s vs %s/%s)",
				name, c.Space, c.Class, space, class)
		}
		return c, nil
	}
	db.version++
	c := &Container{Name: name, Space: space, Class: class, watermark: db.version}
	db.containers[name] = c
	db.order = append(db.order, name)
	db.emitLocked(Mutation{
		Kind: MutCreate, Version: db.version,
		Container: name, Space: space, Class: class,
	})
	return c, nil
}

// Container returns the named container, or nil.
func (db *DB) Container(name string) *Container {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.containers[name]
}

// Containers returns all containers in creation order.
func (db *DB) Containers() []*Container {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Container, 0, len(db.order))
	for _, n := range db.order {
		out = append(out, db.containers[n])
	}
	return out
}

// ContainersIn returns the containers of one space, in creation order.
func (db *DB) ContainersIn(space Space) []*Container {
	var out []*Container
	for _, c := range db.Containers() {
		if c.Space == space {
			out = append(out, c)
		}
	}
	return out
}

// lookupLocked resolves an entry ID by parsing it and indexing the dense
// version into its container. Caller holds mu (read or write). Entry IDs
// are "container/version" with versions 1..Len(), so no secondary
// index is needed — which is what keeps Snapshot and ForkAt O(containers).
func (db *DB) lookupLocked(id string) *Entry {
	name, v, err := ParseID(id)
	if err != nil {
		return nil
	}
	c := db.containers[name]
	if c == nil || v > c.n {
		return nil
	}
	return c.At(v - 1)
}

// Put appends a new instance to the named container, assigning the next
// version. All deps must reference existing entries. payload may be nil.
//
// The new entry keeps a shallow copy of a struct (or pointer-to-struct)
// payload as its decoded value, and in a database with a commit hook
// the entry that was latest before it drops its own. In a database
// without one, the copy is the payload's only form until Entry.Payload
// marshals it. The kept copy shares slices and maps with payload, so
// the caller must not modify them afterwards; nor a json.RawMessage
// payload, which is kept as given.
func (db *DB) Put(container string, created time.Time, payload any, deps ...string) (*Entry, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	var raw json.RawMessage
	var value *decoded
	if payload == nil {
		value = new(decoded)
	} else {
		var err error
		if raw, value, err = db.encodeLocked(payload, true); err != nil {
			return nil, fmt.Errorf("store: marshal payload for %q: %w", container, err)
		}
	}
	c, ok := db.containers[container]
	if !ok {
		return nil, fmt.Errorf("store: unknown container %q", container)
	}
	for _, d := range deps {
		if db.lookupLocked(d) == nil {
			return nil, fmt.Errorf("store: dependency %q does not exist", d)
		}
	}
	e := &Entry{
		ID:        entryID(container, c.n+1),
		Container: container,
		Version:   c.n + 1,
		Created:   created,
		Deps:      append([]string(nil), deps...),
		payload:   raw,
		value:     value,
	}
	if n := c.n; n > c.inherited {
		c.At(n - 1).value.retire()
	}
	// Views and forks see only the entries they were taken with, so the
	// append is invisible to them; a fork copies the last chunk it
	// inherited before writing there.
	c.appendLocked(e)
	db.version++
	c.watermark = db.version
	db.mPuts.Inc()
	db.gEntries.Add(1)
	db.emitLocked(Mutation{Kind: MutPut, Version: db.version, Entry: e})
	return e, nil
}

// Get returns the entry with the given ID, or nil. The returned entry is
// immutable; it keeps its value even if the payload is later replaced.
func (db *DB) Get(id string) *Entry {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.mGets.Inc()
	return db.lookupLocked(id)
}

// Decode stores the entry's payload in *out, replacing what *out held.
//
// When the entry keeps a decoded value of *out's type — a container's
// latest entry does, once a Put, a SetPayload or an earlier Decode has
// filled it, and so does every entry whose bytes are still to be
// produced — Decode copies that value instead of parsing the bytes. The
// copy shares slices and maps with the kept value (and with the payload
// the writer passed in), so the caller must treat them as read-only, as
// it treats the Entry. Otherwise Decode unmarshals the bytes, and on a
// latest entry keeps a copy of the struct it produced for the next call.
func (e *Entry) Decode(out any) error {
	if e.payload == nil && !e.value.lazy() { // a lazy payload waits to be produced
		return fmt.Errorf("store: entry %s has no payload", e.ID)
	}
	dst := reflect.ValueOf(out)
	if dst.Kind() != reflect.Pointer || dst.IsNil() {
		return json.Unmarshal(e.Payload(), out) // reports the bad target
	}
	dst = dst.Elem()
	if v := e.value.load(); v != nil && v.Type() == dst.Type() {
		dst.Set(*v)
		return nil
	}
	dst.SetZero()
	if err := json.Unmarshal(e.Payload(), out); err != nil {
		return err
	}
	if dst.Kind() == reflect.Struct {
		e.value.fill(dst)
	}
	return nil
}

// SetPayload replaces an entry's payload. Instances are append-only in
// identity and dependencies, but their typed payloads evolve (a schedule
// instance acquires actual dates as execution proceeds). The previous
// *Entry value is left untouched — existing Views keep observing it.
//
// The replacement keeps a shallow copy of a struct (or pointer-to-struct)
// payload as its decoded value as Put does — in a database with a commit
// hook only if the entry is its container's latest. The caller must not
// modify the payload's slices and maps, or a json.RawMessage payload,
// afterwards.
func (db *DB) SetPayload(id string, payload any) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	e := db.lookupLocked(id)
	latest := e != nil && e.Version == db.containers[e.Container].n
	b, value, err := db.encodeLocked(payload, latest)
	if err != nil {
		return fmt.Errorf("store: marshal payload for %s: %w", id, err)
	}
	if e == nil {
		return fmt.Errorf("store: unknown entry %q", id)
	}
	clone := *e
	clone.payload, clone.value = b, value
	c := db.containers[clone.Container]
	c.replaceLocked(clone.Version-1, &clone)
	db.version++
	c.watermark = db.version
	if db.commitHook != nil { // Prev would produce a lazy entry's bytes
		db.emitLocked(Mutation{Kind: MutPayload, Version: db.version, ID: id, Payload: b, Prev: e.Payload()})
	}
	return nil
}

// Link records a bidirectional cross-space association between two entries,
// typically a schedule instance and the entity instance that completed its
// task. Linking the same pair twice is a no-op. As with SetPayload, the
// affected entries are replaced by clones, never mutated.
func (db *DB) Link(a, b string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	ea, eb := db.lookupLocked(a), db.lookupLocked(b)
	if ea == nil {
		return fmt.Errorf("store: link endpoint %q does not exist", a)
	}
	if eb == nil {
		return fmt.Errorf("store: link endpoint %q does not exist", b)
	}
	if a == b {
		return fmt.Errorf("store: cannot link %q to itself", a)
	}
	before := db.version
	db.linkOneLocked(ea, b)
	db.linkOneLocked(eb, a)
	db.mLinks.Inc()
	if db.version != before {
		// Replaying Link(a, b) reproduces the per-endpoint no-op logic,
		// so one mutation covers both clone-and-swaps.
		db.emitLocked(Mutation{Kind: MutLink, Version: db.version, A: a, B: b})
	}
	return nil
}

// linkOneLocked adds target to e's links via clone-and-swap, unless already
// present. The clone shares e's decoded value: the payload is the same.
// Caller holds mu for writing.
func (db *DB) linkOneLocked(e *Entry, target string) {
	for _, l := range e.Links {
		if l == target {
			return
		}
	}
	clone := *e
	clone.Links = append(append([]string(nil), e.Links...), target)
	c := db.containers[clone.Container]
	c.replaceLocked(clone.Version-1, &clone)
	db.version++
	c.watermark = db.version
}

// Linked reports whether entries a and b are linked.
func (db *DB) Linked(a, b string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ea := db.lookupLocked(a)
	if ea == nil {
		return false
	}
	for _, l := range ea.Links {
		if l == b {
			return true
		}
	}
	return false
}

// Stats summarizes the database: containers and instances per space. It is
// computed on a Snapshot, so a concurrent writer cannot skew the counts.
func (db *DB) Stats() map[Space]struct{ Containers, Instances int } {
	return db.Snapshot().Stats()
}

// entryID returns the ID of a container's version: "container/version",
// the form ParseID splits.
func entryID(container string, version int) string {
	return container + "/" + strconv.Itoa(version)
}

// ParseID splits an entry ID into container name and version.
func ParseID(id string) (container string, version int, err error) {
	i := strings.LastIndexByte(id, '/')
	if i < 0 {
		return "", 0, fmt.Errorf("store: malformed id %q", id)
	}
	v, err := strconv.Atoi(id[i+1:])
	if err != nil || v < 1 {
		return "", 0, fmt.Errorf("store: malformed version in id %q", id)
	}
	return id[:i], v, nil
}

// Dump renders the database as text, one container per line with its
// instances — the form used to reproduce the paper's Figs. 5–7. The text is
// produced from a Snapshot, so a dump taken mid-run is a consistent moment
// of the database, not a torn read.
func (db *DB) Dump() string {
	return db.Snapshot().Dump()
}
