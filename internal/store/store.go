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
// affected *Entry with a clone rather than mutating it in place. That makes
// two cheap operations safe:
//
//   - Snapshot returns an immutable View of the whole database in
//     O(containers), sharing the entry slices with the live DB (clipped with
//     full slice expressions so later appends stay invisible). Until the
//     next mutation it returns that same View again.
//   - ForkAt branches a child DB off a View in O(containers); parent and
//     child alias unmodified containers and copy a container's entry slice
//     only on first write (copy-on-write, tracked by a shared bit).
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
type Container struct {
	// Name is the container name, unique within the database (e.g.
	// "netlist", "sched:Create").
	Name string `json:"name"`
	// Space tells whether the container belongs to the execution or the
	// schedule space.
	Space Space `json:"space"`
	// Class is the schema class or activity the container was created for.
	Class string `json:"class"`
	// Entries holds instances in version order.
	Entries []*Entry `json:"entries"`

	// shared marks the Entries backing array as possibly aliased by a View
	// or a forked DB; the next in-place entry replacement must copy the
	// slice first. Appends never need the copy: aliases are clipped to
	// their snapshot length, so writing Entries[len] is invisible to them.
	shared bool
	// watermark is the owning DB's version counter at this container's last
	// mutation.
	watermark uint64
	// inherited counts the leading entries a forked DB took over from its
	// parent. They are shared with the parent and its views, so the fork
	// never retires their decoded values.
	inherited int
}

// Latest returns the highest-version entry, or nil for an empty container.
func (c *Container) Latest() *Entry {
	if len(c.Entries) == 0 {
		return nil
	}
	return c.Entries[len(c.Entries)-1]
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
		entries += int64(len(c.Entries))
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
// are "container/version" with versions 1..len(Entries), so no secondary
// index is needed — which is what keeps Snapshot and ForkAt O(containers).
func (db *DB) lookupLocked(id string) *Entry {
	name, v, err := ParseID(id)
	if err != nil {
		return nil
	}
	c := db.containers[name]
	if c == nil || v > len(c.Entries) {
		return nil
	}
	return c.Entries[v-1]
}

// cowLocked prepares a container for an in-place entry replacement: if the
// Entries backing array may be aliased by a View or a fork, it is copied
// first. Caller holds mu for writing.
func (db *DB) cowLocked(c *Container) {
	if !c.shared {
		return
	}
	c.Entries = append(make([]*Entry, 0, len(c.Entries)+1), c.Entries...)
	c.shared = false
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
		ID:        entryID(container, len(c.Entries)+1),
		Container: container,
		Version:   len(c.Entries) + 1,
		Created:   created,
		Deps:      append([]string(nil), deps...),
		payload:   raw,
		value:     value,
	}
	if n := len(c.Entries); n > c.inherited {
		c.Entries[n-1].value.retire()
	}
	// Appending is safe even on a shared backing array: every alias is
	// clipped to cap == its snapshot length, so it cannot observe the new
	// element whether the append reallocates or writes in place.
	c.Entries = append(c.Entries, e)
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
	latest := e != nil && e.Version == len(db.containers[e.Container].Entries)
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
	db.cowLocked(c)
	c.Entries[clone.Version-1] = &clone
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
	db.cowLocked(c)
	c.Entries[clone.Version-1] = &clone
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
