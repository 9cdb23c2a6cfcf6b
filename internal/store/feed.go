package store

import "encoding/json"

// MutationKind classifies one committed task-database mutation.
type MutationKind string

const (
	// MutCreate is a container creation (idempotent re-creations of an
	// existing container do not commit and are not emitted).
	MutCreate MutationKind = "create"
	// MutPut is an appended instance.
	MutPut MutationKind = "put"
	// MutPayload is a payload swap on an existing instance.
	MutPayload MutationKind = "payload"
	// MutLink is a bidirectional cross-space link.
	MutLink MutationKind = "link"
	// MutTouch is a contentless version bump: a committed mutation that
	// lives outside the database (a scenario edit rebinding tool
	// profiles) but must still advance the version counter so
	// version-keyed caches and optimistic-concurrency checks see it.
	MutTouch MutationKind = "touch"
)

// Mutation describes one committed mutation, emitted to the commit hook
// in commit order. Replaying the same mutations against an empty
// database — CreateContainer, Put, SetPayload, Link, in order — rebuilds
// it bit-identically, including the Version counter and every
// container's watermark, which is what a write-ahead log needs.
type Mutation struct {
	Kind MutationKind
	// Version is the database's mutation counter after the commit.
	// Links bump it twice (one clone-and-swap per endpoint, unless an
	// endpoint already carried the link); Version is the final value.
	Version uint64

	// Container/Space/Class describe a MutCreate.
	Container string
	Space     Space
	Class     string

	// Entry is the appended instance of a MutPut. Entries are immutable;
	// the hook may retain the pointer.
	Entry *Entry

	// ID and Payload carry a MutPayload (the exact marshalled bytes the
	// entry now holds); Prev is the payload it replaced, so a log can
	// record the change as a delta against it.
	ID      string
	Payload json.RawMessage
	Prev    json.RawMessage

	// A and B are a MutLink's endpoints.
	A, B string
}

// SetCommitHook installs fn as the database's commit hook: every
// committed mutation is passed to fn, in commit order, while the
// database lock is held — fn must be fast and must not call back into
// the database. One hook at most; nil removes it. Snapshots, forks, and
// reads are not mutations and are not emitted; forked children start
// with no hook.
func (db *DB) SetCommitHook(fn func(Mutation)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.commitHook = fn
}

// emitLocked passes a committed mutation to the hook. Caller holds mu
// for writing.
func (db *DB) emitLocked(m Mutation) {
	if db.commitHook != nil {
		db.commitHook(m)
	}
}
