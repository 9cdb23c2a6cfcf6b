// Package persist implements the durable backbone of the multi-project
// host: an append-only, checksummed, segmented write-ahead log plus an
// atomically-installed checkpoint.
//
// The design exploits the task database's existing immutable
// clone-and-swap discipline (package store): every committed mutation is
// already a small, self-contained value, so logging is "serialize the
// commit feed" and recovery is "replay the feed against an empty
// database" — replay = rebuild. Periodic checkpoints bound replay time:
// a checkpoint captures the full project state, covers every record
// appended so far, and lets the covered segments be deleted.
//
// # Record stream
//
// Records carry a dense global sequence number (1, 2, 3, …) and the
// virtual-clock reading at append time. Four kinds cover everything a
// project commits: a task-database mutation (store.Mutation verbatim), a
// design-data insert, an engine event, and a plan selection. The stream
// is totally ordered — execution is single-goroutine, so store mutations
// and events interleave exactly as they happened.
//
// # Durability contract
//
// AppendBatch writes a batch of records — everything one facade
// operation committed — as one CRC-checksummed frame, and returns after
// the frame is written and (unless Options.NoSync) fsynced: one fsync
// per operation, not per record. Append is a batch of one. On recovery
// the log yields the longest clean prefix of whole batches: framing or
// checksum damage, a torn final frame, or a sequence gap ends replay
// there and the tail is discarded — never a partially-applied mutation
// and never part of an operation. See docs/persistence.md for the
// on-disk format.
package persist

import (
	"time"

	"flowsched/internal/engine"
	"flowsched/internal/store"
)

// RecordKind classifies a WAL record.
type RecordKind string

const (
	// RecStore is a committed task-database mutation.
	RecStore RecordKind = "store"
	// RecData is an actual insert into the design-data store
	// (deduplicated puts never reach the log).
	RecData RecordKind = "data"
	// RecEvent is an engine event emission.
	RecEvent RecordKind = "event"
	// RecPlan is a schedule-plan selection (the facade's tracked plan).
	RecPlan RecordKind = "plan"
)

// Record is one entry of the write-ahead log. Exactly one of the
// kind-specific bodies is set, matching Kind.
type Record struct {
	// Seq is the dense global sequence number, assigned by AppendBatch.
	Seq uint64 `json:"seq"`
	// Now is the project's virtual clock at append time. The clock is
	// monotonic and appends happen in commit order, so the last record's
	// Now recovers the clock after replay.
	Now  time.Time  `json:"now"`
	Kind RecordKind `json:"kind"`

	Store *store.Mutation `json:"store,omitempty"`
	Data  *DataPut        `json:"data,omitempty"`
	Event *engine.Event   `json:"event,omitempty"`
	Plan  *PlanRecord     `json:"plan,omitempty"`
}

// DataPut records one design-data insert. Replaying the inserts in order
// against an empty design store reproduces every version chain and
// content address (Put assigns versions densely and hashes content).
type DataPut struct {
	Class    string    `json:"class"`
	Producer string    `json:"producer,omitempty"`
	Created  time.Time `json:"created"`
	Bytes    []byte    `json:"bytes"` // base64 in JSON
}

// PlanRecord records which schedule plan became the tracked plan.
type PlanRecord struct {
	// Version is the plan's sched.Space version.
	Version int `json:"version"`
}
