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
// Records carry a dense global sequence number (1, 2, 3, …), the
// virtual-clock reading at append time, a producer-defined kind byte and
// an opaque body. The log owns the framing and nothing else: the
// producer (package flowsched) encodes and decodes the bodies, so this
// package knows no store mutation, event or design-data type. The
// stream is totally ordered — execution is single-goroutine, so store
// mutations and events interleave exactly as they happened.
//
// # Durability contract
//
// AppendBatch writes a batch of records — everything one facade
// operation committed — as one CRC-checksummed frame, and returns after
// the frame is written and (unless Options.NoSync) fsynced: one fsync
// per operation, not per record, plus a directory fsync when the batch
// starts a new segment. Append is a batch of one. On recovery
// the log yields the longest clean prefix of whole batches: framing or
// checksum damage, a torn final frame, or a sequence gap ends replay
// there and the tail is discarded — never a partially-applied mutation
// and never part of an operation. See docs/persistence.md for the
// on-disk format.
package persist

import "time"

// RecordKind is the producer-defined type tag of a record body. The log
// stores it as one byte and never interprets it, except that KindV1 is
// reserved for records read from version-1 frames.
type RecordKind byte

// KindV1 marks a record replayed from a version-1 frame, which held JSON
// records: its Body is the whole version-1 JSON record object (with its
// "kind" string and typed body), for the producer to decode. Appended
// records must not use it.
const KindV1 RecordKind = 0

// Record is one entry of the write-ahead log.
type Record struct {
	// Seq is the dense global sequence number, assigned by AppendBatch
	// and reported by Replay.
	Seq uint64
	// Now is the project's virtual clock at append time. The clock is
	// monotonic and appends happen in commit order, so the last record's
	// Now recovers the clock after replay. A batch frame stores the last
	// record's Now and the steps between consecutive records, so a
	// replayed Now is in the location of the batch's last Now.
	Now time.Time
	// Kind tags Body for the producer; never KindV1 on append.
	Kind RecordKind
	// Body is the producer's encoding of the record. On replay it
	// aliases the frame it was read from; callers that keep it past the
	// callback need not copy it, since every frame is read into a fresh
	// buffer.
	Body []byte
}
