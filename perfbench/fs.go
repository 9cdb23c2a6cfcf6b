package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"flowsched/internal/persist"
)

// countingFS is the persist.FS the benchmark hands to every durable
// project it serves. It delegates to persist.OSFS and counts what the
// write-ahead log does to the disk, so syncs and bytes per write are
// exact counts rather than timings. When a tracer is attached it also
// records a span around every Write, Sync and Rename, parented to the
// operation in flight (see setParent).
//
// Sync is counted but not passed to the device. The project still
// issues every fsync its durability contract requires (fsync is on),
// but the benchmark writes only inside its own checkout, which may sit
// on a virtual disk shared with other tenants, where the p99 of a
// 300-byte write plus fsync ranged from 3 to 6 ms between identical
// runs on a 2-vCPU cloud VM. Not syncing makes the checkout behave like
// a memory-backed WAL directory, on which fsync costs next to nothing. Crash copies are
// unaffected: a process crash, unlike a power loss, leaves the page
// cache intact, so a copy still holds exactly the acknowledged records.
type countingFS struct {
	persist.OSFS

	syncs, bytes, checkpoints, checkpointBytes atomic.Int64

	name   string        // span name prefix: "persist" for the served project
	tr     *tracer       // nil in untraced rounds
	parent atomic.Uint64 // span the next disk operation belongs to
	cpOpen atomic.Int64  // start (ns since tracer epoch) of the checkpoint being written
}

// fsCounts is a snapshot of a countingFS's counters.
type fsCounts struct {
	Syncs, Bytes, Checkpoints, CheckpointBytes int64
}

func (c *countingFS) counts() fsCounts {
	return fsCounts{
		Syncs: c.syncs.Load(), Bytes: c.bytes.Load(),
		Checkpoints: c.checkpoints.Load(), CheckpointBytes: c.checkpointBytes.Load(),
	}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		a.Syncs - b.Syncs, a.Bytes - b.Bytes,
		a.Checkpoints - b.Checkpoints, a.CheckpointBytes - b.CheckpointBytes,
	}
}

// setParent names the span that disk operations from now on belong to
// (0: none). Callers serialize the operations that write, so one parent
// at a time is exact.
func (c *countingFS) setParent(id uint64) { c.parent.Store(id) }

// isCheckpointTmp reports whether name is the log's checkpoint staging
// file, which persist writes, syncs and renames into place.
func isCheckpointTmp(name string) bool {
	return filepath.Base(name) == "checkpoint.json.tmp"
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	f, err := c.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	cp := isCheckpointTmp(name)
	if cp && c.tr != nil {
		c.cpOpen.Store(c.tr.now())
	}
	return &countingFile{File: f, fs: c, checkpoint: cp}, nil
}

func (c *countingFS) Open(name string) (persist.File, error) {
	f, err := c.OSFS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	start := c.spanStart()
	err := c.OSFS.Rename(oldpath, newpath)
	c.spanEnd("rename", start)
	if err == nil && isCheckpointTmp(oldpath) && strings.HasSuffix(newpath, "checkpoint.json") {
		c.checkpoints.Add(1)
		if c.tr != nil {
			c.tr.record(span{Name: c.name + ".checkpoint", Parent: c.parent.Load(),
				Start: c.cpOpen.Load(), End: c.tr.now()})
		}
	}
	return err
}

func (c *countingFS) spanStart() int64 {
	if c.tr == nil {
		return 0
	}
	return c.tr.now()
}

func (c *countingFS) spanEnd(name string, start int64) {
	if c.tr == nil {
		return
	}
	c.tr.record(span{Name: c.name + "." + name, Parent: c.parent.Load(), Start: start, End: c.tr.now()})
}

// countingFile counts the writes and syncs made through one open file.
type countingFile struct {
	persist.File
	fs         *countingFS
	checkpoint bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	start := f.fs.spanStart()
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	if f.checkpoint {
		f.fs.checkpointBytes.Add(int64(n))
	}
	f.fs.spanEnd("write", start)
	return n, err
}

func (f *countingFile) Sync() error {
	start := f.fs.spanStart()
	f.fs.syncs.Add(1)
	f.fs.spanEnd("sync", start)
	return nil
}
