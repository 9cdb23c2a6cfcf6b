package persist

import (
	"io/fs"
	"os"
)

// FS is the filesystem seam the log writes through. Production uses the
// osFS default; tests inject fault-returning implementations (FaultFS)
// to prove the log's disk-fault contract: after any failed write-path
// operation the log goes sticky-failed and never writes another byte,
// so recovery always finds either the pre-fault clean prefix or the
// pre-fault prefix plus the one indeterminate frame — never interleaved
// garbage.
//
// The surface is exactly what wal.go needs, nothing speculative.
type FS interface {
	// OpenFile opens for writing (segments, checkpoint tmp files).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens for reading (replay, directory fsync).
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
}

// File is the open-file surface of FS.
type File interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Stat() (os.FileInfo, error)
}

// OSFS is the production FS: a zero-size passthrough to package os.
type OSFS struct{}

func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (OSFS) Open(name string) (File, error)             { return os.Open(name) }
func (OSFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (OSFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (OSFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (OSFS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error               { return os.Remove(name) }
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
