package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync/atomic"
	"syscall"
)

// FaultFS wraps a base FS and injects exactly one disk fault at a
// chosen mutating-operation index, deterministically per (seed,
// op-index) — the persist-layer sibling of internal/fault's seeded tool
// faults. Mutating operations (Write, Sync, Rename, Remove, Truncate)
// are counted in issue order; a clean pass with no fault armed measures
// a workload's op count, and a chaos harness then replays the same
// workload once per index with the fault armed there.
//
// The fault kind is derived from the seed and index but always matched
// to the faulting op: a Write faults as an outright EIO, a short write,
// or ENOSPC after a partial write; a Sync reports failure (leaving the
// written bytes in an indeterminate durability state — exactly the case
// the log must treat as poisonous); a Rename fails without renaming;
// Remove and Truncate fail outright. The fault fires once — later ops
// pass through — so a test that observes writes after the fault is
// catching the log failing its sticky contract, not the disk staying
// broken.
type FaultFS struct {
	base   FS
	seed   int64
	ops    atomic.Int64
	failAt int64 // armed mutating-op index; -1 = count only

	injected atomic.Bool
	kind     atomic.Int32
}

// Injected fault kinds (reported by InjectedKind).
const (
	faultEIO = iota + 1
	faultShortWrite
	faultENOSPC
	faultSyncFail
	faultRenameFail
)

var faultNames = map[int32]string{
	faultEIO:        "eio",
	faultShortWrite: "short-write",
	faultENOSPC:     "enospc",
	faultSyncFail:   "sync-fail",
	faultRenameFail: "rename-fail",
}

// ErrInjected is the base error of every injected fault (ENOSPC faults
// additionally wrap syscall.ENOSPC).
var ErrInjected = errors.New("persist: injected disk fault")

// NewFaultFS wraps base in counting-only mode; arm a fault with FailAt.
func NewFaultFS(base FS, seed int64) *FaultFS {
	if base == nil {
		base = OSFS{}
	}
	return &FaultFS{base: base, seed: seed, failAt: -1}
}

// FailAt arms the single fault at the op-index'th mutating operation
// (0-based). Call before issuing any operations.
func (f *FaultFS) FailAt(op int64) { f.failAt = op }

// Ops reports how many mutating operations have been issued.
func (f *FaultFS) Ops() int64 { return f.ops.Load() }

// Injected reports whether the armed fault has fired.
func (f *FaultFS) Injected() bool { return f.injected.Load() }

// InjectedKind names the fired fault ("" before it fires).
func (f *FaultFS) InjectedKind() string { return faultNames[f.kind.Load()] }

// decide counts one mutating op and returns the fault kind to inject
// (0 = none). choices are the kinds applicable to this op type.
func (f *FaultFS) decide(choices ...int32) int32 {
	idx := f.ops.Add(1) - 1
	if idx != f.failAt {
		return 0
	}
	h := mixFault(uint64(f.seed) ^ uint64(idx)*0x9e3779b97f4a7c15)
	k := choices[h%uint64(len(choices))]
	f.kind.Store(k)
	f.injected.Store(true)
	return k
}

// mixFault is the splitmix64 finalizer, the repo's standard seed mixer.
func mixFault(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func injectedErr(kind int32) error {
	if kind == faultENOSPC {
		return fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)
	}
	return fmt.Errorf("%w: %s", ErrInjected, faultNames[kind])
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	file, err := f.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) { return f.base.ReadFile(name) }
func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	return f.base.ReadDir(name)
}
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.base.MkdirAll(path, perm)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if k := f.decide(faultRenameFail); k != 0 {
		return injectedErr(k)
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if k := f.decide(faultEIO); k != 0 {
		return injectedErr(k)
	}
	return f.base.Remove(name)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if k := f.decide(faultEIO); k != 0 {
		return injectedErr(k)
	}
	return f.base.Truncate(name, size)
}

// faultFile threads Write and Sync through the owning FaultFS's op
// counter; reads pass through untouched.
type faultFile struct {
	f  File
	fs *FaultFS
}

func (ff *faultFile) Read(p []byte) (int, error) { return ff.f.Read(p) }
func (ff *faultFile) Stat() (os.FileInfo, error) { return ff.f.Stat() }
func (ff *faultFile) Close() error               { return ff.f.Close() }

func (ff *faultFile) Write(p []byte) (int, error) {
	switch k := ff.fs.decide(faultEIO, faultShortWrite, faultENOSPC); k {
	case faultEIO:
		return 0, injectedErr(k)
	case faultShortWrite, faultENOSPC:
		// A prefix of the bytes lands on disk — the torn-frame case.
		n := len(p) / 2
		if n > 0 {
			if m, err := ff.f.Write(p[:n]); err != nil {
				return m, err
			}
		}
		return n, injectedErr(k)
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	if k := ff.fs.decide(faultSyncFail); k != 0 {
		// The bytes were written but their durability is indeterminate —
		// they may or may not survive a power loss. The log must treat
		// the frame as poisoned either way.
		return injectedErr(k)
	}
	return ff.f.Sync()
}
