// Package faultfs is the injectable filesystem layer under the rtdbd
// write-ahead log (internal/rtdb/log). The log talks to the small FS
// interface below instead of the os package directly; production uses the
// zero-cost OS passthrough, while tests and the crash-torture harness
// (internal/rtdb/torture) inject Mem — an in-memory disk model with seeded,
// deterministic fault injection: transient EIO, torn (short) writes, fsync
// and rename failures, and an op-count "power-cut" trigger that freezes the
// filesystem and lets the harness materialize a crash image in which
// unsynced data is partially or wholly lost.
//
// The fault model (documented in DESIGN.md §8) is conservative: data writes
// since the last Sync may be dropped from the tail or torn mid-write at a
// crash, but they persist in issue order (no reordering), and metadata
// operations (create, rename, remove, truncate) are atomic and durable when
// they return. Every crash image Mem can produce is one a POSIX filesystem
// with ordered data journaling can produce, so a recovery procedure that
// survives the sweep survives the corresponding real crashes.
package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Errors injected by Mem. The log treats ErrInjected like any transient
// I/O error; ErrPowerCut marks the filesystem dead until Crash() is called.
var (
	ErrInjected = errors.New("faultfs: injected I/O error")
	ErrPowerCut = errors.New("faultfs: power cut")
)

// File is the per-file surface the WAL needs: sequential reads for replay,
// positioned writes for appending, fsync for durability, and the size for
// bounding replay.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync makes everything written so far durable.
	Sync() error
	// Size returns the file's current length in bytes.
	Size() (int64, error)
}

// FS is the filesystem surface the WAL needs. All paths are plain strings;
// implementations may interpret them relative to any root.
type FS interface {
	// MkdirAll ensures dir exists.
	MkdirAll(dir string) error
	// ReadDir lists the names (not paths) of dir's entries, sorted.
	ReadDir(dir string) ([]string, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// OpenWrite opens name for writing, creating it when absent and
	// preserving existing content (the caller seeks to its append point).
	OpenWrite(name string) (File, error)
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// ReadFile returns name's content whole, to be read and never
	// written, and a release that ends its use: no byte of data may be
	// read after release, which may be called more than once. It is not
	// a fault point.
	ReadFile(name string) (data []byte, release func(), err error)
}

// OS is the production passthrough: every call forwards to the os package.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// Open implements FS.
func (OS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// OpenWrite implements FS.
func (OS) OpenWrite(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Create implements FS.
func (OS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Rename implements FS.
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// osFile adapts *os.File to File.
type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// clean normalizes a path so "dir/x" and "dir//x" address the same Mem
// entry regardless of how the caller joined them.
func clean(p string) string { return filepath.Clean(p) }
