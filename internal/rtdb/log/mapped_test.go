//go:build unix

package log

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"rtc/internal/faultfs"
)

// cutFS is faultfs.OS whose ReadFile damages each file under its mapping
// once it has mapped it: damage cuts the file or makes a page of data
// unreadable, so the walk that reads there meets a fault (SIGBUS or
// SIGSEGV), as it would at a disk's I/O error during page-in.
type cutFS struct {
	faultfs.OS
	damage func(path string, data []byte)
}

func (c cutFS) ReadFile(name string) ([]byte, func(), error) {
	data, release, err := c.OS.ReadFile(name)
	if err == nil {
		c.damage(name, data)
	}
	return data, release, err
}

// cutTo returns a damage that cuts the file to size bytes.
func cutTo(t *testing.T, size int) func(string, []byte) {
	return func(path string, _ []byte) {
		if err := os.Truncate(path, int64(size)); err != nil {
			t.Fatal(err)
		}
	}
}

// holeAt returns a damage that makes the page of the mapping at off, a
// multiple of the page size, unreadable.
func holeAt(t *testing.T, off int) func(string, []byte) {
	return func(_ string, data []byte) {
		if err := syscall.Mprotect(data[off:off+os.Getpagesize()], syscall.PROT_NONE); err != nil {
			t.Fatal(err)
		}
	}
}

// awaitGoroutines waits up to a second for the goroutine count to fall back
// to n, failing the test if it does not.
func awaitGoroutines(t *testing.T, what string, n int) {
	t.Helper()
	for end := time.Now().Add(time.Second); runtime.NumGoroutine() > n; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%s: %d goroutines left running, %d before the load", what, runtime.NumGoroutine(), n)
		}
	}
}

// TestLoadSnapshotFaultIsAnError: a fault reading a mapped snapshot —
// the file cut to nothing under the mapping, cut inside the sample section's
// last span, or a page of the first span unreadable — is the load's error,
// at one processor and at two, with no panic and no span goroutine left
// running. At two processors the last two faults are met inside a span, and
// walkSpans turns them into the error itself.
func TestLoadSnapshotFaultIsAnError(t *testing.T) {
	payloads := spanSnapshot(t, plainValue)
	first := 0
	for !isSample(payloads[first]) {
		first++
	}
	image := frames(payloads...)
	spans := splitSpans(image, len(frames(payloads[:first]...)), 2)
	if len(spans) != 2 {
		t.Fatalf("the snapshot splits into %d spans at 2, want 2", len(spans))
	}
	page := os.Getpagesize()
	mid := func(sp span) int { return (sp.start + sp.end) / 2 / page * page }
	rows := []struct {
		name   string
		damage func(string, []byte)
		inSpan bool // at two processors, the fault is met inside a span
	}{
		{"cut to 0 bytes", cutTo(t, 0), false},
		{"cut inside the last span", cutTo(t, mid(spans[1])), true},
		{"an unreadable page in the first span", holeAt(t, mid(spans[0])), true},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	for _, row := range rows {
		fs := cutFS{damage: row.damage}
		for _, procs := range []int{1, 2} {
			before := runtime.NumGoroutine()
			_, _, err := loadAt(t, loadFS{"cut", fs, dir}, image, procs)
			if err == nil || !strings.Contains(err.Error(), "fault reading a mapped file") {
				t.Errorf("%s at %d processors: err = %v, want the fault", row.name, procs, err)
			}
			awaitGoroutines(t, row.name, before)

			// Where the fault is met: walkSpans returns a span's fault as
			// an error, anywhere else it is a panic out of walkSnapshot.
			if err := os.WriteFile(path, image, 0o644); err != nil {
				t.Fatal(err)
			}
			data, release, err := fs.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var walked error
			escaped := catchFault(func() { _, _, _, walked = walkSnapshot(data, newReader(), procs) }) != nil
			release()
			if inSpan := procs > 1 && row.inSpan; escaped == inSpan || (inSpan && walked == nil) {
				t.Errorf("%s at %d processors: a fault escaped walkSnapshot %v (err %v), want it inside a span %v", row.name, procs, escaped, walked, inSpan)
			}
		}
	}
}

// TestOpenSkipsFaultingSnapshot: Open skips a snapshot whose mapped bytes
// fault — here cut to nothing once mapped — and recovers the same state
// from the segments, at one processor and at two.
func TestOpenSkipsFaultingSnapshot(t *testing.T) {
	events := spanEvents(plainValue)
	for _, procs := range []int{1, 2} {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, SegmentSize: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if err := l.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		cut := false
		fs := cutFS{damage: func(path string, data []byte) {
			cut = strings.HasSuffix(path, ".snap")
			cutTo(t, 0)(path, data)
		}}
		prev := runtime.GOMAXPROCS(procs)
		l, err = Open(Options{Dir: dir, FS: fs})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("Open at %d processors with a faulting snapshot: %v", procs, err)
		}
		if d := l.State().Diff(reference(events)); d != "" || !cut {
			t.Fatalf("state at %d processors after skipping the snapshot (cut %v): %s", procs, cut, d)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
