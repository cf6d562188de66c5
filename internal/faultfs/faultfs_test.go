package faultfs

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"testing"
)

func writeAll(t *testing.T, f File, b []byte) {
	t.Helper()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, fs FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMemBasicRoundTrip(t *testing.T) {
	m := NewMem(1)
	if err := m.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, err := m.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("hello "))
	writeAll(t, f, []byte("world"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, m, "d/a"); string(got) != "hello world" {
		t.Fatalf("read %q", got)
	}
	names, err := m.ReadDir("d")
	if err != nil || len(names) != 1 || names[0] != "a" {
		t.Fatalf("ReadDir: %v %v", names, err)
	}
	// OpenWrite preserves content; a seek positions the append point.
	w, err := m.OpenWrite("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Seek(6, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	writeAll(t, w, []byte("again"))
	if got := readAll(t, m, "d/a"); string(got) != "hello again" {
		t.Fatalf("read %q", got)
	}
	if err := m.Truncate("d/a", 5); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, m, "d/a"); string(got) != "hello" {
		t.Fatalf("after truncate %q", got)
	}
	if err := m.Rename("d/a", "d/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("d/a"); err == nil {
		t.Fatal("old name survives rename")
	}
	if got := readAll(t, m, "d/b"); string(got) != "hello" {
		t.Fatalf("renamed content %q", got)
	}
}

// TestMemCrashDropsUnsyncedSuffix: after a crash, durable content survives
// intact and unsynced writes survive only as an in-order prefix, the first
// lost write possibly torn.
func TestMemCrashDropsUnsyncedSuffix(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		m := NewMem(seed)
		f, _ := m.Create("a")
		writeAll(t, f, []byte("durable."))
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		writeAll(t, f, []byte("one."))
		writeAll(t, f, []byte("two."))
		writeAll(t, f, []byte("three."))
		m.CrashAt(m.Ops() + 1)
		if _, err := f.Write([]byte("never")); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("seed %d: write after power cut: %v", seed, err)
		}
		if _, err := m.Open("a"); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("seed %d: dead fs must refuse opens", seed)
		}
		m.Crash()
		got := readAll(t, m, "a")
		if !bytes.HasPrefix(got, []byte("durable.")) {
			t.Fatalf("seed %d: durable prefix lost: %q", seed, got)
		}
		// The image must be a prefix of the full unsynced content ("never"
		// was rejected before entering the cache).
		full := []byte("durable.one.two.three.")
		if !bytes.HasPrefix(full, got) {
			t.Fatalf("seed %d: crash image %q is not a prefix of %q", seed, got, full)
		}
		// Stale pre-crash handles must not resurrect.
		if _, err := f.Write([]byte("x")); err == nil {
			t.Fatalf("seed %d: stale handle wrote after crash", seed)
		}
	}
}

// TestMemCrashImageIsSeeded: the same seed and workload produce the same
// crash image; different seeds explore different images.
func TestMemCrashImageIsSeeded(t *testing.T) {
	image := func(seed uint64) []byte {
		m := NewMem(seed)
		f, _ := m.Create("a")
		for i := 0; i < 8; i++ {
			writeAll(t, f, []byte("0123456789"))
		}
		m.CrashAt(m.Ops() + 1)
		f.Write([]byte("x"))
		m.Crash()
		b, _ := m.Open("a")
		out, _ := io.ReadAll(b)
		return out
	}
	if !bytes.Equal(image(7), image(7)) {
		t.Fatal("same seed produced different crash images")
	}
	distinct := map[int]bool{}
	for seed := uint64(1); seed <= 16; seed++ {
		distinct[len(image(seed))] = true
	}
	if len(distinct) < 2 {
		t.Fatal("crash images never vary across seeds")
	}
}

func TestMemTransientFaults(t *testing.T) {
	m := NewMem(3)
	f, _ := m.Create("a")
	m.FailWrite(2)
	writeAll(t, f, []byte("ok1."))
	if _, err := f.Write([]byte("lost")); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected write error: %v", err)
	}
	writeAll(t, f, []byte("ok2."))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, m, "a"); string(got) != "ok1.ok2." {
		t.Fatalf("EIO write landed bytes: %q", got)
	}

	// A torn write lands a strict prefix and reports the error.
	m.TearWrite(m.Writes() + 1)
	n, err := f.Write([]byte("0123456789"))
	if !errors.Is(err, ErrInjected) || n >= 10 {
		t.Fatalf("torn write: n=%d err=%v", n, err)
	}
	if got := readAll(t, m, "a"); string(got) != "ok1.ok2."+"0123456789"[:n] {
		t.Fatalf("torn write image: %q (n=%d)", got, n)
	}

	m.FailSync(m.syncs + 1)
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected sync error: %v", err)
	}

	m.FailRename(1)
	if err := m.Rename("a", "b"); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected rename error: %v", err)
	}
	if _, err := m.Open("a"); err != nil {
		t.Fatal("failed rename must leave the source intact")
	}
	if m.Injected() != 4 {
		t.Fatalf("Injected = %d, want 4", m.Injected())
	}
}

// TestOSPassthrough: the production FS behaves like the os package on a
// real temp dir — the same surface the Mem model implements.
func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	var fs FS = OS{}
	if err := fs.MkdirAll(dir + "/sub"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(dir + "/sub/x")
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("abc"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if sz, err := f.Size(); err != nil || sz != 3 {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(dir+"/sub/x", 2); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(dir+"/sub/x", dir+"/sub/y"); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir(dir + "/sub")
	if err != nil || len(names) != 1 || names[0] != "y" {
		t.Fatalf("ReadDir: %v %v", names, err)
	}
	if got := readAll(t, fs, dir+"/sub/y"); string(got) != "ab" {
		t.Fatalf("read %q", got)
	}
	if err := fs.Remove(dir + "/sub/y"); err != nil {
		t.Fatal(err)
	}
}

// TestReadFileOpensLikeOpen: ReadFile on OS and on Mem returns the bytes a
// read through Open returns — for an empty file, a 1-byte file and a 1 MiB
// one — and fails where Open fails: a missing file on both, a power cut on
// Mem. Mem's release overwrites the copy it handed out, and calling either
// release twice is harmless.
func TestReadFileOpensLikeOpen(t *testing.T) {
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i*7 + i>>12)
	}
	dir := t.TempDir()
	mem := NewMem(1)
	for _, fs := range []struct {
		name string
		fs   FS
		dir  string
	}{{"os", OS{}, dir}, {"mem", mem, "d"}} {
		for _, want := range [][]byte{{}, {'x'}, big} {
			path := filepath.Join(fs.dir, "f")
			f, err := fs.fs.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			writeAll(t, f, want)
			f.Close()
			data, release, err := fs.fs.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: ReadFile of %d bytes: %v", fs.name, len(want), err)
			}
			if !bytes.Equal(data, want) || !bytes.Equal(data, readAll(t, fs.fs, path)) || data == nil {
				t.Fatalf("%s: ReadFile of %d bytes returned %d bytes unlike Open's", fs.name, len(want), len(data))
			}
			release()
			release()
			if fs.fs == FS(mem) && bytes.Count(data, []byte{released}) != len(data) {
				t.Fatalf("mem: release left the copy of %d bytes as it was", len(want))
			}
		}
		if _, _, err := fs.fs.ReadFile(filepath.Join(fs.dir, "missing")); err == nil {
			t.Fatalf("%s: ReadFile of a missing file: no error", fs.name)
		}
	}
	mem.CrashAt(mem.Ops() + 1)
	if err := mem.Remove("d/f"); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("the power cut did not fire: %v", err)
	}
	if _, _, err := mem.ReadFile("d/f"); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("mem: ReadFile after a power cut: %v, want ErrPowerCut", err)
	}
}
