package log

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtc/internal/faultfs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden WAL fixtures")

const goldenFile = "testdata/golden_wal.txt"

// goldenEvents is one deterministic event of every Kind, with the four
// bytes the record encoding escapes in names and values and a multi-arg
// Derived and Query.
func goldenEvents() []struct {
	name string
	e    Event
} {
	return []struct {
		name string
		e    Event
	}{
		{"event_invariant", Invariant("limit", "22")},
		{"event_invariant_escaped", Invariant("li$mit", "2@2#%")},
		{"event_image", Image("temp", 5)},
		{"event_image_escaped", Image("te%mp", 30)},
		{"event_derived_multi", Derived("status", "temp", "limit", "pre@ss")},
		{"event_sample", Sample(7, "temp", "21")},
		{"event_sample_escaped", Sample(12, "te%mp", "va$l@ue#%")},
		{"event_firing", Firing(12, "al#arm")},
		{"event_query", Query(13, "s3", "status_q", "o$k", 1, 4, 2)},
	}
}

// traceFS records every mutating call and the size of every write, so the
// fixtures pin the fs-op sequence the torture sweeps number their fault
// points by, not only the bytes that end up on disk.
type traceFS struct {
	faultfs.FS
	ops []string
}

func (t *traceFS) note(format string, a ...any) { t.ops = append(t.ops, fmt.Sprintf(format, a...)) }

func (t *traceFS) OpenWrite(name string) (faultfs.File, error) {
	t.note("openwrite %s", filepath.Base(name))
	f, err := t.FS.OpenWrite(name)
	return traceFile{f, t}, err
}

func (t *traceFS) Create(name string) (faultfs.File, error) {
	t.note("create %s", filepath.Base(name))
	f, err := t.FS.Create(name)
	return traceFile{f, t}, err
}

func (t *traceFS) Rename(o, n string) error {
	t.note("rename %s %s", filepath.Base(o), filepath.Base(n))
	return t.FS.Rename(o, n)
}

func (t *traceFS) Remove(name string) error {
	t.note("remove %s", filepath.Base(name))
	return t.FS.Remove(name)
}

func (t *traceFS) Truncate(name string, size int64) error {
	t.note("truncate %s %d", filepath.Base(name), size)
	return t.FS.Truncate(name, size)
}

type traceFile struct {
	faultfs.File
	t *traceFS
}

func (f traceFile) Write(p []byte) (int, error) {
	f.t.note("write %d", len(p))
	return f.File.Write(p)
}

func (f traceFile) Sync() error {
	f.t.note("sync")
	return f.File.Sync()
}

// goldenFixtures renders every fixture from the running encoder: single
// frames, a whole small directory (segment, snapshot, epoch file), and the
// fs-op trace of a larger run that rotates segments, snapshots past the
// snapshot writer's buffer size, compacts and reopens.
func goldenFixtures(t *testing.T) []struct{ name, hex string } {
	var out []struct{ name, hex string }
	add := func(name string, b []byte) {
		out = append(out, struct{ name, hex string }{name, hex.EncodeToString(b)})
	}
	for _, g := range goldenEvents() {
		add(g.name, EncodeEvent(g.e))
	}

	mem := faultfs.NewMem(1)
	l, err := Open(Options{Dir: "wal", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenEvents() {
		if err := l.Append(g.e); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap := mem.DumpFile("wal/" + snapName(1))
	var frames [][]byte
	for rest := snap; len(rest) > 0; {
		n := frameHeaderSize + int(binary.LittleEndian.Uint32(rest))
		frames = append(frames, rest[:n])
		rest = rest[n:]
	}
	add("snapshot_header", frames[0])
	add("snapshot_commit", frames[len(frames)-1])
	add("epoch_file", mem.DumpFile("wal/"+epochName))
	add("segment_file", mem.DumpFile("wal/"+segName(1)))
	add("snapshot_file", snap)

	tr := &traceFS{FS: faultfs.NewMem(1)}
	opts := Options{Dir: "wal", FS: tr, SegmentSize: 2048, SnapshotEvery: 150}
	l, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range workload(300) {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Sample(301, "temp", "after-reopen")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(strings.Join(tr.ops, "\n")))
	out = append(out, struct{ name, hex string }{fmt.Sprintf("fs_trace_%d_ops_sha256", len(tr.ops)), hex.EncodeToString(sum[:])})
	return out
}

// TestGoldenWAL pins the byte-exact on-disk format — every event kind's
// frame, the snapshot header and commit records, the epoch file, a whole
// segment and snapshot — and the fs-op sequence that produces it to
// checked-in fixtures captured from the encoder that predates the
// byte-level codec. There is no WAL format version to bump: a mismatch
// means old directories no longer open, so it is a bug, not a choice.
func TestGoldenWAL(t *testing.T) {
	got := goldenFixtures(t)
	if *updateGolden {
		var b strings.Builder
		for _, g := range got {
			fmt.Fprintf(&b, "%s %s\n", g.name, g.hex)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenFile)
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing golden fixtures: %v", err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if name, hexs, ok := strings.Cut(strings.TrimSpace(sc.Text()), " "); ok {
			want[name] = hexs
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, g := range got {
		fixture, ok := want[g.name]
		if !ok {
			t.Errorf("fixture %q missing from %s", g.name, goldenFile)
			continue
		}
		if g.hex != fixture {
			t.Errorf("on-disk encoding of %q changed:\n got  %s\nwant %s", g.name, g.hex, fixture)
		}
		delete(want, g.name)
	}
	for name := range want {
		t.Errorf("stale fixture %q", name)
	}
}

// TestGoldenDirectoryOpens: a directory laid down by the encoder that
// predates the byte-level codec — the golden segment, snapshot and epoch
// files — opens under this one to the state its events define, from the
// snapshot and from the segment alone.
func TestGoldenDirectoryOpens(t *testing.T) {
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	file := map[string][]byte{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, hexs, ok := strings.Cut(line, " "); ok && strings.HasSuffix(name, "_file") {
			if file[name], err = hex.DecodeString(hexs); err != nil {
				t.Fatal(err)
			}
		}
	}
	var events []Event
	for _, g := range goldenEvents() {
		events = append(events, g.e)
	}
	for _, withSnapshot := range []bool{true, false} {
		dir := t.TempDir()
		write := func(name string, b []byte) {
			if err := os.WriteFile(dir+"/"+name, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write(segName(1), file["segment_file"])
		write(epochName, file["epoch_file"])
		if withSnapshot {
			write(snapName(1), file["snapshot_file"])
		}
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("snapshot=%v: %v", withSnapshot, err)
		}
		if d := l.State().Diff(reference(events)); d != "" {
			t.Errorf("snapshot=%v: %s", withSnapshot, d)
		}
		if got := l.Stats().RecoveredEvents; withSnapshot != (got == 0) {
			t.Errorf("snapshot=%v: %d events replayed from the segment", withSnapshot, got)
		}
		if l.Epoch() != 2 {
			t.Errorf("snapshot=%v: epoch %d, want 2", withSnapshot, l.Epoch())
		}
		l.Close()
	}
}
