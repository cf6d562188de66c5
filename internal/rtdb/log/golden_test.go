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

// readerFixtures are the fixtures no writer produces any more, kept for the
// reader: the snapshot shape written while a snapshot re-emitted every
// firing and query record. TestGoldenLegacySnapshot holds their bytes, and
// TestGoldenDirectoryOpens and FuzzSnapshotLoad open them.
var readerFixtures = []string{"snapshot_commit", "snapshot_file"}

// goldenHex reads the fixture file: name → hex.
func goldenHex(t testing.TB) map[string]string {
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing golden fixtures: %v", err)
	}
	fixtures := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if name, hexs, ok := strings.Cut(strings.TrimSpace(sc.Text()), " "); ok {
			fixtures[name] = hexs
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return fixtures
}

// goldenBytes is goldenHex decoded.
func goldenBytes(t testing.TB) map[string][]byte {
	out := map[string][]byte{}
	for name, hexs := range goldenHex(t) {
		b, err := hex.DecodeString(hexs)
		if err != nil {
			t.Fatalf("fixture %q: %v", name, err)
		}
		out[name] = b
	}
	return out
}

// splitFrames cuts a file image of whole frames into its frames.
func splitFrames(b []byte) [][]byte {
	var frames [][]byte
	for len(b) > 0 {
		n := frameHeaderSize + int(binary.LittleEndian.Uint32(b))
		frames = append(frames, b[:n])
		b = b[n:]
	}
	return frames
}

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
	frames := splitFrames(snap)
	add("snapshot_header", frames[0])
	add("catalog_snapshot_commit", frames[len(frames)-1])
	add("epoch_file", mem.DumpFile("wal/"+epochName))
	add("segment_file", mem.DumpFile("wal/"+segName(1)))
	add("catalog_snapshot_file", snap)

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
// byte-level codec; the catalog snapshot's and the fs trace's were captured
// again when snapshots stopped holding firing and query records. There is
// no WAL format version to bump: a mismatch means old directories no longer
// open, so it is a bug, not a choice. The reader fixtures must be present
// too; -update keeps them as they are.
func TestGoldenWAL(t *testing.T) {
	got := goldenFixtures(t)
	want := goldenHex(t)
	if *updateGolden {
		var b strings.Builder
		for _, g := range got {
			fmt.Fprintf(&b, "%s %s\n", g.name, g.hex)
		}
		for _, name := range readerFixtures {
			fmt.Fprintf(&b, "%s %s\n", name, want[name])
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenFile)
		return
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
	for _, name := range readerFixtures {
		if _, ok := want[name]; !ok {
			t.Errorf("reader fixture %q missing from %s", name, goldenFile)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("stale fixture %q", name)
	}
}

// goldenReference is the state the golden events define.
func goldenReference() *State {
	var events []Event
	for _, g := range goldenEvents() {
		events = append(events, g.e)
	}
	return reference(events)
}

// TestGoldenLegacySnapshot holds the reader fixtures: the snapshot written
// while firing and query records were re-emitted is the catalog snapshot
// with those two records, as the segment frames them, before a commit that
// counts them, and it loads to the same state and replay position.
func TestGoldenLegacySnapshot(t *testing.T) {
	fix := goldenBytes(t)
	catalog := splitFrames(fix["catalog_snapshot_file"])
	legacy := bytes.Join(catalog[:len(catalog)-1], nil)
	legacy = append(legacy, fix["event_firing"]...)
	legacy = append(legacy, fix["event_query"]...)
	legacy = append(legacy, fix["snapshot_commit"]...)
	if !bytes.Equal(legacy, fix["snapshot_file"]) {
		t.Errorf("snapshot_file is not catalog_snapshot_file with the firing and query records:\n got  %x\nwant %x", fix["snapshot_file"], legacy)
	}
	want := goldenReference()
	var pos [2]replayPos
	for i, name := range []string{"snapshot_file", "catalog_snapshot_file"} {
		st, p, err := loadBytes(t, fix[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := st.Diff(want); d != "" {
			t.Errorf("%s: %s", name, d)
		}
		pos[i] = p
	}
	if pos[0] != pos[1] {
		t.Errorf("replay positions %+v vs %+v", pos[0], pos[1])
	}
}

// TestGoldenDirectoryOpens: a directory laid down by the encoder that
// predates the byte-level codec — the golden segment and epoch files, with
// either snapshot shape or none — opens under this one to the state its
// events define, from the snapshot and from the segment alone.
func TestGoldenDirectoryOpens(t *testing.T) {
	fix := goldenBytes(t)
	want := goldenReference()
	for _, snapshot := range []string{"snapshot_file", "catalog_snapshot_file", ""} {
		dir := t.TempDir()
		write := func(name string, b []byte) {
			if err := os.WriteFile(dir+"/"+name, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write(segName(1), fix["segment_file"])
		write(epochName, fix["epoch_file"])
		if snapshot != "" {
			write(snapName(1), fix[snapshot])
		}
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("snapshot %q: %v", snapshot, err)
		}
		if d := l.State().Diff(want); d != "" {
			t.Errorf("snapshot %q: %s", snapshot, d)
		}
		if got := l.Stats().RecoveredEvents; (snapshot != "") != (got == 0) {
			t.Errorf("snapshot %q: %d events replayed from the segment", snapshot, got)
		}
		if l.Epoch() != 2 {
			t.Errorf("snapshot %q: epoch %d, want 2", snapshot, l.Epoch())
		}
		l.Close()
	}
}
