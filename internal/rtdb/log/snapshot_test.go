package log

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"rtc/internal/faultfs"
	"rtc/internal/timeseq"
)

// frames renders record payloads as a file of CRC-valid frames, so that a
// test (or the fuzzer) reaches the record parser instead of stopping at the
// checksum.
func frames(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(p, crcTable))
		b = append(b, p...)
	}
	return b
}

// loadFS is a file system the snapshot tests load through, and the
// directory they write the snapshot into.
type loadFS struct {
	name string
	fs   faultfs.FS
	dir  string
}

// loadFSes are the file systems each snapshot case loads through: Mem,
// whose ReadFile hands out a copy that its release overwrites, and OS over
// a temporary directory, whose ReadFile maps the file on unix.
func loadFSes(t testing.TB) []loadFS {
	return []loadFS{{"mem", faultfs.NewMem(1), "."}, {"os", faultfs.OS{}, t.TempDir()}}
}

// loadBytes writes a snapshot file image to on and runs loadSnapshot over
// it.
func loadBytes(t testing.TB, on loadFS, image []byte) (*State, replayPos, error) {
	path := filepath.Join(on.dir, "snap")
	w, err := on.fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(image); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return loadSnapshot(on.fs, path, newReader())
}

// snapshotPayloads writes a real snapshot of workload(20) and the extra
// events and returns the writer's state and the snapshot's record payloads.
func snapshotPayloads(t testing.TB, extra ...Event) (*State, [][]byte) {
	mem := faultfs.NewMem(1)
	l, err := Open(Options{Dir: "wal", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range append(workload(20), extra...) {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st := l.State()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	r := bytes.NewReader(mem.DumpFile("wal/" + snapName(1)))
	for {
		p, _, err := ReadFrame(r, nil)
		if err != nil {
			break
		}
		payloads = append(payloads, p)
	}
	return st, payloads
}

// oracleSnapshot is the definition of loading a snapshot, over the formal
// record parser: a five-field SNAPSHOT header, events, and a two-field
// COMMIT trailer whose count is the number of events before it.
func oracleSnapshot(payloads [][]byte) (*State, replayPos, bool) {
	num := func(f []string) ([]uint64, bool) {
		out := make([]uint64, len(f))
		for i, s := range f {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return nil, false
			}
			out[i] = v
		}
		return out, true
	}
	if len(payloads) == 0 {
		return nil, replayPos{}, false
	}
	f, ok := oracleFields(payloads[0])
	if !ok || len(f) != 5 || f[0] != "SNAPSHOT" {
		return nil, replayPos{}, false
	}
	head, ok := num(f[1:])
	if !ok {
		return nil, replayPos{}, false
	}
	st := NewState()
	for n, p := range payloads[1:] {
		if e, ok := oracleDecode(p); ok {
			if st.Apply(e) != nil {
				return nil, replayPos{}, false
			}
			continue
		}
		f, ok := oracleFields(p)
		if !ok || len(f) != 2 || f[0] != "COMMIT" {
			return nil, replayPos{}, false
		}
		if count, ok := num(f[1:]); !ok || count[0] != uint64(n) {
			return nil, replayPos{}, false
		}
		st.Events, st.LastAt = head[2], timeseq.Time(head[3])
		return st, replayPos{seg: head[0], off: int64(head[1])}, true
	}
	return nil, replayPos{}, false
}

// TestLoadSnapshotRejectsDamage: the loader returns an error — it does not
// panic, and it does not hand back a partial state — for every way a
// CRC-valid snapshot can be wrong, and for frames its walk must refuse: a
// checksum that fails in the middle of the file, a length that runs past
// its end. The one-field COMMIT used to index past the end of its field
// list and take log.Open down with it.
func TestLoadSnapshotRejectsDamage(t *testing.T) {
	want, good := snapshotPayloads(t)
	last := len(good) - 1
	with := func(i int, p string) [][]byte {
		out := append([][]byte{}, good...)
		out[i] = []byte(p)
		return out
	}
	cases := map[string][][]byte{
		"empty file":              nil,
		"header only":             good[:1],
		"truncated before commit": good[:last],
		"one-field commit":        with(last, "$COMMIT$"),
		"three-field commit":      with(last, "$COMMIT@25@1$"),
		"non-numeric commit":      with(last, "$COMMIT@x$"),
		"count mismatch":          with(last, "$COMMIT@3$"),
		"short header":            with(0, "$SNAPSHOT@1@0@5$"),
		"one-field header":        with(0, "$SNAPSHOT$"),
		"non-numeric header":      with(0, "$SNAPSHOT@1@x@5@9$"),
		"wrong header tag":        with(0, "$SNAPSHOP@1@0@5@9$"),
		"undecodable record":      with(2, "$S@7@te$mp@21$"),
		"short event":             with(2, "$S@7@temp$"),
		"sample before its image": append([][]byte{good[0], []byte("$S@1@nowhere@1$")}, good[1:]...),
	}
	images := map[string][]byte{}
	for name, payloads := range cases {
		images[name] = frames(payloads...)
	}
	at := len(frames(good[:len(good)/2]...)) // the middle frame's offset
	flip, long := frames(good...), frames(good...)
	flip[at+4] ^= 0x01
	binary.LittleEndian.PutUint32(long[at:], uint32(len(long)))
	images["checksum flip in a middle frame"] = flip
	images["length past the end of the file"] = long
	for _, on := range loadFSes(t) {
		for name, image := range images {
			if st, _, err := loadBytes(t, on, image); err == nil {
				t.Errorf("%s on %s: loaded a state with %d events, want an error", name, on.name, st.Events)
			}
		}
		st, pos, err := loadBytes(t, on, frames(good...))
		if err != nil {
			t.Fatalf("intact snapshot on %s: %v", on.name, err)
		}
		if d := st.Diff(want); d != "" || pos.seg != 1 {
			t.Fatalf("intact snapshot on %s: diff %q, position %+v", on.name, d, pos)
		}
	}
}

// TestLoadSnapshotAccepts: what the loader takes and what it leaves alone —
// bytes after the commit trailer, a frame among them, are never parsed, and
// a record larger than the segments' read buffer (an invariant value over
// 64 KiB) loads like any other. Each loads to the writer's state.
func TestLoadSnapshotAccepts(t *testing.T) {
	want, good := snapshotPayloads(t)
	bigWant, big := snapshotPayloads(t, Invariant("manual", strings.Repeat("x", 70<<10)))
	for _, tc := range []struct {
		name  string
		image []byte
		want  *State
	}{
		{"bytes after the commit", append(frames(good...), "trailing bytes"...), want},
		{"a frame after the commit", append(frames(good...), EncodeEvent(Sample(99, "temp", "late"))...), want},
		{"an invariant over 64 KiB", frames(big...), bigWant},
	} {
		for _, on := range loadFSes(t) {
			st, _, err := loadBytes(t, on, tc.image)
			if err != nil {
				t.Errorf("%s on %s: %v", tc.name, on.name, err)
				continue
			}
			if d := st.Diff(tc.want); d != "" {
				t.Errorf("%s on %s: loaded state differs from the writer's: %s", tc.name, on.name, d)
			}
		}
	}
}

// TestOpenSkipsDamagedSnapshot: Open falls back from a snapshot it cannot
// load to the next-older one — here to none, replaying the segments — as
// its doc comment promises, for the CRC-valid damage that used to panic.
func TestOpenSkipsDamagedSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	events := workload(20)
	for _, e := range events {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, good := snapshotPayloads(t)
	good[len(good)-1] = []byte("$COMMIT$")
	if err := os.WriteFile(dir+"/"+snapName(1), frames(good...), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open with a damaged snapshot: %v", err)
	}
	defer l.Close()
	if d := l.State().Diff(reference(events)); d != "" {
		t.Fatalf("state after skipping the snapshot: %s", d)
	}
}

// runSnapshot is one snapshot file image, payloads one per line, and
// whether it loads.
type runSnapshot struct {
	name  string
	image []byte
	loads bool
}

// runSnapshots are snapshots with the samples the loader hands to the
// generic path instead of a run, with runs that break and resume, and with
// the edges of a run's parse — a name the run's name is a prefix of, times
// empty, at and past 64 bits or with leading zeros, escapes in a value —
// behind three images, one of them with an escaped name, and a fourth where
// a row registers it.
func runSnapshots() []runSnapshot {
	snap := func(samples ...string) []byte {
		lines := append([]string{"$SNAPSHOT@1@0@9@9$", "$I@0@a@@5$", "$I@0@b@@5$", "$I@0@c%@d@@5$"}, samples...)
		lines = append(lines, "$COMMIT@"+strconv.Itoa(len(lines)-1)+"$")
		return []byte(strings.Join(lines, "\n"))
	}
	return []runSnapshot{
		{"escaped value", snap("$S@1@a@x$", "$S@2@a@y%%z$", "$S@3@a@w$", "$S@4@a@y%@z$"), true},
		{"escaped tag", snap("$S@1@a@x$", "$%S@2@a@y$", "$S@3@a@w$"), true},
		{"escaped name", snap("$S@1@c%@d@x$", "$S@2@c%@d@y$", "$S@3@a@w$"), true},
		{"five fields", snap("$S@1@a@x$", "$S@2@a@y@z$", "$S@3@a@w$"), true},
		{"empty value", snap("$S@1@a@x$", "$S@2@a@$", "$S@3@a@w$"), true},
		{"runs of a, b, a", snap("$S@1@a@x$", "$S@2@b@y$", "$S@3@a@w$"), true},
		{"unregistered image", snap("$S@1@a@x$", "$S@2@nowhere@y$"), false},
		{"damage past the fifth field", snap("$S@1@a@x$", "$S@2@a@y@z@#$"), false},
		{"bare number sign", snap("$S@1@a@x$", "$S@2@a@#y$"), false},
		{"a run of a, then ab", snap("$I@0@ab@@5$", "$S@1@a@x$", "$S@2@ab@y$", "$S@3@ab@z$", "$S@4@a@w$"), true},
		{"a run of a, then unregistered ab", snap("$S@1@a@x$", "$S@2@ab@y$"), false},
		{"a 20-digit time in a run", snap("$S@1@a@x$", "$S@18446744073709551615@a@y$", "$S@3@a@w$"), true},
		{"a time of 2^64 in a run", snap("$S@1@a@x$", "$S@18446744073709551616@a@y$", "$S@3@a@w$"), false},
		{"an empty time in a run", snap("$S@1@a@x$", "$S@@a@y$"), false},
		{"leading zeros in a run", snap("$S@1@a@x$", "$S@0002@a@y$", "$S@00@a@z$", "$S@3@a@w$"), true},
		{"escaped %, # and @ in a run", snap("$S@1@a@x$", "$S@2@a@%%$", "$S@3@a@y%#$", "$S@4@a@%@z$", "$S@5@a@w$"), true},
	}
}

// TestRunSnapshotsLoad: the seeds FuzzSnapshotLoad checks the sample runs
// with reach the runs — each that should load does, to the oracle's state,
// and the rest are refused, as Apply and the record scanner refuse them.
func TestRunSnapshotsLoad(t *testing.T) {
	for _, on := range loadFSes(t) {
		for _, c := range runSnapshots() {
			payloads := bytes.Split(c.image, []byte("\n"))
			st, _, err := loadBytes(t, on, frames(payloads...))
			if (err == nil) != c.loads {
				t.Fatalf("%s on %s: load err = %v", c.name, on.name, err)
			}
			if ref, _, ok := oracleSnapshot(payloads); err == nil && (!ok || st.Diff(ref) != "") {
				t.Fatalf("%s on %s: loaded state differs from the oracle's (oracle ok = %v)", c.name, on.name, ok)
			}
		}
	}
}

// FuzzSnapshotLoad: a snapshot file of arbitrary CRC-valid records (the
// input is the payloads, one per line; the harness frames them) never
// panics the loader, and loads exactly when — and to exactly the state
// that — the definition over the formal record parser does. An unmutated
// snapshot loads to the writer's state.
func FuzzSnapshotLoad(f *testing.F) {
	want, good := snapshotPayloads(f)
	last := len(good) - 1
	join := func(p [][]byte) []byte { return bytes.Join(p, []byte("\n")) }
	f.Add(join(good))
	f.Add(join(good[:last]))                                                      // truncated before commit
	f.Add(join(append(append([][]byte{}, good[:last]...), []byte("$COMMIT$"))))   // short commit
	f.Add(join(append(append([][]byte{}, good[:last]...), []byte("$COMMIT@3$")))) // count mismatch
	f.Add(join(append([][]byte{[]byte("$SNAPSHOT$")}, good[1:]...)))
	f.Add([]byte("$SNAPSHOT@1@0@0@0$\n$COMMIT@0$"))
	f.Add([]byte("$SNAPSHOT@18446744073709551616@0@0@0$\n$COMMIT@0$")) // 2^64 does not wrap to 0
	for _, c := range runSnapshots() {
		f.Add(c.image)
	}
	// The old shape, with firing and query records, which the writer no
	// longer produces: it keeps the reader's path for them in the corpus.
	var legacy [][]byte
	for _, fr := range splitFrames(goldenBytes(f)["snapshot_file"]) {
		legacy = append(legacy, fr[frameHeaderSize:])
	}
	f.Add(join(legacy))
	mem := loadFS{"mem", faultfs.NewMem(1), "."}
	f.Fuzz(func(t *testing.T, b []byte) {
		payloads := bytes.Split(b, []byte("\n"))
		st, pos, err := loadBytes(t, mem, frames(payloads...))
		ref, refPos, ok := oracleSnapshot(payloads)
		if (err == nil) != ok {
			t.Fatalf("loadSnapshot err = %v, oracle ok = %v\n%s", err, ok, hex.Dump(b))
		}
		if err != nil {
			return
		}
		if d := st.Diff(ref); d != "" || pos != refPos {
			t.Fatalf("loaded state differs from the oracle's: %s (position %+v vs %+v)", d, pos, refPos)
		}
		if bytes.Equal(b, join(good)) {
			if d := st.Diff(want); d != "" {
				t.Fatalf("intact snapshot differs from the writer's state: %s", d)
			}
		}
	})
}

// addrPanic is a panic value shaped as a memory fault's: it has an Addr.
type addrPanic uintptr

func (a addrPanic) Addr() uintptr { return uintptr(a) }

// TestCatchFaultRepanics: catchFault turns only a panic whose value has an
// Addr method into an error; a string, an error and a runtime error
// without an address go on as panics. It runs f with SetPanicOnFault on,
// and leaves it as it found it either way.
func TestCatchFaultRepanics(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(false))
	var on bool
	if err := catchFault(func() { on = debug.SetPanicOnFault(true) }); err != nil || !on {
		t.Fatalf("catchFault: err %v, SetPanicOnFault on inside %v", err, on)
	}
	if err := catchFault(func() { panic(addrPanic(0x1234)) }); err == nil || !strings.Contains(err.Error(), "0x1234") {
		t.Fatalf("a fault at 0x1234: err = %v", err)
	}
	var none []int
	for name, f := range map[string]func(){
		"a string":              func() { panic("boom") },
		"an error":              func() { panic(ErrCorrupt) },
		"an index out of range": func() { _ = none[len(none)] },
	} {
		got := func() (r any) {
			defer func() { r = recover() }()
			catchFault(f)
			return nil
		}()
		if got == nil {
			t.Errorf("%s: catchFault kept the panic", name)
		}
	}
	if debug.SetPanicOnFault(false) {
		t.Fatal("catchFault left SetPanicOnFault on")
	}
}
