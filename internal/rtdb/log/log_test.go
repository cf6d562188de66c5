package log

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"rtc/internal/faultfs"
	"rtc/internal/relational"
	"rtc/internal/rtdb"
	"rtc/internal/timeseq"
	"rtc/internal/vtime"
)

func TestCodecRoundTrip(t *testing.T) {
	events := []Event{
		Invariant("limit", "22"),
		Image("temp", 5),
		Derived("status", "temp", "limit"),
		Sample(7, "temp", "21"),
		Sample(12, "temp", "va$l@ue#%"),
		Firing(12, "alarm"),
		Query(13, "s3", "status_q", "ok", 1, 4, 2),
		{Kind: KindSample, At: 0, Name: "", Value: ""},
	}
	for _, e := range events {
		frame := EncodeEvent(e)
		payload, n, err := ReadFrame(bytes.NewReader(frame), nil)
		if err != nil || n != len(frame) {
			t.Fatalf("ReadFrame(%v): n=%d err=%v", e, n, err)
		}
		got, ok := DecodeEvent(payload)
		if !ok || !reflect.DeepEqual(got, e) {
			t.Fatalf("round trip %+v → %+v (%v)", e, got, ok)
		}
	}
}

func TestReadFrameTorn(t *testing.T) {
	frame := EncodeEvent(Sample(1, "temp", "20"))
	cases := map[string][]byte{
		"short header":  frame[:4],
		"short payload": frame[:len(frame)-2],
		"bad crc": append(append([]byte{}, frame[:len(frame)-1]...),
			frame[len(frame)-1]^0xff),
	}
	for name, b := range cases {
		if _, _, err := ReadFrame(bytes.NewReader(b), nil); err != errTorn {
			t.Errorf("%s: err = %v, want errTorn", name, err)
		}
	}
}

// workload returns a deterministic event sequence exercising every kind.
func workload(n int) []Event {
	events := []Event{
		Invariant("limit", "22"),
		Image("temp", 5),
		Image("press", 3),
		Derived("status", "temp", "limit"),
	}
	for i := 0; i < n; i++ {
		at := timeseq.Time(i)
		events = append(events, Sample(at, "temp", "v"+itoa(i)))
		if i%3 == 0 {
			events = append(events, Sample(at, "press", "p"+itoa(i)))
		}
		if i%5 == 0 {
			events = append(events, Firing(at, "alarm"))
		}
		if i%7 == 0 {
			events = append(events, Query(at, "s1", "status_q", "ok", 1, 4, 1))
		}
	}
	return events
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// reference applies the events directly — the ground truth a recovered
// state must deep-equal.
func reference(events []Event) *State {
	st := NewState()
	for _, e := range events {
		if err := st.Apply(e); err != nil {
			panic(err)
		}
	}
	return st
}

func TestRecoveryCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	events := workload(100)
	l, err := Open(Options{Dir: dir, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("segment rotation never triggered: %d segments", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	want := reference(events)
	if !reflect.DeepEqual(l2.State(), want) {
		t.Fatalf("recovered state differs from reference:\n got %+v\nwant %+v", l2.State(), want)
	}
}

func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	events := workload(60)
	l, err := Open(Options{Dir: dir, SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Kill the log mid-append: a record that made it to disk only
	// partially, exactly as a crash between write and fsync leaves it.
	torn := EncodeEvent(Sample(999, "temp", "never-lands"))
	seg := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(Options{Dir: dir, SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if tb := l2.Stats().TruncatedBytes; tb != int64(len(torn)-3) {
		t.Fatalf("TruncatedBytes = %d, want %d", tb, len(torn)-3)
	}
	want := reference(events)
	if !reflect.DeepEqual(l2.State(), want) {
		t.Fatal("recovered state differs from reference after torn-tail truncation")
	}

	// The historical databases must agree too — the as-of read path sees
	// exactly the reference history.
	now := want.LastAt
	got, ref := l2.State().Historical(now), want.Historical(now)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("recovered historical database differs from reference")
	}
	h, ok := got.Relation("temp")
	if !ok {
		t.Fatal("no temp relation after recovery")
	}
	if !h.HoldsAt(relational.Tuple{"temp", "v59"}, now) {
		t.Fatal("latest sample not visible in recovered historical relation")
	}

	// Appending after recovery lands cleanly where the tail was cut.
	if err := l2.Append(Sample(now+1, "temp", "post")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(Options{Dir: dir, SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if err := reference(events).Apply(Sample(now+1, "temp", "post")); err != nil {
		t.Fatal(err)
	}
	img := l3.State().Images["temp"]
	if img.Samples[len(img.Samples)-1].Value != "post" {
		t.Fatal("append after recovery lost")
	}
}

// TestCorruptMiddleSegmentSurfaced: a bit flip in a non-final segment is
// unrecoverable damage — committed history would be lost — and Open must
// fail with ErrCorrupt rather than skip or truncate anything.
func TestCorruptMiddleSegmentSurfaced(t *testing.T) {
	dir := t.TempDir()
	events := workload(100)
	l, err := Open(Options{Dir: dir, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Segments < 3 {
		t.Fatalf("need ≥3 segments, got %d", l.Stats().Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit in the middle of the second segment's payload bytes.
	path := filepath.Join(dir, segName(2))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(Options{Dir: dir, SegmentSize: 512})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with bit-flipped middle segment: err = %v, want ErrCorrupt", err)
	}
}

// TestCorruptMidFinalSegmentSurfaced: a damaged frame in the FINAL segment
// with intact records after it is corruption too — truncating at the damage
// would silently drop committed (possibly fsynced) events. Only a tear that
// runs to EOF is the crash signature.
func TestCorruptMidFinalSegmentSurfaced(t *testing.T) {
	dir := t.TempDir()
	events := workload(60)
	l, err := Open(Options{Dir: dir, SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0x01 // damage with plenty of intact frames after it
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Options{Dir: dir, SegmentSize: 1 << 20})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with mid-final-segment damage: err = %v, want ErrCorrupt", err)
	}
}

// TestTransientEIOHealed: a failed segment write — torn or plain EIO — is
// healed (the torn bytes truncated away) and retried: the append that met
// it succeeds like every other, the log stays usable, and recovery sees
// every event.
func TestTransientEIOHealed(t *testing.T) {
	for name, inject := range map[string]func(*faultfs.Mem, uint64){
		"torn": (*faultfs.Mem).TearWrite,
		"eio":  (*faultfs.Mem).FailWrite,
	} {
		mem := faultfs.NewMem(11)
		l, err := Open(Options{Dir: "wal", FS: mem, SegmentSize: 1 << 20, Sync: true})
		if err != nil {
			t.Fatal(err)
		}
		events := workload(30)
		inject(mem, 12) // the 12th append's frame write
		for i, e := range events {
			if err := l.Append(e); err != nil {
				t.Fatalf("%s: append %d: %v", name, i, err)
			}
		}
		if n := mem.Injected(); n != 1 {
			t.Fatalf("%s: %d faults fired, want 1", name, n)
		}
		if st := l.Stats(); st.Heals != 1 {
			t.Fatalf("%s: Heals = %d, want 1", name, st.Heals)
		}
		if l.Err() != nil {
			t.Fatalf("%s: transient EIO must not poison the log: %v", name, l.Err())
		}
		want := reference(events)
		if d := want.Diff(l.State()); d != "" {
			t.Fatalf("%s: live state after heal: %s", name, d)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(Options{Dir: "wal", FS: mem, SegmentSize: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if d := want.Diff(l2.State()); d != "" {
			t.Fatalf("%s: recovered state after heal: %s", name, d)
		}
		l2.Close()
	}
}

// TestFsyncFailurePoisons: after a failed fsync the page cache cannot be
// trusted, so the log refuses all further work with a sticky error.
func TestFsyncFailurePoisons(t *testing.T) {
	mem := faultfs.NewMem(5)
	l, err := Open(Options{Dir: "wal", FS: mem, SegmentSize: 1 << 20, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	events := workload(10)
	for _, e := range events[:5] {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	mem.FailSync(mem.Syncs() + 1)
	if err := l.Append(events[5]); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append over failed fsync: %v", err)
	}
	if err := l.Append(events[6]); err == nil || l.Err() == nil {
		t.Fatal("poisoned log accepted an append")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("poisoned log accepted a sync")
	}
}

func TestRecoveryFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	events := workload(200)
	l, err := Open(Options{Dir: dir, SegmentSize: 1024, SnapshotEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Snapshots == 0 {
		t.Fatal("no snapshot written")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir, SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	want := reference(events)
	if !reflect.DeepEqual(l2.State(), want) {
		t.Fatal("snapshot + tail replay differs from full replay")
	}
	// The snapshot must actually have shortened the replay.
	if re := l2.Stats().RecoveredEvents; re >= want.Events {
		t.Fatalf("replayed %d events, want fewer than %d (snapshot unused)", re, want.Events)
	}
}

func TestSnapshotTornIsIgnored(t *testing.T) {
	dir := t.TempDir()
	events := workload(80)
	l, err := Open(Options{Dir: dir, SegmentSize: 1 << 20, SnapshotEvery: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot: recovery must fall back to the log.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if _, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			path := filepath.Join(dir, e.Name())
			b, _ := os.ReadFile(path)
			os.WriteFile(path, b[:len(b)/2], 0o644)
		}
	}
	l2, err := Open(Options{Dir: dir, SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(l2.State(), reference(events)) {
		t.Fatal("recovery with torn snapshots differs from reference")
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	events := workload(300)
	l, err := Open(Options{Dir: dir, SegmentSize: 512})
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
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	segs := 0
	for _, e := range entries {
		if _, ok := parseSeq(e.Name(), "seg-", ".wal"); ok {
			segs++
		}
	}
	if segs != 1 {
		t.Fatalf("%d segments survive compaction, want 1 (the active one)", segs)
	}
	l2, err := Open(Options{Dir: dir, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(l2.State(), reference(events)) {
		t.Fatal("recovery after compaction differs from reference")
	}
}

func TestBuildRebindsCatalog(t *testing.T) {
	l, err := Open(Options{Dir: "wal", FS: faultfs.NewMem(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, e := range workload(20) {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	st := l.State()
	db := rtdb.New(vtime.New())
	reg := rtdb.DeriveRegistry{
		"status": func(src map[string]rtdb.Value) rtdb.Value { return src["temp"] + "/" + src["limit"] },
	}
	if err := st.Rebuild(db, reg); err != nil {
		t.Fatal(err)
	}
	img, ok := db.Image("temp")
	if !ok {
		t.Fatal("image catalog not rebuilt")
	}
	want := slices.Clone(st.Images["temp"].Samples)
	if got := img.History(); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("installed history %v, want %v", got, want)
	}
	// The history is adopted copy-on-append: the log keeps appending to its
	// state, the database to its image, and neither append reaches the
	// other — also where the log's slice has room to grow in place.
	if err := l.Append(Sample(st.LastAt, "temp", "log-side")); err != nil {
		t.Fatal(err)
	}
	if got := img.History(); !slices.Equal(got, want) {
		t.Fatalf("after a log append the installed history is %v, want %v", got, want)
	}
	logSide := slices.Clone(st.Images["temp"].Samples)
	if err := db.InjectSample("temp", "db-side"); err != nil {
		t.Fatal(err)
	}
	if got := st.Images["temp"].Samples; !slices.Equal(got, logSide) {
		t.Fatalf("after a database append the log's history is %v, want %v", got, logSide)
	}
	if got := img.History(); len(got) != len(want)+1 || !slices.Equal(got[:len(want)], want) || got[len(want)].Value != "db-side" {
		t.Fatalf("after a database append the installed history is %v", got)
	}
	if db.Now() != st.LastAt {
		t.Fatalf("rebuilt clock at %d, want %d", db.Now(), st.LastAt)
	}
	if v, ok := db.Invariant("limit"); !ok || v != "22" {
		t.Fatalf("invariant = %q, %v", v, ok)
	}
	d, ok := db.Derived("status")
	if !ok {
		t.Fatal("derived catalog not rebuilt")
	}
	if got := d.Derive(map[string]string{"temp": "21", "limit": "22"}); got != "21/22" {
		t.Fatalf("rebound derivation = %q", got)
	}
	// Missing registry entry is an error, not a silent nil function.
	if err := st.Rebuild(rtdb.New(vtime.New()), nil); err == nil {
		t.Fatal("Rebuild with empty registry: want error")
	}
}

// TestLoadedHistoryIsCopyOnAppend is TestBuildRebindsCatalog's
// copy-on-append check over a history that loadSnapshot sized: the newest
// snapshot covers every event, so nothing is replayed after it, and the
// history the log and the database share keeps the room the load left for
// the tail. A sample appended on either side stays on its side.
func TestLoadedHistoryIsCopyOnAppend(t *testing.T) {
	opts := Options{Dir: "wal", FS: faultfs.NewMem(1)}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range workload(20) {
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
	if l, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	st := l.State()
	if n := l.Stats().RecoveredEvents; n != 0 {
		t.Fatalf("%d events replayed after the snapshot, want none", n)
	}
	if h := st.Images["temp"].Samples; len(h) == 0 || cap(h) == len(h) {
		t.Fatalf("loaded history of %d samples in capacity %d: no room for the tail", len(h), cap(h))
	}
	db := rtdb.New(vtime.New())
	if err := st.Rebuild(db, rtdb.DeriveRegistry{"status": func(map[string]rtdb.Value) rtdb.Value { return "" }}); err != nil {
		t.Fatal(err)
	}
	img, _ := db.Image("temp")
	want := slices.Clone(st.Images["temp"].Samples)
	if err := l.Append(Sample(st.LastAt, "temp", "log-side")); err != nil {
		t.Fatal(err)
	}
	logSide := slices.Clone(st.Images["temp"].Samples)
	if err := db.InjectSample("temp", "db-side"); err != nil {
		t.Fatal(err)
	}
	if got := st.Images["temp"].Samples; !slices.Equal(got, logSide) || got[len(want)].Value != "log-side" {
		t.Fatalf("after both appends the log's history is %v, want %v", got, logSide)
	}
	if got := img.History(); len(got) != len(want)+1 || !slices.Equal(got[:len(want)], want) || got[len(want)].Value != "db-side" {
		t.Fatalf("after both appends the installed history is %v", got)
	}
}
