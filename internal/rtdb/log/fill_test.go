package log

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"rtc/internal/faultfs"
)

// fillSize is the segment size the fill tests run at: big enough for a
// workload(30) in one segment, small enough to rotate a workload(200).
const fillSize = 4096

// fillOptions is a durable log on the given file system and directory.
func fillOptions(on loadFS) Options {
	return Options{Dir: on.dir, FS: on.fs, SegmentSize: fillSize, Sync: true}
}

// segBytes returns the bytes of segment seg.
func segBytes(t *testing.T, on loadFS, seg uint64) []byte {
	t.Helper()
	data, release, err := on.fs.ReadFile(filepath.Join(on.dir, segName(seg)))
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	return append([]byte(nil), data...)
}

// writeAt writes b into segment seg at off and fsyncs it.
func writeAt(t *testing.T, on loadFS, seg uint64, off int64, b []byte) {
	t.Helper()
	f, err := on.fs.OpenWrite(filepath.Join(on.dir, segName(seg)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(off, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// zeroTailed opens a durable log on a fresh directory, appends events and
// closes it, and returns the offset where the frames end: the segment is
// one, filled, so the fill's zeros run from there to fillSize.
func zeroTailed(t *testing.T, on loadFS, events []Event) int64 {
	t.Helper()
	l, err := Open(fillOptions(on))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	end := l.segSize
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segBytes(t, on, 1)
	if len(seg) != fillSize || end >= fillSize || !isZeros(seg[end:]) {
		t.Fatalf("segment of %d bytes, frames to %d: want %d bytes, zeros after the frames", len(seg), end, fillSize)
	}
	return end
}

// TestOpenZeroTailedSegment: a durable log's segment is filled when it is
// created and written over in place, so a clean close leaves its zeros
// behind the frames; Open replays the frames, resumes appending where they
// end — nothing truncated, the file not grown — and every later Open
// recovers every event.
func TestOpenZeroTailedSegment(t *testing.T) {
	events := workload(30)
	for _, on := range loadFSes(t) {
		end := zeroTailed(t, on, events[:40])
		l, err := Open(fillOptions(on))
		if err != nil {
			t.Fatalf("%s: %v", on.name, err)
		}
		if st := l.Stats(); st.RecoveredEvents != 40 || st.TruncatedBytes != 0 || l.segSize != end {
			t.Fatalf("%s: replayed %d events, truncated %d bytes, resumes at %d; want 40, 0, %d", on.name, st.RecoveredEvents, st.TruncatedBytes, l.segSize, end)
		}
		for _, e := range events[40:] {
			if err := l.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if n := len(segBytes(t, on, 1)); n != fillSize {
			t.Fatalf("%s: the segment grew to %d bytes", on.name, n)
		}
		l, err = Open(fillOptions(on))
		if err != nil {
			t.Fatalf("%s: %v", on.name, err)
		}
		if d := l.State().Diff(reference(events)); d != "" {
			t.Errorf("%s: %s", on.name, d)
		}
		l.Close()
	}
}

// TestOpenZeroTailedDamage: the frames of a filled segment end at a header
// of zeros. A torn frame written over the zeros is a torn tail, truncated
// away with the zeros after it; an intact non-empty frame anywhere past the
// end of the frames — right behind the zero header or further in — was once
// committed, and Open reports ErrCorrupt.
func TestOpenZeroTailedDamage(t *testing.T) {
	events := workload(20)
	next := EncodeEvent(Sample(1000, "temp", "late"))
	for _, on := range loadFSes(t) {
		t.Run(on.name+"/torn", func(t *testing.T) {
			dir := loadFS{on.name, on.fs, filepath.Join(on.dir, "torn")}
			end := zeroTailed(t, dir, events)
			writeAt(t, dir, 1, end, next[:len(next)-3])
			l, err := Open(fillOptions(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if d := l.State().Diff(reference(events)); d != "" {
				t.Fatal(d)
			}
			if tb, n := l.Stats().TruncatedBytes, len(segBytes(t, dir, 1)); tb != fillSize-end || int64(n) != end {
				t.Fatalf("truncated %d bytes to %d; want %d to %d", tb, n, fillSize-end, end)
			}
		})
		for _, gap := range []int64{frameHeaderSize, 64, fillSize/2 + 3} {
			t.Run(fmt.Sprintf("%s/intact_at_%d", on.name, gap), func(t *testing.T) {
				dir := loadFS{on.name, on.fs, filepath.Join(on.dir, fmt.Sprint("intact", gap))}
				end := zeroTailed(t, dir, events)
				writeAt(t, dir, 1, end+gap, next)
				if l, err := Open(fillOptions(dir)); !errors.Is(err, ErrCorrupt) {
					if err == nil {
						l.Close()
					}
					t.Fatalf("Open with a frame %d bytes past the zero header: %v, want ErrCorrupt", gap, err)
				}
			})
		}
	}
}

// TestOpenZeroTailedReads: ReadFrom, countFrames and the index of the
// segments behind a snapshot read a zero-tailed active segment with the
// snapshot positioned inside it as they read any other: every frame in
// sequence order and byte for byte, the count exact at the snapshot's
// position and at the zeros, and a read of the tail caught up, not torn.
// So does a segment sealed with zeros behind its frames — a log reopened
// with a smaller SegmentSize rotates before it reaches the fill's end —
// and one whose zeros are shorter than a frame header.
func TestOpenZeroTailedReads(t *testing.T) {
	all := workload(300)
	events := all[:40]
	for _, on := range loadFSes(t) {
		l, err := Open(fillOptions(on))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events[:30] {
			if err := l.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
		snapAt := l.segSize
		for _, e := range events[30:] {
			if err := l.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, err = Open(fillOptions(on))
		if err != nil {
			t.Fatal(err)
		}
		if l.preSnap == nil || l.lastSnap != (replayPos{seg: 1, off: snapAt}) {
			t.Fatalf("%s: reopened from snapshot at %+v (index pending %v), want segment 1 offset %d", on.name, l.lastSnap, l.preSnap != nil, snapAt)
		}
		rd := newReader()
		if n, err := l.countFrames(1, snapAt, rd); err != nil || n != 30 {
			t.Fatalf("%s: %d frames up to the snapshot, err %v; want 30", on.name, n, err)
		}
		if n, err := l.countFrames(1, -1, rd); err != nil || n != uint64(len(events)) {
			t.Fatalf("%s: %d frames in the segment, err %v; want %d", on.name, n, err, len(events))
		}
		pos := ReadPos{}
		got, err := l.ReadFrom(&pos, 2*len(events))
		if err != nil || !reflect.DeepEqual(got, payloadsOf(events)) {
			t.Fatalf("%s: ReadFrom(0) = %d payloads, err %v; want the %d appended", on.name, len(got), err, len(events))
		}
		if more, err := l.ReadFrom(&pos, 10); err != nil || len(more) != 0 {
			t.Fatalf("%s: ReadFrom at the tail: %q, err %v; want caught up", on.name, more, err)
		}
		// On into a second segment, by a few frames.
		n := len(events)
		appendTo := func(stop func() bool) {
			for ; !stop(); n++ {
				if err := l.Append(all[n]); err != nil {
					t.Fatal(err)
				}
			}
		}
		appendTo(func() bool { return l.segIndex > 1 })
		five := n + 5
		appendTo(func() bool { return n == five })
		if more, err := l.ReadFrom(&pos, n); err != nil || !reflect.DeepEqual(more, payloadsOf(all[len(events):n])) {
			t.Fatalf("%s: ReadFrom across the rotation: %d payloads, err %v; want %d", on.name, len(more), err, n-len(events))
		}
		l.Close()

		// Reopened with segments a quarter the size, segment 2 is sealed
		// long before its zeros end.
		small := fillOptions(on)
		small.SegmentSize = fillSize / 4
		if l, err = Open(small); err != nil {
			t.Fatal(err)
		}
		appendTo(func() bool { return l.segIndex > 2 })
		sealed, err := l.scanSegment(2, 0, -1, newReader(), func([]byte, int64) bool { return true })
		if seg := segBytes(t, on, 2); err != errZeros || len(seg) != fillSize {
			t.Fatalf("%s: segment 2, sealed, is %d bytes, its frames end at %d with %v; want %d bytes ending in zeros", on.name, len(seg), sealed, err, fillSize)
		}
		if got, err = l.ReadFrom(&ReadPos{}, n); err != nil || !reflect.DeepEqual(got, payloadsOf(all[:n])) {
			t.Fatalf("%s: ReadFrom over a sealed zero-tailed segment: %d payloads, err %v; want %d", on.name, len(got), err, n)
		}
		l.Close()

		// A zero tail shorter than a header ends the frames as well.
		if err := on.fs.Truncate(filepath.Join(on.dir, segName(2)), sealed+3); err != nil {
			t.Fatal(err)
		}
		if l, err = Open(small); err != nil {
			t.Fatalf("%s: Open over a 3-byte zero tail in a sealed segment: %v", on.name, err)
		}
		if d := l.State().Diff(reference(all[:n])); d != "" {
			t.Fatalf("%s: %s", on.name, d)
		}
		if got, err := l.ReadFrom(&ReadPos{}, n); err != nil || !reflect.DeepEqual(got, payloadsOf(all[:n])) {
			t.Fatalf("%s: ReadFrom over a 3-byte zero tail: %d payloads, err %v; want %d", on.name, len(got), err, n)
		}
		l.Close()
	}
}

// fillSpy records, on a Mem, the write, sync and op numbers of every
// segment fill: a write of SegmentSize zeros and the next sync of the file.
type fillSpy struct {
	faultfs.FS
	mem                *faultfs.Mem
	writes, syncs, ops []uint64
}

type fillSpyFile struct {
	faultfs.File
	s       *fillSpy
	filling bool
}

func (s *fillSpy) OpenWrite(name string) (faultfs.File, error) {
	f, err := s.FS.OpenWrite(name)
	if err != nil {
		return nil, err
	}
	return &fillSpyFile{File: f, s: s}, nil
}

func (f *fillSpyFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.filling = len(p) == fillSize && isZeros(p); f.filling {
		f.s.writes = append(f.s.writes, f.s.mem.Writes())
		f.s.ops = append(f.s.ops, f.s.mem.Ops())
	}
	return n, err
}

func (f *fillSpyFile) Sync() error {
	err := f.File.Sync()
	if f.filling {
		f.s.syncs = append(f.s.syncs, f.s.mem.Syncs())
		f.s.ops = append(f.s.ops, f.s.mem.Ops())
		f.filling = false
	}
	return err
}

// TestOpenAfterFillFault: a fill is an accelerator. A fill whose write fails
// (nothing lands, or a torn prefix does) or whose fsync fails — Open's, or a
// rotation's — is truncated back to the empty segment and counted once, as a
// heal: every append is acknowledged, the log stays unpoisoned and reopens to
// every event. A power cut at a fill's write or fsync fails the appends from
// there on, and recovery holds acked ≤ n ≤ acked+1, the recovered state is
// that prefix of the workload, and the recovered log takes appends.
func TestOpenAfterFillFault(t *testing.T) {
	events := workload(200)
	spy := &fillSpy{mem: faultfs.NewMem(7)}
	spy.FS = spy.mem
	l, err := Open(Options{Dir: "wal", FS: spy, SegmentSize: fillSize, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if len(spy.writes) < 3 || len(spy.syncs) != len(spy.writes) {
		t.Fatalf("%d fill writes and %d fill syncs, want ≥ 3 of each", len(spy.writes), len(spy.syncs))
	}

	type fault struct {
		name string
		arm  func(m *faultfs.Mem)
	}
	var transient, cuts []fault
	for i := range spy.writes {
		w, s := spy.writes[i], spy.syncs[i]
		transient = append(transient,
			fault{fmt.Sprintf("fill%d/eio_write", i), func(m *faultfs.Mem) { m.FailWrite(w) }},
			fault{fmt.Sprintf("fill%d/torn_write", i), func(m *faultfs.Mem) { m.TearWrite(w) }},
			fault{fmt.Sprintf("fill%d/eio_fsync", i), func(m *faultfs.Mem) { m.FailSync(s) }})
		wo, so := spy.ops[2*i], spy.ops[2*i+1]
		cuts = append(cuts,
			fault{fmt.Sprintf("fill%d/cut_write", i), func(m *faultfs.Mem) { m.CrashAt(wo) }},
			fault{fmt.Sprintf("fill%d/cut_fsync", i), func(m *faultfs.Mem) { m.CrashAt(so) }})
	}
	opts := func(m *faultfs.Mem) Options {
		return Options{Dir: "wal", FS: m, SegmentSize: fillSize, Sync: true}
	}
	for _, f := range transient {
		t.Run(f.name, func(t *testing.T) {
			mem := faultfs.NewMem(7)
			f.arm(mem)
			l, err := Open(opts(mem))
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range events {
				if err := l.Append(e); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
			}
			if err := l.Err(); err != nil {
				t.Fatalf("a failed fill poisoned the log: %v", err)
			}
			if st, fired := l.Stats(), mem.Injected(); fired != 1 || st.Heals != 1 || st.SnapshotErrors != 0 {
				t.Fatalf("%d faults fired, counted %d heals + %d snapshot errors; want 1, 1, 0", fired, st.Heals, st.SnapshotErrors)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l, err = Open(opts(mem))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if d := l.State().Diff(reference(events)); d != "" {
				t.Fatal(d)
			}
		})
	}
	for _, f := range cuts {
		t.Run(f.name, func(t *testing.T) {
			mem := faultfs.NewMem(7)
			f.arm(mem)
			acked := 0
			if l, err := Open(opts(mem)); err == nil {
				for _, e := range events {
					if l.Append(e) != nil {
						break
					}
					acked++
				}
				l.Close()
			}
			if !mem.Dead() {
				t.Fatal("the power cut never fired")
			}
			mem.Crash()
			l, err := Open(opts(mem))
			if err != nil {
				t.Fatalf("recovery Open: %v", err)
			}
			defer l.Close()
			n := int(l.State().Events)
			if n < acked || n > acked+1 {
				t.Fatalf("recovered %d events with %d acked: want acked ≤ n ≤ acked+1", n, acked)
			}
			if d := l.State().Diff(reference(events[:n])); d != "" {
				t.Fatal(d)
			}
			if err := l.Append(events[n]); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
		})
	}
}
