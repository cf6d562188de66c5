package log

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"rtc/internal/faultfs"
	"rtc/internal/timeseq"
)

// countFS counts the bytes the log reads back from its files: the op count
// the linearity tests assert on, free of any stopwatch.
type countFS struct {
	faultfs.FS
	read   *int64            // nil: count nothing
	onOpen func(name string) // runs before every read-only open, if set
}

func (c countFS) Open(name string) (faultfs.File, error) {
	if c.onOpen != nil {
		c.onOpen(name)
	}
	f, err := c.FS.Open(name)
	if err != nil || c.read == nil {
		return f, err
	}
	return countFile{f, c.read}, nil
}

type countFile struct {
	faultfs.File
	read *int64
}

func (f countFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	*f.read += int64(n)
	return n, err
}

// streamLog fills one segment with n events on a byte-counting filesystem
// and returns the log, the counter and each event's frame size.
func streamLog(t *testing.T, n int) (*Log, *int64, []int64) {
	t.Helper()
	read := new(int64)
	l, err := Open(Options{Dir: "wal", FS: countFS{FS: faultfs.NewMem(31), read: read}, SegmentSize: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	sizes := make([]int64, 0, n)
	for _, e := range fillLog(t, l, n) {
		sizes = append(sizes, int64(len(EncodeEvent(e))))
	}
	return l, read, sizes
}

// stream drains the log through pos, up to sequence until, in batch-sized
// ReadFrom calls, checking after every call that it read no more than the
// frames it returned plus one read buffer — never the segment behind them.
func stream(t *testing.T, l *Log, pos *ReadPos, read *int64, sizes []int64, batch int, until uint64) {
	t.Helper()
	for pos.Seq < until {
		before, from := *read, pos.Seq
		got, err := l.ReadFrom(pos, batch)
		if err != nil || len(got) == 0 {
			t.Fatalf("ReadFrom at seq %d: %d events, err %v", from, len(got), err)
		}
		if pos.Seq != from+uint64(len(got)) {
			t.Fatalf("ReadFrom at seq %d: %d events moved the position to %d", from, len(got), pos.Seq)
		}
		var frames int64
		for _, size := range sizes[from:pos.Seq] {
			frames += size
		}
		if cost := *read - before; cost > frames+4096 {
			t.Fatalf("ReadFrom at seq %d read %d bytes for %d bytes of frames: a call must cost its batch plus one buffer, not the segment behind it", from, cost, frames)
		}
	}
}

// TestReadFromLinear is the defect the per-follower position removes, by op
// count: streaming a segment back in 64-event batches reads the segment
// once (plus bounded read-ahead slop per call), where a reader that
// re-locates on every call re-reads everything before its position — 63×
// the segment at this size, and growing with it.
func TestReadFromLinear(t *testing.T) {
	const n, batch = 8000, 64
	l, read, sizes := streamLog(t, n)
	var segment int64
	for _, s := range sizes {
		segment += s
	}
	*read = 0
	stream(t, l, &ReadPos{}, read, sizes, batch, n)
	if *read > 2*segment {
		t.Fatalf("streaming %d events read %d bytes of a %d-byte segment (%.1f×): catch-up is not linear",
			n, *read, segment, float64(*read)/float64(segment))
	}
	t.Logf("streamed %d events: %d bytes read of a %d-byte segment (%.2f×)", n, *read, segment, float64(*read)/float64(segment))
}

// TestReadFromTwoFollowers: positions live with their readers, so two
// followers at different places in one log each stay linear — neither can
// evict the other's place, because the log remembers neither.
func TestReadFromTwoFollowers(t *testing.T) {
	const n, batch = 4000, 64
	l, read, sizes := streamLog(t, n)
	var segment int64
	for _, s := range sizes {
		segment += s
	}
	// b starts mid-segment: its first call pays the one locate.
	a, b := &ReadPos{}, &ReadPos{Seq: n / 2}
	if _, err := l.ReadFrom(b, batch); err != nil {
		t.Fatal(err)
	}
	*read = 0
	for a.Seq < n || b.Seq < n {
		if a.Seq < n {
			stream(t, l, a, read, sizes, batch, min(a.Seq+batch, n))
		}
		if b.Seq < n {
			stream(t, l, b, read, sizes, batch, min(b.Seq+batch, n))
		}
	}
	if *read > 2*(segment+segment/2) {
		t.Fatalf("two interleaved followers read %d bytes of a %d-byte segment: they are evicting each other", *read, segment)
	}
}

// TestReadFromAcrossSegmentsAndCompaction: a position walks over segment
// boundaries as a fresh one does, and one whose segment compaction removed
// is located again — served if its events survive, told to resync if not.
func TestReadFromAcrossSegmentsAndCompaction(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	events := fillLog(t, l, 30)
	pos, behind := &ReadPos{}, &ReadPos{}
	for pos.Seq < 28 {
		from := pos.Seq
		got, err := l.ReadFrom(pos, 4)
		if err != nil || len(got) != 4 {
			t.Fatalf("ReadFrom at %d: %d events, err %v", from, len(got), err)
		}
		if want := payloadsOf(events[from:pos.Seq]); pos.Seq != from+4 || !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadFrom at %d: read %q to seq %d, want %q", from, got, pos.Seq, want)
		}
	}
	if _, err := l.ReadFrom(behind, 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadFrom(behind, 2); !errors.Is(err, ErrSeqCompacted) {
		t.Fatalf("position in a compacted segment: err = %v, want ErrSeqCompacted", err)
	}
	if err := l.Append(Sample(timeseq.Time(31), "temp", "v")); err != nil {
		t.Fatal(err)
	}
	got, err := l.ReadFrom(pos, 8)
	if err != nil || len(got) != 3 || pos.Seq != 31 {
		t.Fatalf("position near the tail after compaction: %q to seq %d, err %v", got, pos.Seq, err)
	}
	if _, err := l.ReadFrom(&ReadPos{Seq: 32}, 1); !errors.Is(err, ErrSeqFuture) {
		t.Fatalf("position past the tail: err = %v, want ErrSeqFuture", err)
	}
}

// TestAdvancedFiresOnCloseAndPoison: a caught-up reader must not sleep
// through the end of the log. Both ways a log stops — Close, and the poison
// of a failed fsync — wake it, and from then on there is nothing to wait
// for: Advanced is born closed and ReadFrom says why.
func TestAdvancedFiresOnCloseAndPoison(t *testing.T) {
	t.Run("close", func(t *testing.T) {
		l, err := Open(Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		fillLog(t, l, 3)
		adv := l.Advanced(3)
		if fired(adv) {
			t.Fatal("Advanced fired at the tail of an open log")
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if !fired(adv) || !fired(l.Advanced(3)) {
			t.Fatal("Close left a reader waiting")
		}
		if _, err := l.ReadFrom(&ReadPos{Seq: 3}, 1); err == nil {
			t.Fatal("ReadFrom on a closed log returned no error")
		}
	})
	t.Run("poison", func(t *testing.T) {
		mem := faultfs.NewMem(32)
		l, err := Open(groupOptions(mem, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		fillLog(t, l, 3)
		adv := l.Advanced(3)
		mem.FailSync(mem.Syncs() + 1)
		if err := l.Append(Sample(9, "temp", "v")); err == nil {
			t.Fatal("append survived its failed fsync")
		}
		if !fired(adv) || !fired(l.Advanced(4)) {
			t.Fatal("the poison left a reader waiting")
		}
		if _, err := l.ReadFrom(&ReadPos{Seq: 3}, 1); !errors.Is(err, l.Err()) {
			t.Fatalf("ReadFrom on a poisoned log: %v, want the poison", err)
		}
	})
}

// TestReadFromCompactedMidRead: the frames are read outside the log's mutex
// (the hook below would deadlock otherwise), so Compact can delete a segment
// between a read's placement and its open. The reader is told its position
// was compacted away — the resync path — not that the log is damaged.
func TestReadFromCompactedMidRead(t *testing.T) {
	var l *Log
	compact := false
	fs := countFS{FS: faultfs.NewMem(33), read: new(int64), onOpen: func(string) {
		if compact {
			compact = false
			if err := l.Snapshot(); err != nil {
				t.Error(err)
			}
			if err := l.Compact(); err != nil {
				t.Error(err)
			}
		}
	}}
	l, err := Open(Options{Dir: "wal", FS: fs, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fillLog(t, l, 30)
	pos := &ReadPos{}
	if _, err := l.ReadFrom(pos, 2); err != nil {
		t.Fatal(err)
	}
	compact = true
	if _, err := l.ReadFrom(pos, 2); !errors.Is(err, ErrSeqCompacted) {
		t.Fatalf("segment deleted between placement and open: err = %v, want ErrSeqCompacted", err)
	}
	if pos.Seq != 2 {
		t.Fatalf("a failed read moved the position to %d", pos.Seq)
	}
}

// TestReadFromHammer: readers stream a log through ReadFrom and Advanced
// while grouped writers append to it, segments rotate under them and an
// antagonist snapshots and compacts. Every reader must be handed a gap-free
// run of sequences that were durable when it read them, resync (as a sender
// does) when its position is compacted away, and finish at the tail. Run
// under -race: the frames are read outside the log's mutex.
func TestReadFromHammer(t *testing.T) {
	const writers, perWriter, readers = 4, 400, 3
	l, err := Open(Options{
		Dir: "wal", FS: faultfs.NewMem(34), SegmentSize: 2048,
		Sync: true, GroupWindow: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Image("temp", 5)); err != nil {
		t.Fatal(err)
	}
	const total = 1 + writers*perWriter

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := l.Append(Sample(0, "temp", "v")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := l.Snapshot(); err != nil {
				t.Error(err)
			}
			if err := l.Compact(); err != nil {
				t.Error(err)
			}
		}
	}()
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(batch int) {
			defer rg.Done()
			pos := &ReadPos{}
			for pos.Seq < total {
				from := pos.Seq
				got, err := l.ReadFrom(pos, batch)
				if errors.Is(err, ErrSeqCompacted) {
					_, seq, _, err := l.DumpState()
					if err != nil {
						t.Errorf("DumpState: %v", err)
						return
					}
					pos = &ReadPos{Seq: seq}
					continue
				}
				if err != nil {
					t.Errorf("ReadFrom at %d: %v", from, err)
					return
				}
				if len(got) == 0 {
					<-l.Advanced(pos.Seq)
					continue
				}
				if last := pos.Seq; last != from+uint64(len(got)) || last > l.DurableSeq() {
					t.Errorf("ReadFrom at %d handed %d events to seq %d (durable %d)", from, len(got), last, l.DurableSeq())
					return
				}
			}
		}(3 + 7*r)
	}
	rg.Wait()
	close(stop)
	wg.Wait()
}

// preSnapLog writes a log of n events over several segments with its one
// snapshot in the newest, closes it, and reopens it on a filesystem whose
// read-only opens call *onOpen when it is set, then or later. It
// returns the reopened log, the number of its newest segment, and the
// payloads of every frame in the segment files, in sequence order.
func preSnapLog(t *testing.T, n int, onOpen *func(name string)) (*Log, uint64, []string) {
	t.Helper()
	mem := faultfs.NewMem(35)
	l, err := Open(Options{Dir: "wal", FS: mem, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	fillLog(t, l, n)
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	newest := l.segIndex
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if newest < 4 {
		t.Fatalf("want ≥ 4 segments, got %d", newest)
	}
	var onDisk []string
	for seg := uint64(1); seg <= newest; seg++ {
		r := bytes.NewReader(mem.DumpFile("wal/" + segName(seg)))
		for {
			p, _, err := ReadFrame(r, nil)
			if err != nil {
				break
			}
			onDisk = append(onDisk, string(p))
		}
	}
	fs := countFS{FS: mem, onOpen: func(name string) {
		if *onOpen != nil {
			(*onOpen)(name)
		}
	}}
	l, err = Open(Options{Dir: "wal", FS: fs, SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, newest, onDisk
}

// olderSegment reports whether name is a segment file numbered below newest.
func olderSegment(name string, newest uint64) bool {
	seg, ok := parseSeq(filepath.Base(name), "seg-", ".wal")
	return ok && seg < newest
}

// TestPreSnapshotIndexOnDemand: Open indexes only the segments it replays,
// and the segments behind the snapshot are counted the first time a reader
// asks for a sequence in them — outside the log's mutex, so an append never
// waits on the count, and never installing a segment Compact removed.
func TestPreSnapshotIndexOnDemand(t *testing.T) {
	const n = 60
	t.Run("open_reads_no_older_segment", func(t *testing.T) {
		var opened []string
		hook := func(name string) { opened = append(opened, name) }
		l, newest, _ := preSnapLog(t, n, &hook)
		if len(opened) == 0 {
			t.Fatal("the reopen opened no file for reading")
		}
		for _, name := range opened {
			if olderSegment(name, newest) {
				t.Fatalf("Open of a log whose snapshot is in segment %d opened %s (all opens: %q)", newest, name, opened)
			}
		}
		if l.Seq() != n {
			t.Fatalf("recovered %d events, want %d", l.Seq(), n)
		}
	})
	t.Run("first_read_streams_the_segment_bytes", func(t *testing.T) {
		var hook func(string)
		l, _, onDisk := preSnapLog(t, n, &hook)
		got, err := l.ReadFrom(&ReadPos{Seq: 0}, 2*n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, onDisk) {
			t.Fatalf("ReadFrom(0) after reopen: %d payloads, want the %d framed in the segment files", len(got), len(onDisk))
		}
	})
	t.Run("concurrent_first_reads", func(t *testing.T) {
		// Every reader that finds the index missing waits for the one
		// count, and each streams the same bytes while appends go on.
		var hook func(string)
		l, _, onDisk := preSnapLog(t, n, &hook)
		const readers = 4
		errs := make(chan error, readers+1)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := l.ReadFrom(&ReadPos{Seq: 0}, len(onDisk))
				if err == nil && !reflect.DeepEqual(got, onDisk) {
					err = errors.New("payloads differ from the segment files")
				}
				errs <- err
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := l.Append(Sample(timeseq.Time(n+i), "temp", "v")); err != nil {
					errs <- err
					return
				}
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("concurrent ReadFrom(0): %v", err)
			}
		}
	})
	t.Run("compact_before_the_first_read", func(t *testing.T) {
		var hook func(string)
		l, _, _ := preSnapLog(t, n, &hook)
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		if _, err := l.ReadFrom(&ReadPos{Seq: 0}, n); !errors.Is(err, ErrSeqCompacted) {
			t.Fatalf("ReadFrom(0) after Compact: err = %v, want ErrSeqCompacted", err)
		}
	})
	t.Run("append_while_the_count_is_blocked", func(t *testing.T) {
		var hook func(string)
		l, newest, onDisk := preSnapLog(t, n, &hook)
		entered, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		hook = func(name string) {
			if olderSegment(name, newest) {
				once.Do(func() { close(entered) })
				<-release
			}
		}
		type result struct {
			got []string
			err error
		}
		done := make(chan result, 1)
		go func() {
			got, err := l.ReadFrom(&ReadPos{Seq: 0}, len(onDisk))
			done <- result{got, err}
		}()
		<-entered
		appended := make(chan error, 1)
		go func() { appended <- l.Append(Sample(n+1, "temp", "v")) }()
		select {
		case err := <-appended:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			close(release)
			t.Fatal("Append waited on the pre-snapshot count")
		}
		close(release)
		r := <-done
		if r.err != nil || !reflect.DeepEqual(r.got, onDisk) {
			t.Fatalf("ReadFrom(0) behind the blocked count: %d payloads, err %v; want the %d on disk", len(r.got), r.err, len(onDisk))
		}
	})
	t.Run("compact_during_the_count_wins", func(t *testing.T) {
		// The count walks back from the snapshot's segment; block it at the
		// oldest one, when the others are counted, and compact them away.
		var hook func(string)
		l, _, _ := preSnapLog(t, n, &hook)
		entered, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		hook = func(name string) {
			if olderSegment(name, 2) {
				once.Do(func() { close(entered) })
				<-release
			}
		}
		done := make(chan error, 1)
		go func() {
			_, err := l.ReadFrom(&ReadPos{Seq: 0}, n)
			done <- err
		}()
		<-entered
		compacted := make(chan error, 1)
		go func() { compacted <- l.Compact() }()
		select {
		case err := <-compacted:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			close(release)
			t.Fatal("Compact waited on the pre-snapshot count")
		}
		close(release)
		if err := <-done; !errors.Is(err, ErrSeqCompacted) {
			t.Fatalf("ReadFrom(0) with Compact inside the count: err = %v, want ErrSeqCompacted", err)
		}
		// Mid-log, in a segment the count got through before Compact
		// removed it: no index entry may outlive the file.
		if _, err := l.ReadFrom(&ReadPos{Seq: n / 2}, n); !errors.Is(err, ErrSeqCompacted) {
			t.Fatalf("ReadFrom(%d) after the count: err = %v, want ErrSeqCompacted", n/2, err)
		}
	})
}
