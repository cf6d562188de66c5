package log

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rtc/internal/encoding"
	"rtc/internal/faultfs"
	"rtc/internal/rtdb"
	"rtc/internal/timeseq"
)

// Options configures a log directory.
type Options struct {
	// Dir is the log directory (created if missing).
	Dir string
	// SegmentSize rotates the active segment once it reaches this many
	// bytes. Default 1 MiB.
	SegmentSize int64
	// SnapshotEvery writes a catalog snapshot after every N appends.
	// 0 disables automatic snapshots.
	SnapshotEvery uint64
	// Sync makes every append durable before it is acknowledged: its
	// ticket resolves once an fsync covering its frame completed (the
	// durable setting; off by default so tests and benchmarks can measure
	// the code path separately).
	Sync bool
	// GroupWindow is how long a commit batch stays open when Sync is set:
	// concurrent appends join it and its leader issues one fsync for all
	// of them once the window elapses (or earlier — full batch, firm
	// append, CloseWindow). 0 (the default) closes every window at once:
	// each append is a batch of its own, and serial blocking appends pay
	// one fsync each. See group.go.
	GroupWindow time.Duration
	// FS is the filesystem the log talks to. Nil means the real one
	// (faultfs.OS); the crash-torture harness injects fault-bearing
	// implementations here.
	FS faultfs.FS
}

func (o *Options) defaults() {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 1 << 20
	}
	if o.FS == nil {
		o.FS = faultfs.OS{}
	}
}

// Stats is the log's observability block. A field with a metric tag is also
// a row of the serving node's metrics reply, read from here when the reply
// is built (server.Rows).
type Stats struct {
	Appends         uint64
	Segments        uint64 // segments created over the log's lifetime
	Snapshots       uint64
	SnapshotErrors  uint64 // automatic snapshots that failed (retried later)
	Heals           uint64 // failed appends healed by truncating the torn frame
	FsyncCount      uint64 `metric:"fsync_count"`
	FsyncNanos      uint64 `metric:"fsync_total_ns"` // total time spent in fsync
	FsyncMaxNanos   uint64 `metric:"fsync_max_ns" agg:"max"`
	GroupCommits    uint64 `metric:"group_commits"`   // commit batches released by a successful fsync
	GroupedAppends  uint64 `metric:"grouped_appends"` // appends whose durability rode a group commit
	GroupBatchMax   uint64 // largest single commit batch
	RecoveredEvents uint64 // events replayed at Open
	TruncatedBytes  int64  // torn tail dropped at Open
}

// ErrCorrupt marks unrecoverable log damage: a record that fails its frame
// check anywhere other than the torn tail of the final segment — a
// bit-flipped middle segment, or a damaged frame with intact records after
// it. Recovery surfaces it instead of silently dropping committed data.
var ErrCorrupt = errors.New("log: corrupt record")

// replayPos addresses a byte position in the segment sequence.
type replayPos struct {
	seg uint64
	off int64
}

// Log is an append-only timed event log over a directory of CRC-checked
// segments. All methods are safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	opts Options
	fs   faultfs.FS
	st   *State

	f        faultfs.File
	segIndex uint64
	segSize  int64

	// err poisons the log: set when the on-disk state can no longer be
	// trusted (fsync failure, unhealable torn append). Every later call
	// returns it; recovery happens by reopening the directory.
	err error

	snapSeq       uint64
	lastSnap      replayPos
	sinceSnapshot uint64

	// segFirstSeq maps each on-disk segment to the sequence number of its
	// first frame — the index ReadFrom locates a reader's position with.
	segFirstSeq map[uint64]uint64
	// preSnap is what indexing the segments up to the snapshot Open loaded
	// from still needs, nil once placeRead has done it (see repl.go);
	// compacted is the segment below which Compact removed every one.
	preSnap   *preSnapIndex
	compacted uint64
	// advanced is what caught-up readers wait on (see Advanced in repl.go):
	// nil while nobody waits, closed and dropped when the shippable tail
	// moves or the log stops.
	advanced chan struct{}
	// epoch is the persisted fencing epoch (see repl.go).
	epoch uint64

	// Group commit (see group.go): cur is the open batch still accepting
	// joiners, pending the FIFO of batches written but not yet covered by
	// an fsync, durableSeq the newest sequence a successful fsync covered.
	cur        *batch
	pending    []*batch
	durableSeq uint64

	stats Stats
	buf   []byte
}

func segName(i uint64) string  { return fmt.Sprintf("seg-%08d.wal", i) }
func snapName(i uint64) string { return fmt.Sprintf("snap-%08d.snap", i) }

// parseSeq extracts the numeric sequence from names like seg-00000001.wal.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if len(name) <= len(prefix)+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	v, err := encoding.ParseUint(name[len(prefix) : len(name)-len(suffix)])
	return v, err == nil
}

// Open loads (or creates) a log directory, recovering state by replaying
// the newest loadable snapshot plus every record after it. A torn record at
// the tail of the last segment — the signature of a crash mid-append — is
// truncated away; damage anywhere else is reported as ErrCorrupt.
func Open(opts Options) (*Log, error) {
	opts.defaults()
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, err
	}
	names, err := opts.FS.ReadDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	var snaps []uint64
	for _, name := range names {
		if v, ok := parseSeq(name, "seg-", ".wal"); ok {
			segs = append(segs, v)
		}
		if v, ok := parseSeq(name, "snap-", ".snap"); ok {
			snaps = append(snaps, v)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	l := &Log{opts: opts, fs: opts.FS, st: NewState(), segFirstSeq: map[uint64]uint64{}}
	l.epoch = l.readEpoch()

	// Newest loadable snapshot wins; unreadable ones are skipped (a crash
	// during snapshot write leaves a torn .snap behind — the log is the
	// source of truth, the snapshot only an accelerator).
	pos := replayPos{seg: 1, off: 0}
	rd := newReader()
	for i := len(snaps) - 1; i >= 0; i-- {
		st, p, err := loadSnapshot(l.fs, filepath.Join(opts.Dir, snapName(snaps[i])), rd)
		if err != nil {
			continue
		}
		l.st, pos = st, p
		l.snapSeq = snaps[i]
		l.lastSnap = p
		break
	}

	snapEvents := l.st.Events

	if len(segs) == 0 {
		if l.snapSeq != 0 {
			return nil, fmt.Errorf("log: snapshot %d refers to segment %d but no segments exist", l.snapSeq, pos.seg)
		}
		if err := l.openSegment(1, 0); err != nil {
			return nil, err
		}
		l.stats.Segments = 1
		l.segFirstSeq[1] = 1
		l.durableSeq = l.st.Events
		return l, nil
	}

	// Replay from pos across all later segments.
	for i, seg := range segs {
		if seg < pos.seg {
			continue // compacted away behind the snapshot
		}
		start := int64(0)
		if seg == pos.seg {
			start = pos.off
		}
		if start == 0 {
			// Replay enters this segment at offset 0, so the next event
			// applied is its first frame.
			l.segFirstSeq[seg] = l.st.Events + 1
		}
		last := i == len(segs)-1
		end, err := l.replaySegment(seg, start, last, rd)
		if err != nil {
			return nil, err
		}
		if last {
			if err := l.openSegment(seg, end); err != nil {
				return nil, err
			}
		}
	}
	if l.f == nil {
		// Every surviving segment predates the snapshot position: the
		// snapshot names a segment that was deleted out from under it.
		return nil, fmt.Errorf("log: segment %d referenced by snapshot is missing", pos.seg)
	}
	l.stats.Segments = uint64(len(segs))
	if l.snapSeq != 0 {
		// The segments before the snapshot position are indexed when a
		// reader first asks for a sequence in them (placeRead).
		l.preSnap = &preSnapIndex{segs: segs, pos: pos, events: snapEvents}
	}
	// Everything replayed came off disk: the recovered tail is durable.
	l.durableSeq = l.st.Events
	return l, nil
}

// reader is what a pass over the log carries from record to record: the
// read buffer scanSegment points at each segment in turn, one frame buffer,
// and — for recovery — the image names decoded so far, so that a replayed
// sample shares its Name with the catalog instead of allocating it.
type reader struct {
	br    *bufio.Reader
	buf   []byte
	names map[string]string
}

// recoveryBuffer is the size of the read buffer recovery reads snapshots and
// segments through: ReadFrame checks every frame that fits it in place.
const recoveryBuffer = 64 << 10

// newReader returns the reader one recovery pass carries.
func newReader() *reader {
	return &reader{br: bufio.NewReaderSize(nil, recoveryBuffer), names: map[string]string{}}
}

// event decodes one event payload, registering image names as they go by.
func (rd *reader) event(payload []byte) (Event, bool) {
	e, ok := decodeEvent(payload, rd.names)
	if ok && e.Kind == KindImage {
		rd.names[e.Name] = e.Name
	}
	return e, ok
}

// replaySegment applies every valid record of one segment, returning the
// offset just past the last good record. A damaged record is a torn tail —
// truncated away — only when it sits in the final segment AND no intact
// frame follows it; a damaged frame with good records after it lost
// committed data and is surfaced as ErrCorrupt instead of silently
// truncating history.
func (l *Log) replaySegment(seg uint64, start int64, last bool, rd *reader) (int64, error) {
	var bad error
	off, err := l.scanSegment(seg, start, -1, rd, func(payload []byte, end int64) bool {
		e, ok := rd.event(payload)
		if !ok {
			bad = fmt.Errorf("%w: undecodable record in %s at offset %d", ErrCorrupt, segName(seg), end-int64(frameHeaderSize+len(payload)))
		} else if bad = l.st.Apply(e); bad == nil {
			l.stats.RecoveredEvents++
		}
		return bad == nil
	})
	switch {
	case err == nil:
		return off, bad
	case err != errTorn:
		return 0, err
	case !last:
		return 0, fmt.Errorf("%w: %s at offset %d (non-final segment)", ErrCorrupt, segName(seg), off)
	}
	// A torn tail is one partial append: nothing intact may follow it. Byte
	// 0 of the rest is the damaged record itself; any later alignment hiding
	// a CRC-valid frame means data past the damage was once committed.
	path := filepath.Join(l.opts.Dir, segName(seg))
	rest, err := l.readTail(path, off)
	if err != nil {
		return 0, err
	}
	if ContainsFrame(rest[1:]) {
		return 0, fmt.Errorf("%w: %s at offset %d (intact records follow the damage)", ErrCorrupt, segName(seg), off)
	}
	l.stats.TruncatedBytes = int64(len(rest))
	if err := l.fs.Truncate(path, off); err != nil {
		return 0, err
	}
	return off, nil
}

// readTail returns the bytes of the file at path from off to its end.
func (l *Log) readTail(path string, off int64) ([]byte, error) {
	f, err := l.fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}

// openSegment opens segment seg for appending at offset off (creating it
// when absent).
func (l *Log) openSegment(seg uint64, off int64) error {
	f, err := l.fs.OpenWrite(filepath.Join(l.opts.Dir, segName(seg)))
	if err != nil {
		return err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segIndex = seg
	l.segSize = off
	return nil
}

// State returns the log's live state. It is owned by the log: callers must
// treat it as read-only and must not retain it across Append calls.
func (l *Log) State() *State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st
}

// Stats returns a copy of the counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Err returns the poison error, if the log has failed permanently.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Append durably records one event and applies it to the in-memory state:
// AppendTicket's blocking form. With Sync set it returns once the fsync
// covering the event completed; the append that opens a commit batch leads
// it inline, since the caller waits out the window anyway.
func (l *Log) Append(e Event) error {
	l.mu.Lock()
	l.buf = AppendEvent(l.buf[:0], e)
	t, lead, err := l.appendLocked(e, l.buf, false)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if lead {
		l.lead(t.b)
	}
	return t.Wait()
}

// usableLocked reports why the log can take no append: poisoned or closed.
func (l *Log) usableLocked() error {
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		return errClosed
	}
	return nil
}

// appendLocked is the one append body: validate → write e's frame → apply →
// join the commit batch → housekeeping. A failed write is healed and costs
// only this event (the state is untouched, so a transient EIO costs one
// event, not the log); once the frame is on disk a failed Apply poisons
// (check passed, so Apply cannot fail — if it somehow does, the state is
// suspect). With Sync set the event joins the open commit batch, sealing it
// when firm or when GroupWindow is 0, and lead reports that it opened the
// batch: the caller must run (or spawn) its leader. Without Sync the ticket
// is born resolved.
func (l *Log) appendLocked(e Event, frame []byte, firm bool) (t Ticket, lead bool, err error) {
	if err := l.usableLocked(); err != nil {
		return t, false, err
	}
	if err := l.st.check(e); err != nil {
		return t, false, err
	}
	if _, err := l.f.Write(frame); err != nil {
		return t, false, l.heal(err)
	}
	l.segSize += int64(len(frame))
	if err := l.st.Apply(e); err != nil {
		return t, false, l.poisonLocked(err)
	}
	l.stats.Appends++
	t.seq = l.st.Events
	if l.opts.Sync {
		// Join before housekeeping: if rotation or an auto-snapshot fsyncs
		// the segment below, this event is covered and its ticket releases
		// there.
		t.b, lead = l.joinBatchLocked(firm || l.opts.GroupWindow == 0)
	} else {
		l.advancedLocked()
	}
	if err := l.maintainLocked(); err != nil {
		// The poison released every pending ticket (including this one)
		// with the error; the append itself fails the same way.
		return t, false, err
	}
	return t, lead, nil
}

// maintainLocked is the post-append housekeeping: segment rotation at the
// size threshold, then the automatic snapshot cadence.
func (l *Log) maintainLocked() error {
	if l.segSize >= l.opts.SegmentSize {
		if err := l.rotate(); err != nil {
			// The segment boundary is in an unknown state (and the
			// event too, if the seal fsync failed); no further append
			// can land safely.
			return l.poisonLocked(fmt.Errorf("log: rotation failed, log poisoned: %w", err))
		}
	}
	l.sinceSnapshot++
	if l.opts.SnapshotEvery > 0 && l.sinceSnapshot >= l.opts.SnapshotEvery {
		if err := l.snapshotLocked(); err != nil {
			// Snapshots are accelerators, not the source of truth: a
			// failed one (EIO, rename fault) is counted and retried after
			// the next SnapshotEvery appends. The append itself succeeded —
			// unless the segment fsync inside the snapshot poisoned the log
			// before any fsync covered the append's frame; then the append
			// fails like its pending tickets.
			l.stats.SnapshotErrors++
			if l.err != nil && l.durableSeq < l.st.Events {
				return l.err
			}
		}
	}
	return nil
}

// heal recovers the active segment after a failed append write: the frame
// may have landed partially, so the segment is truncated back to the last
// good offset and the write cursor restored. On success the log stays
// usable and the caller's event is simply not logged; if the heal itself
// fails the log is poisoned.
func (l *Log) heal(cause error) error {
	path := filepath.Join(l.opts.Dir, segName(l.segIndex))
	if terr := l.fs.Truncate(path, l.segSize); terr != nil {
		return l.poisonLocked(fmt.Errorf("log: append failed (%v) and heal failed, log poisoned: %w", cause, terr))
	}
	if _, serr := l.f.Seek(l.segSize, io.SeekStart); serr != nil {
		return l.poisonLocked(fmt.Errorf("log: append failed (%v) and reseek failed, log poisoned: %w", cause, serr))
	}
	l.stats.Heals++
	return fmt.Errorf("log: append failed (segment healed): %w", cause)
}

func (l *Log) fsync() error {
	t0 := time.Now()
	err := l.f.Sync()
	d := uint64(time.Since(t0).Nanoseconds())
	l.stats.FsyncCount++
	l.stats.FsyncNanos += d
	if d > l.stats.FsyncMaxNanos {
		l.stats.FsyncMaxNanos = d
	}
	if err == nil {
		// The active segment's fsync covers every frame written so far
		// (earlier segments were fsynced when rotation sealed them).
		l.durableSeq = l.st.Events
	}
	return err
}

// rotate seals the active segment (always fsynced: a sealed segment is
// immutable from here on) and starts the next one. The seal fsync covers
// every frame written so far, so pending commit batches release here —
// a batch spanning a rotation never waits past the segment boundary.
func (l *Log) rotate() error {
	if err := l.fsync(); err != nil {
		return err
	}
	l.releaseAllLocked(nil)
	if err := l.f.Close(); err != nil {
		return err
	}
	l.stats.Segments++
	l.segFirstSeq[l.segIndex+1] = l.st.Events + 1
	return l.openSegment(l.segIndex+1, 0)
}

// Snapshot writes a catalog snapshot covering everything appended so far.
func (l *Log) Snapshot() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	return l.snapshotLocked()
}

func (l *Log) snapshotLocked() error {
	l.sinceSnapshot = 0
	// A snapshot must never reference a log position that is not yet
	// durable: a crash could otherwise drop the segment's unsynced tail
	// (Sync off, or an open commit batch) while keeping the
	// (always-fsynced) snapshot, leaving it pointing past the end of the
	// segment it replays from.
	if l.f != nil {
		// The segment fsync covers every pending commit batch.
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	pos := replayPos{seg: l.segIndex, off: l.segSize}
	l.snapSeq++
	path := filepath.Join(l.opts.Dir, snapName(l.snapSeq))
	tmp := path + ".tmp"
	f, err := l.fs.Create(tmp)
	if err != nil {
		return err
	}
	// Records stream from the state into the writer through the append
	// buffer, one Write per record (the writer's flush boundaries, and so
	// the file's write sizes, depend on it).
	w := bufio.NewWriter(f)
	l.buf = appendControl(l.buf[:0], "SNAPSHOT", pos.seg, uint64(pos.off), l.st.Events, uint64(l.st.LastAt))
	w.Write(l.buf)
	records := uint64(0)
	l.st.visit(func(e Event) {
		l.buf = AppendEvent(l.buf[:0], e)
		w.Write(l.buf)
		records++
	})
	l.buf = appendControl(l.buf[:0], "COMMIT", records)
	w.Write(l.buf)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := l.fs.Rename(tmp, path); err != nil {
		return err
	}
	l.lastSnap = pos
	l.stats.Snapshots++
	return nil
}

// loadSnapshot reads one snapshot file into a fresh state. Anything short
// of a well-formed header, event records that apply, and a commit trailer
// whose count matches is an error — the caller falls back to an older
// snapshot or to the segments.
//
// A snapshot holds each image's samples back to back (State.visit), so the
// plain ones — $S@t@name@value$, nothing escaped — are taken as runs: the
// image is looked up once per run and the run's values become one string
// (sampleRun). Every other record, escaped or not a sample, flushes the run
// and goes through decodeEvent and Apply, which decide what it means.
func loadSnapshot(fs faultfs.FS, path string, rd *reader) (*State, replayPos, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, replayPos{}, err
	}
	defer f.Close()
	rd.br.Reset(f)

	payload, _, err := ReadFrame(rd.br, &rd.buf)
	if err != nil {
		return nil, replayPos{}, fmt.Errorf("log: unreadable snapshot header: %w", err)
	}
	var head [4]uint64 // segment, offset, events, last timestamp
	if !control(payload, "SNAPSHOT", head[:]) {
		return nil, replayPos{}, fmt.Errorf("log: bad snapshot header")
	}

	st := NewState()
	var run sampleRun
	for n := uint64(0); ; n++ {
		payload, _, err := ReadFrame(rd.br, &rd.buf)
		if err != nil {
			return nil, replayPos{}, fmt.Errorf("log: snapshot truncated before commit")
		}
		if at, name, value, ok := plainSample(payload); ok {
			if err := run.add(st, at, name, value); err != nil {
				return nil, replayPos{}, err
			}
			continue
		}
		run.flush()
		e, ok := rd.event(payload)
		if !ok {
			var count [1]uint64
			if !control(payload, "COMMIT", count[:]) {
				return nil, replayPos{}, fmt.Errorf("log: undecodable snapshot record")
			}
			if count[0] != n {
				return nil, replayPos{}, fmt.Errorf("log: snapshot commit count mismatch")
			}
			break
		}
		if err := st.Apply(e); err != nil {
			return nil, replayPos{}, err
		}
	}
	// The dump collapses catalog overwrites, so the replay counters are
	// restored from the header rather than recomputed.
	st.Events = head[2]
	st.LastAt = timeseq.Time(head[3])
	return st, replayPos{seg: head[0], off: int64(head[1])}, nil
}

// plainSample splits a sample record with no escape, exactly four fields
// and a non-empty value — what decodeEvent would read as Sample(at, name,
// value) with nothing to unescape. ok is false for every other payload,
// valid or not. (An empty value is left to decodeEvent so that it does not
// point into, and keep alive, a run's string.) It is a byte loop of its own
// rather than an encoding.Scan: through the generic scanner BenchmarkOpen
// takes a quarter longer.
func plainSample(p []byte) (at timeseq.Time, name, value []byte, ok bool) {
	if len(p) < 4 || string(p[:3]) != "$S@" || p[len(p)-1] != '$' {
		return 0, nil, nil, false
	}
	body := p[3 : len(p)-1]
	var cut [2]int
	seps := 0
	for i, b := range body {
		switch b {
		case '@':
			if seps == len(cut) {
				return 0, nil, nil, false
			}
			cut[seps] = i
			seps++
		case '$', '#', '%':
			return 0, nil, nil, false
		}
	}
	if seps != len(cut) || cut[1] == len(body)-1 {
		return 0, nil, nil, false
	}
	t, err := encoding.ParseUint(body[:cut[0]])
	if err != nil {
		return 0, nil, nil, false
	}
	return timeseq.Time(t), body[cut[0]+1 : cut[1]], body[cut[1]+1:], true
}

// sampleRun collects consecutive plain samples of one image while a
// snapshot loads: their times, and their values back to back in one
// buffer. flush turns the values into one string and appends the samples,
// each value a slice of it, to the image's history, grown to the exact size
// once. So a loaded history costs an allocation per run, not per sample —
// and a value kept alive keeps its whole run's string alive with it.
type sampleRun struct {
	img  *ImageState
	name []byte
	at   []timeseq.Time
	ends []int // ends[i]: the end of sample i's value in vals
	vals []byte
}

// add appends one sample to the run, flushing the run first when the
// sample is for another image. A sample for an unregistered image is an
// error, as it is to Apply.
func (r *sampleRun) add(st *State, at timeseq.Time, name, value []byte) error {
	if r.img == nil || !bytes.Equal(name, r.name) {
		r.flush()
		img, ok := st.Images[string(name)]
		if !ok {
			return fmt.Errorf("log: sample for unregistered image %q", name)
		}
		r.img, r.name = img, append(r.name[:0], name...)
	}
	r.vals = append(r.vals, value...)
	r.at = append(r.at, at)
	r.ends = append(r.ends, len(r.vals))
	return nil
}

// flush appends the run to its image's history and empties it.
func (r *sampleRun) flush() {
	if r.img == nil {
		return
	}
	vals, s := string(r.vals), r.img.Samples
	if cap(s)-len(s) < len(r.at) {
		s = append(make([]rtdb.Sample, 0, len(s)+len(r.at)), s...)
	}
	start := 0
	for i, end := range r.ends {
		s = append(s, rtdb.Sample{At: r.at[i], Value: vals[start:end]})
		start = end
	}
	r.img.Samples = s
	r.img, r.at, r.ends, r.vals = nil, r.at[:0], r.ends[:0], r.vals[:0]
}

// Compact removes segments wholly covered by the newest snapshot and all
// older snapshots. The active segment is never removed.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.snapSeq == 0 {
		return nil
	}
	names, err := l.fs.ReadDir(l.opts.Dir)
	if err != nil {
		return err
	}
	l.compacted = l.lastSnap.seg
	for _, name := range names {
		if v, ok := parseSeq(name, "seg-", ".wal"); ok && v < l.lastSnap.seg {
			if err := l.fs.Remove(filepath.Join(l.opts.Dir, name)); err != nil {
				return err
			}
			delete(l.segFirstSeq, v)
		}
		if v, ok := parseSeq(name, "snap-", ".snap"); ok && v < l.snapSeq {
			if err := l.fs.Remove(filepath.Join(l.opts.Dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sync forces an fsync of the active segment. It is the synchronous commit
// point: every pending ticket resolves before Sync returns — nil on
// success, the poison error if the fsync failed.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		return nil
	}
	return l.syncLocked()
}

// syncLocked commits everything written to the active segment: on success
// every pending batch releases, on failure the log poisons and they all
// fail with it.
func (l *Log) syncLocked() error {
	if err := l.fsync(); err != nil {
		return l.poisonLocked(fmt.Errorf("log: fsync failed, log poisoned: %w", err))
	}
	l.releaseAllLocked(nil)
	return nil
}

// Close syncs and closes the active segment. Pending commit tickets
// resolve with the final fsync's outcome — none is left hanging.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if l.err != nil {
		l.f.Close()
		l.f = nil
		return l.err
	}
	if err := l.fsync(); err != nil {
		l.releaseAllLocked(err)
		l.f.Close()
		l.f = nil
		return err
	}
	l.releaseAllLocked(nil)
	err := l.f.Close()
	l.f = nil
	return err
}
