package log

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"rtc/internal/timeseq"
)

// This file is the log's replication surface: sequence-addressed reads over
// the on-disk segments through a position the follower's sender keeps, the
// wake-up a caught-up sender sleeps on, state bootstrap (full resync when
// the requested sequence was compacted away), and the persisted fencing
// epoch. The segments are the only source replication reads: there is no
// in-memory copy of the tail to fall behind, overflow or fall back from.
//
// The sequence number of an event is its 1-based position in the log:
// State.Events after a successful Append IS the appended event's sequence.
// Replication therefore needs no new on-disk format — only an index from
// segment to the sequence of its first frame.

// Replication errors. Both are expected protocol states, not damage: the
// primary answers ErrSeqFuture with a rejection (the follower is ahead —
// a fencing violation) and ErrSeqCompacted with a full-state resync.
var (
	// ErrSeqFuture: the requested sequence is beyond the log's tail.
	ErrSeqFuture = errors.New("log: sequence beyond the log tail")
	// ErrSeqCompacted: the events after the requested sequence are no
	// longer on disk — compaction removed their segments.
	ErrSeqCompacted = errors.New("log: sequence compacted away")
)

// Seq returns the sequence number of the newest appended event — the log's
// tail position.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.Events
}

// SeqEvent is one log event tagged with its sequence number.
type SeqEvent struct {
	Seq   uint64
	Event Event
}

// ReadPos is one reader's place in the log: the sequence of the last event
// it was handed and, once ReadFrom has located it, the byte position just
// past that event's frame. It lives with the reader, not in the Log, so any
// number of followers stream independently; start one at {Seq: afterSeq}.
type ReadPos struct {
	Seq uint64
	seg uint64 // 0: not located yet (segments are numbered from 1)
	off int64
}

// shippableLocked is the newest sequence a follower may be handed. Under
// group commit frames sit written-but-unfsynced inside the open window, and
// a follower must never apply an event the primary could still lose, so the
// shippable tail is the durable tail: it moves at batch release.
func (l *Log) shippableLocked() uint64 {
	if l.grouped() && l.durableSeq < l.st.Events {
		return l.durableSeq
	}
	return l.st.Events
}

// ReadFrom returns up to max events after pos.Seq, read back from the
// segment files, and advances pos past them. The first call locates pos
// through the segment index and skips to it inside that segment; every
// later call resumes at pos's own byte offset, so it reads the frames it
// returns and no others, however long the segment. The log's mutex is held
// only to place the read, not for the read itself: frames at or below the
// shippable tail never change, so appends do not wait on a reader's I/O.
// It returns ErrSeqFuture when pos.Seq is past the shippable tail,
// ErrSeqCompacted when the events after it are no longer on disk, and no
// events when the reader is caught up (Advanced is what to wait on then).
func (l *Log) ReadFrom(pos *ReadPos, max int) ([]SeqEvent, error) {
	p, skip, n, err := l.placeRead(*pos, max)
	if err != nil || n == 0 {
		return nil, err
	}
	// A located read sizes its buffer to the frames wanted at ≈ 32 B each
	// (rtbench's log.bytes_per_event is 29–30): a sender woken for one commit
	// batch at the tail reads about that batch, not a page of frames behind
	// it. Locating skips through whole pages.
	size := 4096
	if skip == 0 {
		size = min(size, n*32)
	}
	rd := &reader{br: bufio.NewReaderSize(nil, size)}
	out := make([]SeqEvent, 0, n)
	for len(out) < n {
		var bad error
		_, err := l.scanSegment(p.seg, p.off, -1, rd, func(payload []byte, end int64) bool {
			if skip > 0 {
				skip--
			} else if e, ok := DecodeEvent(payload); ok {
				p.Seq++
				out = append(out, SeqEvent{Seq: p.Seq, Event: e})
			} else {
				bad = fmt.Errorf("undecodable record before offset %d", end)
				return false
			}
			p.off = end
			return len(out) < n
		})
		if err == nil {
			err = bad
		}
		if err != nil {
			// Compact can delete a segment under an unlocked read: that is a
			// position compacted away, not damage.
			l.mu.Lock()
			_, indexed := l.segFirstSeq[p.seg]
			l.mu.Unlock()
			if !indexed {
				return nil, ErrSeqCompacted
			}
			return nil, fmt.Errorf("log: catch-up read of %s: %w", segName(p.seg), err)
		}
		if len(out) < n {
			// Segment exhausted. Past the active one there is no file, and
			// the open above reports it: the index and the tail disagree.
			p.seg, p.off = p.seg+1, 0
		}
	}
	*pos = p
	return out, nil
}

// placeRead is the locked half of ReadFrom: how many events (at most max)
// a reader at pos may be handed, and where the first one's frame is — pos
// itself once located, else the start of the segment that holds Seq+1 and
// the number of frames to skip inside it.
func (l *Log) placeRead(pos ReadPos, max int) (p ReadPos, skip uint64, n int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return pos, 0, 0, err
	}
	tail := l.shippableLocked()
	if pos.Seq > tail {
		return pos, 0, 0, ErrSeqFuture
	}
	if n = int(min(uint64(max), tail-pos.Seq)); n <= 0 {
		return pos, 0, 0, nil
	}
	if _, ok := l.segFirstSeq[pos.seg]; ok {
		return pos, 0, n, nil
	}
	// Not located yet, or compaction removed the segment under it. The
	// start segment is the one with the largest first-sequence that is
	// still ≤ Seq+1; if none qualifies the target predates every indexed
	// segment and only a full resync can serve it.
	var first uint64
	for seg, f := range l.segFirstSeq {
		if f <= pos.Seq+1 && f > first {
			pos.seg, first = seg, f
		}
	}
	if first == 0 {
		return pos, 0, 0, ErrSeqCompacted
	}
	pos.off = 0
	return pos, pos.Seq + 1 - first, n, nil
}

// Advanced returns a channel that is closed once a ReadFrom at afterSeq has
// something new to report: the shippable tail is past afterSeq, or the log
// closed or poisoned. It is already closed when that holds now, so a reader
// that checks, finds nothing and then waits cannot lose a wake-up. The
// channel is made only when somebody waits and dropped when it fires: an
// append with no follower behind it pays a nil check.
func (l *Log) Advanced(afterSeq uint64) <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.usableLocked() != nil || l.shippableLocked() > afterSeq {
		done := make(chan struct{})
		close(done)
		return done
	}
	if l.advanced == nil {
		l.advanced = make(chan struct{})
	}
	return l.advanced
}

// advancedLocked wakes every reader waiting in Advanced. Called wherever the
// shippable tail moves — the end of an ungrouped append, every release of
// the pending commit batches — and where the log stops for good.
func (l *Log) advancedLocked() {
	if l.advanced != nil {
		close(l.advanced)
		l.advanced = nil
	}
}

// scanSegment is the one forward reader over a segment file. It hands visit
// each frame of seg from byte offset start — the payload, valid until the
// next frame, and the offset just past it — until visit returns false, the
// offset reaches limit (limit < 0: the end of the file) or a frame fails its
// check, and returns the offset just past the last frame visited. errTorn
// marks the failed frame; what that means is the caller's to decide.
func (l *Log) scanSegment(seg uint64, start, limit int64, rd *reader, visit func(payload []byte, end int64) bool) (int64, error) {
	f, err := l.fs.Open(filepath.Join(l.opts.Dir, segName(seg)))
	if err != nil {
		return start, err
	}
	defer f.Close()
	if limit < 0 {
		if limit, err = f.Size(); err != nil {
			return start, err
		}
	}
	if start > limit {
		return start, fmt.Errorf("log: offset %d past end of %s (%d bytes)", start, segName(seg), limit)
	}
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return start, err
	}
	rd.br.Reset(f)
	off := start
	for off < limit {
		payload, n, err := ReadFrame(rd.br, &rd.buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return off, err
		}
		off += int64(n)
		if !visit(payload, off) {
			break
		}
	}
	return off, nil
}

// countFrames counts the frames of one segment up to limit bytes (whole
// file when limit < 0). With a positive limit the count must land exactly
// on a frame boundary — a snapshot position never points mid-frame.
func (l *Log) countFrames(seg uint64, limit int64, rd *reader) (uint64, error) {
	var n uint64
	off, err := l.scanSegment(seg, 0, limit, rd, func([]byte, int64) bool { n++; return true })
	if err != nil {
		return 0, err
	}
	if limit > 0 && off != limit {
		return 0, fmt.Errorf("log: %s frame boundary mismatch at %d (want %d)", segName(seg), off, limit)
	}
	return n, nil
}

// indexSegments fills segFirstSeq for the snapshot's segment and every
// surviving earlier segment. Segments after the snapshot position were
// indexed during replay. An unreadable pre-snapshot region is not fatal:
// those segments simply stay unindexed, and catch-up requests that need
// them fall back to a full resync.
func (l *Log) indexSegments(segs []uint64, pos replayPos, snapEvents uint64, rd *reader) {
	pre, err := l.countFrames(pos.seg, pos.off, rd)
	if err != nil || pre > snapEvents {
		return
	}
	first := snapEvents + 1 - pre
	l.segFirstSeq[pos.seg] = first
	j := -1
	for i, seg := range segs {
		if seg == pos.seg {
			j = i
			break
		}
	}
	prev := pos.seg
	for i := j - 1; i >= 0; i-- {
		if segs[i] != prev-1 {
			return // numbering gap: cannot chain counts further back
		}
		cnt, err := l.countFrames(segs[i], -1, rd)
		if err != nil || cnt >= first {
			return
		}
		first -= cnt
		prev = segs[i]
		l.segFirstSeq[prev] = first
	}
}

// DumpState flattens the current state into a replayable event sequence
// plus the sequence number and last timestamp it corresponds to — the
// payload of a full-state resync. The state is only shippable once it is
// durable, so under group commit DumpState first commits the open window;
// if that fsync fails it returns the poison error instead of a dump.
func (l *Log) DumpState() ([]Event, uint64, timeseq.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.shippableLocked() < l.st.Events {
		if err := l.usableLocked(); err != nil {
			return nil, 0, 0, err
		}
		if err := l.syncLocked(); err != nil {
			return nil, 0, 0, err
		}
	}
	return l.st.dump(), l.st.Events, l.st.LastAt, nil
}

// Bootstrap replaces the log directory's contents with the given state
// dump, aligned so the next append gets sequence seq+1 — the follower-side
// terminal of a full-state resync. The fencing epoch file, if present, is
// preserved: resync changes a node's data, not its identity. The dump is
// persisted as a snapshot before Bootstrap returns, so a crash right after
// recovers to exactly this state.
func Bootstrap(opts Options, events []Event, seq uint64, lastAt timeseq.Time) (*Log, error) {
	opts.defaults()
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, err
	}
	names, err := opts.FS.ReadDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		_, isSeg := parseSeq(name, "seg-", ".wal")
		_, isSnap := parseSeq(name, "snap-", ".snap")
		if isSeg || isSnap {
			if err := opts.FS.Remove(filepath.Join(opts.Dir, name)); err != nil {
				return nil, err
			}
		}
	}
	st := NewState()
	for _, e := range events {
		if err := st.Apply(e); err != nil {
			return nil, fmt.Errorf("log: bootstrap dump rejected: %w", err)
		}
	}
	st.Events = seq
	st.LastAt = lastAt
	l := &Log{opts: opts, fs: opts.FS, st: st}
	l.epoch = l.readEpoch()
	l.segFirstSeq = map[uint64]uint64{1: seq + 1}
	if err := l.openSegment(1, 0); err != nil {
		return nil, err
	}
	l.stats.Segments = 1
	if err := l.snapshotLocked(); err != nil {
		l.f.Close()
		return nil, err
	}
	return l, nil
}

// epochName is the fencing-epoch file: one framed record ["EPOCH", n].
const epochName = "epoch"

// Epoch returns the node's fencing epoch (1 when none was ever persisted).
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// BumpEpoch persists and returns epoch+1 — the promotion step. Everything
// stamped with an older epoch is fenced from here on.
func (l *Log) BumpEpoch() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	next := l.epoch + 1
	if err := l.writeEpochLocked(next); err != nil {
		return 0, err
	}
	l.epoch = next
	return next, nil
}

// AdoptEpoch persists e if it is newer than the current epoch — a follower
// adopting its primary's epoch so fencing survives the follower's restarts.
func (l *Log) AdoptEpoch(e uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e <= l.epoch {
		return nil
	}
	if err := l.writeEpochLocked(e); err != nil {
		return err
	}
	l.epoch = e
	return nil
}

// readEpoch loads the persisted epoch, defaulting to 1.
func (l *Log) readEpoch() uint64 {
	f, err := l.fs.Open(filepath.Join(l.opts.Dir, epochName))
	if err != nil {
		return 1
	}
	defer f.Close()
	payload, _, err := ReadFrame(f, nil)
	var v [1]uint64
	if err != nil || !control(payload, "EPOCH", v[:]) || v[0] == 0 {
		return 1
	}
	return v[0]
}

// writeEpochLocked persists the epoch with the tmp+rename discipline.
func (l *Log) writeEpochLocked(e uint64) error {
	path := filepath.Join(l.opts.Dir, epochName)
	tmp := path + ".tmp"
	f, err := l.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(appendControl(nil, "EPOCH", e)); err != nil {
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
	return l.fs.Rename(tmp, path)
}
