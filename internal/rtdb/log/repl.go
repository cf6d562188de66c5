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
// the on-disk segments (catch-up), a bounded tail subscription (live
// streaming), state bootstrap (full resync when the requested sequence was
// compacted away), and the persisted fencing epoch.
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

// ReadSince returns up to max events with sequence numbers strictly after
// afterSeq, read back from the segment files. It returns ErrSeqFuture when
// afterSeq is past the tail, ErrSeqCompacted when the events after afterSeq
// are no longer on disk, and an empty slice when the follower is caught up.
func (l *Log) ReadSince(afterSeq uint64, max int) ([]SeqEvent, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil, l.err
	}
	if l.f == nil {
		return nil, fmt.Errorf("log: closed")
	}
	// Catch-up never serves past the durable tail: under group commit
	// frames sit written-but-unfsynced inside the open window, and a
	// follower must never apply an event the primary could still lose. The
	// events surface at batch release, through the tail publication.
	tail := l.st.Events
	if l.grouped() && l.durableSeq < tail {
		tail = l.durableSeq
	}
	if afterSeq > tail {
		return nil, ErrSeqFuture
	}
	if afterSeq == tail || max <= 0 {
		return nil, nil
	}
	// The start segment is the one with the largest first-sequence that is
	// still ≤ afterSeq+1; if none qualifies the target predates every
	// indexed segment and only a full resync can serve it.
	var startSeg, startFirst uint64
	found := false
	for seg, first := range l.segFirstSeq {
		if first <= afterSeq+1 && (!found || first > startFirst) {
			startSeg, startFirst, found = seg, first, true
		}
	}
	if !found {
		return nil, ErrSeqCompacted
	}
	out := make([]SeqEvent, 0, max)
	seq := startFirst - 1
	for seg := startSeg; seg <= l.segIndex; seg++ {
		limit := int64(-1)
		if seg == l.segIndex {
			limit = l.segSize
		}
		done, err := l.scanSegment(seg, limit, func(e Event) bool {
			seq++
			if seq > tail {
				return false
			}
			if seq > afterSeq {
				out = append(out, SeqEvent{Seq: seq, Event: e})
			}
			return len(out) < max
		})
		if err != nil {
			return nil, fmt.Errorf("log: catch-up read of %s: %w", segName(seg), err)
		}
		if done {
			break
		}
	}
	return out, nil
}

// scanSegment streams the decoded events of one segment (up to limit bytes,
// or the whole file when limit < 0) into visit; it stops early when visit
// returns false and reports whether it did.
func (l *Log) scanSegment(seg uint64, limit int64, visit func(Event) bool) (stopped bool, err error) {
	if limit == 0 {
		return false, nil
	}
	f, err := l.fs.Open(filepath.Join(l.opts.Dir, segName(seg)))
	if err != nil {
		return false, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var buf []byte
	var off int64
	for limit < 0 || off < limit {
		payload, n, err := ReadFrame(r, &buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return false, err
		}
		e, ok := DecodeEvent(payload)
		if !ok {
			return false, fmt.Errorf("undecodable record at offset %d", off)
		}
		off += int64(n)
		if !visit(e) {
			return true, nil
		}
	}
	return false, nil
}

// countFrames counts the frames of one segment up to limit bytes (whole
// file when limit < 0). With a positive limit the count must land exactly
// on a frame boundary — a snapshot position never points mid-frame.
func (l *Log) countFrames(seg uint64, limit int64) (uint64, error) {
	if limit == 0 {
		return 0, nil
	}
	f, err := l.fs.Open(filepath.Join(l.opts.Dir, segName(seg)))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var buf []byte
	var off int64
	var n uint64
	for limit < 0 || off < limit {
		_, m, err := ReadFrame(r, &buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		n++
		off += int64(m)
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
func (l *Log) indexSegments(segs []uint64, pos replayPos, snapEvents uint64) {
	pre, err := l.countFrames(pos.seg, pos.off)
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
		cnt, err := l.countFrames(segs[i], -1)
		if err != nil || cnt >= first {
			return
		}
		first -= cnt
		prev = segs[i]
		l.segFirstSeq[prev] = first
	}
}

// Tail is a live subscription to the log's appends. C delivers each
// successfully appended event tagged with its sequence; when the buffer is
// full the event is dropped (the subscriber sees a sequence gap and falls
// back to ReadSince) — a slow follower never blocks Append.
type Tail struct {
	C      chan SeqEvent
	l      *Log
	closed bool
}

// SubscribeTail registers a live tail with the given channel buffer.
func (l *Log) SubscribeTail(buf int) *Tail {
	l.mu.Lock()
	defer l.mu.Unlock()
	if buf <= 0 {
		buf = 1
	}
	t := &Tail{C: make(chan SeqEvent, buf), l: l}
	if l.tails == nil {
		l.tails = make(map[*Tail]struct{})
	}
	l.tails[t] = struct{}{}
	return t
}

// Close unregisters the tail and closes its channel.
func (t *Tail) Close() {
	t.l.mu.Lock()
	defer t.l.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	delete(t.l.tails, t)
	close(t.C)
}

// publishLocked fans one appended event out to the live tails. Called with
// mu held, immediately after a fully successful ungrouped Append; group
// commit instead publishes at batch release, after the covering fsync
// (publishSeqLocked with the batch's recorded sequences), so followers
// only ever see durable events, in whole commit batches.
func (l *Log) publishLocked(e Event) {
	l.publishSeqLocked(SeqEvent{Seq: l.st.Events, Event: e})
}

// publishSeqLocked is the non-blocking fan-out; the full-buffer drop is
// what keeps the apply loop independent of follower speed (the subscriber
// sees a sequence gap and falls back to ReadSince).
func (l *Log) publishSeqLocked(se SeqEvent) {
	for t := range l.tails {
		select {
		case t.C <- se:
		default: // full buffer: subscriber detects the gap and catches up
		}
	}
}

// DumpState flattens the current state into a replayable event sequence
// plus the sequence number and last timestamp it corresponds to — the
// payload of a full-state resync.
func (l *Log) DumpState() ([]Event, uint64, timeseq.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.dump(), l.st.Events, l.st.LastAt
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
