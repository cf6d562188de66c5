package log

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sync"
)

// This file is the log's replication surface: sequence-addressed reads over
// the on-disk segments through a position the follower's sender keeps, the
// wake-up a caught-up sender sleeps on, and the persisted fencing epoch. The
// segments are the only source replication reads: there is no in-memory
// copy of the tail, and no folded state to ship instead. Replication moves
// record payloads, not events: ReadFrom hands back the bytes as framed and a
// follower's AppendBatch frames them unchanged, so every replicated log is a
// byte prefix of its primary's and the record format stays in this package.
//
// The sequence number of an event is its 1-based position in the log:
// State.Events after a successful Append IS the appended event's sequence.
// Replication therefore needs no new on-disk format — only an index from
// segment to the sequence of its first frame.

// Replication errors. Both are expected protocol states, not damage, and
// the primary answers both with one refusal: this log cannot extend the
// follower's.
var (
	// ErrSeqFuture: the requested sequence is beyond the log's tail.
	ErrSeqFuture = errors.New("log: sequence beyond the log tail")
	// ErrSeqCompacted: the events after the requested sequence are no
	// longer readable — Compact removed their segments, or a sealed segment
	// behind Open's snapshot cannot be read or numbered (see countPreSnap).
	ErrSeqCompacted = errors.New("log: sequence compacted away")
)

// Seq returns the sequence number of the newest appended event — the log's
// tail position.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.Events
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

// shippableLocked is the newest sequence a follower may be handed. With
// Sync set frames sit written-but-unfsynced in pending commit batches, and
// a follower must never apply an event the primary could still lose, so the
// shippable tail is the durable tail: it moves at batch release.
func (l *Log) shippableLocked() uint64 {
	if l.opts.Sync {
		return l.durableSeq
	}
	return l.st.Events
}

// ReadFrom returns the record payloads of up to max events after pos.Seq, as
// framed in the segment files, and advances pos past them: the first is
// sequence pos.Seq+1, pos as it stood before the call. Frames pass their CRC
// check but are not decoded: this package encoded them, and the follower's
// AppendBatch is where a shipped payload gets decoded. The first call locates
// pos through the segment index and skips to it inside that segment; every
// later call resumes at pos's own byte offset, so it reads the frames it
// returns and no others, however long the segment. The log's mutex is held
// only to place the read, not for the read itself: frames at or below the
// shippable tail never change, so appends do not wait on a reader's I/O.
// It returns ErrSeqFuture when pos.Seq is past the shippable tail,
// ErrSeqCompacted when the events after it are no longer readable — either
// way this log cannot extend the reader's — and no events when the reader is
// caught up (Advanced is what to wait on then).
func (l *Log) ReadFrom(pos *ReadPos, max int) ([]string, error) {
	p, skip, n, err := l.placeRead(*pos, max)
	if err == errUnindexed {
		l.indexPreSnap()
		p, skip, n, err = l.placeRead(*pos, max)
	}
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
	out := make([]string, 0, n)
	for len(out) < n {
		_, err := l.scanSegment(p.seg, p.off, -1, rd, func(payload []byte, end int64) bool {
			if skip > 0 {
				skip--
			} else {
				p.Seq++
				out = append(out, string(payload))
			}
			p.off = end
			return len(out) < n
		})
		if err != nil && err != errZeros {
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
// the number of frames to skip inside it. errUnindexed asks the caller to
// index the segments behind Open's snapshot and place the read again.
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
	// segment and this log cannot serve it.
	var first uint64
	for seg, f := range l.segFirstSeq {
		if f <= pos.Seq+1 && f > first {
			pos.seg, first = seg, f
		}
	}
	if first == 0 {
		if l.preSnap != nil {
			return pos, 0, 0, errUnindexed
		}
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
// shippable tail moves — an append without Sync, every release of the
// pending commit batches — and where the log stops for good.
func (l *Log) advancedLocked() {
	if l.advanced != nil {
		close(l.advanced)
		l.advanced = nil
	}
}

// scanSegment is the one forward reader over a segment file. It hands visit
// each frame of seg from byte offset start — the payload, valid until the
// next frame, and the offset just past it — until visit returns false, the
// offset reaches limit (limit < 0: the end of the file), a frame fails its
// check or the frames end at zeros, and returns the offset just past the
// last frame visited. errTorn marks the failed frame; what that means is the
// caller's to decide. errZeros marks where a filled segment's frames end: a
// header of zeros — a zero-length frame, which no record is — or, when fewer
// than a header's bytes are left before limit, zeros to limit. So no reader
// is ever handed an empty payload.
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
		if limit-off < frameHeaderSize {
			if b, _ := rd.br.Peek(int(limit - off)); isZeros(b) {
				return off, errZeros
			}
		}
		payload, n, err := ReadFrame(rd.br, &rd.buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return off, err
		}
		if len(payload) == 0 {
			return off, errZeros
		}
		off += int64(n)
		if !visit(payload, off) {
			break
		}
	}
	return off, nil
}

// errZeros: scanSegment stopped where a filled segment's frames end.
var errZeros = errors.New("log: frames end at zeros")

// isZeros reports whether every byte of b is zero.
func isZeros(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// countFrames counts the frames of one segment up to limit bytes (whole
// file when limit < 0, or up to a fill's zeros). With a positive limit the
// count must land exactly on a frame boundary — a snapshot position never
// points mid-frame.
func (l *Log) countFrames(seg uint64, limit int64, rd *reader) (uint64, error) {
	var n uint64
	off, err := l.scanSegment(seg, 0, limit, rd, func([]byte, int64) bool { n++; return true })
	if err != nil && err != errZeros {
		return 0, err
	}
	if limit > 0 && off != limit {
		return 0, fmt.Errorf("log: %s frame boundary mismatch at %d (want %d)", segName(seg), off, limit)
	}
	return n, nil
}

// errUnindexed: placeRead found no indexed segment holding the sequence
// while the segments behind Open's snapshot are still to be indexed.
var errUnindexed = errors.New("log: segments before the snapshot not indexed yet")

// preSnapIndex is what indexing the segments up to the snapshot Open loaded
// from needs: the segments on disk then, the snapshot position, and the
// event count there. Recovery never needs that index, so Open leaves it to
// the first reader that asks for a sequence no indexed segment holds.
type preSnapIndex struct {
	once   sync.Once
	segs   []uint64
	pos    replayPos
	events uint64
}

// indexPreSnap fills segFirstSeq for the snapshot's segment and every
// surviving earlier one, once; concurrent callers wait for the first.
// Segments after the snapshot position were indexed during replay. The
// frames are counted outside the mutex — sealed segments never change, nor
// does the active one below the snapshot position — so appends do not wait
// on the count, and installed under it, minus the segments Compact removed
// meanwhile: a reader that needed those gets ErrSeqCompacted.
func (l *Log) indexPreSnap() {
	l.mu.Lock()
	pre := l.preSnap
	l.mu.Unlock()
	if pre == nil {
		return
	}
	pre.once.Do(func() {
		firsts := l.countPreSnap(pre)
		l.mu.Lock()
		defer l.mu.Unlock()
		for seg, first := range firsts {
			if seg >= l.compacted {
				l.segFirstSeq[seg] = first
			}
		}
		l.preSnap = nil
	})
}

// countPreSnap returns the first sequence of the snapshot's segment, which
// the snapshot's position anchors, and of each earlier segment back to the
// first that is missing or unreadable; a read behind those gets
// ErrSeqCompacted, the one way a log never compacted answers it. A count
// that reaches segment 1 must land on sequence 1: a segment cut at a frame
// boundary tears no frame, and a miss keeps the anchored segment alone.
func (l *Log) countPreSnap(pre *preSnapIndex) map[uint64]uint64 {
	rd := newReader()
	n, err := l.countFrames(pre.pos.seg, pre.pos.off, rd)
	if err != nil || n > pre.events {
		return nil
	}
	first := pre.events + 1 - n
	firsts := map[uint64]uint64{pre.pos.seg: first}
	i := slices.Index(pre.segs, pre.pos.seg)
	for ; i > 0 && pre.segs[i-1] == pre.segs[i]-1; i-- {
		cnt, err := l.countFrames(pre.segs[i-1], -1, rd)
		if err != nil || cnt >= first {
			return firsts
		}
		first -= cnt
		firsts[pre.segs[i-1]] = first
	}
	if pre.segs[i] == 1 && first != 1 {
		return map[uint64]uint64{pre.pos.seg: pre.events + 1 - n}
	}
	return firsts
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
