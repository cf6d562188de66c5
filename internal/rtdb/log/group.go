package log

// Group commit: leader-based fsync batching, the one commit path.
//
// With Options.Sync set, an append validates and applies its event and holds
// its frame (under the log mutex, preserving the validate → apply order) but
// defers both the write and the fsync: the append joins the open commit
// batch and receives a Ticket. The first append to open a batch is its
// leader; the leader waits out the commit window (or an early close: batch
// full, a firm append, or CloseWindow), then writes every held frame in ONE
// write(2), issues ONE fsync and releases every ticket appended so far.
// GroupWindow 0 closes every window at once: each append seals its own
// batch and its leader commits as soon as it holds the mutex, so a serial
// blocking Append pays exactly one write and one fsync. Because a segment
// fsync covers every frame written before it, and every path that fsyncs
// the active segment — a leader's commit, an explicit Sync, a segment
// rotation, a snapshot's segment-first fsync, Close, AppendBatch's commit —
// first writes the held frames, any successful fsync releases ALL pending
// batches, in sequence order. Without Sync a frame's batch commits at once:
// the same write runs inside the append, and nothing is held between
// appends.
//
// Failure semantics are whole-batch: every path that poisons the log
// (fsync failure, a held write that fails again after its heal and retry,
// failed rotation) releases every pending ticket with the poison error. A
// ticket therefore always resolves; it resolves nil only after the fsync
// that covers its frame succeeded. A failed write is healed — truncated
// back to the last written offset — and retried once, so a transient fault
// costs no event; an fsync is never retried.
//
// The shippable tail moves with durability: with Sync set ReadFrom serves
// nothing past the newest fsynced sequence — every such frame has been
// written — and every release wakes the readers waiting in Advanced, so a
// follower's sender reads a commit batch the moment its fsync lands — whole
// batches ship, and the follower's fsync cadence matches the primary's.

import (
	"errors"
	"fmt"
	"time"
)

// errClosed is returned by appends on a closed log.
var errClosed = errors.New("log: closed")

// groupMaxBatch caps how many appends one commit batch accumulates before
// its window closes early.
const groupMaxBatch = 64

// batch is one commit window's worth of appended-but-not-yet-fsynced
// events. done is closed at release, after err is set; early is closed to
// seal the batch (no more joiners) and wake the leader before the window
// elapses.
type batch struct {
	tickets  uint64
	sealed   bool
	released bool
	early    chan struct{}
	done     chan struct{}
	err      error
}

// Ticket is one append's claim on a group commit. It resolves when the
// fsync covering the append completes (nil) or the log poisons (the poison
// error). A ticket from a log without Sync is born resolved, and so is the
// zero Ticket, so a holder needs no nil case before its first append.
type Ticket struct {
	b   *batch
	seq uint64
}

// Seq returns the appended event's WAL sequence number.
func (t *Ticket) Seq() uint64 { return t.seq }

// Wait blocks until the ticket resolves and returns its commit outcome.
func (t *Ticket) Wait() error {
	if t.b == nil {
		return nil
	}
	<-t.b.done
	return t.b.err
}

// Resolved reports whether the ticket's batch has already been released —
// Wait would return without blocking.
func (t *Ticket) Resolved() bool {
	if t.b == nil {
		return true
	}
	select {
	case <-t.b.done:
		return true
	default:
		return false
	}
}

// AppendTicket appends one event and returns its commit ticket without
// waiting for durability — the asynchronous form of Append for callers
// (the server's apply loop) that must never block on the commit window.
// An append that opens a batch spawns its leader. firm seals the open batch
// so the fsync happens as soon as the leader wakes, not at the end of the
// window — the §4.1 escape hatch that keeps firm-deadline acks off the
// window's tail latency. It inlines: a caller that keeps *t allocates none.
func (l *Log) AppendTicket(e Event, firm bool) (*Ticket, error) {
	t, err := l.appendTicket(e, firm)
	if err != nil {
		return nil, err
	}
	return &t, nil
}

// appendTicket is AppendTicket by value.
func (l *Log) appendTicket(e Event, firm bool) (Ticket, error) {
	l.mu.Lock()
	l.buf = AppendEvent(l.buf[:0], e)
	t, lead, err := l.appendLocked(e, l.buf, firm)
	l.mu.Unlock()
	if err == nil && lead {
		go l.lead(t.b)
	}
	return t, err
}

// joinBatchLocked adds the event just applied to the open commit batch
// (opening a new one if needed) and returns the batch, and whether this
// event opened it. firm — or a full batch — seals the window.
func (l *Log) joinBatchLocked(firm bool) (*batch, bool) {
	lead := false
	b := l.cur
	if b == nil {
		b = &batch{early: make(chan struct{}), done: make(chan struct{})}
		l.cur = b
		l.pending = append(l.pending, b)
		lead = true
	}
	b.tickets++
	if firm || b.tickets >= groupMaxBatch {
		l.sealLocked(b)
	}
	return b, lead
}

// sealLocked closes a batch's window: no more joiners, and its leader is
// woken to commit immediately.
func (l *Log) sealLocked(b *batch) {
	if b.sealed {
		return
	}
	b.sealed = true
	close(b.early)
	if l.cur == b {
		l.cur = nil
	}
}

// CloseWindow seals the open commit window, if any: the in-flight batch
// stops accepting joiners and its leader fsyncs as soon as it wakes
// instead of waiting out the rest of the window. Callers that need the
// resulting durability wait on their tickets (or call Sync, which commits
// synchronously).
func (l *Log) CloseWindow() {
	l.mu.Lock()
	if l.cur != nil {
		l.sealLocked(l.cur)
	}
	l.mu.Unlock()
}

// lead is the batch leader: it waits for the window to elapse (or the
// batch to seal, or an unrelated fsync to release the batch first), then
// commits. Run by the append that opened the batch — inline when the
// caller blocks on its ticket anyway, as a goroutine from AppendTicket.
func (l *Log) lead(b *batch) {
	select {
	case <-b.early: // sealed already (firm, full, or window 0): no timer
	default:
		timer := time.NewTimer(l.opts.GroupWindow)
		select {
		case <-b.early:
		case <-b.done:
		case <-timer.C:
		}
		timer.Stop()
	}
	l.mu.Lock()
	l.commitLocked(b)
	l.mu.Unlock()
}

// commitLocked fsyncs and releases every pending batch. A batch already
// released by an earlier fsync (rotation, snapshot, Sync, a younger
// sealed batch's leader) makes this a no-op — release order stays FIFO
// and no fsync is ever issued for already-durable frames.
func (l *Log) commitLocked(b *batch) {
	if b.released {
		return
	}
	if l.err != nil {
		l.releaseAllLocked(l.err)
		return
	}
	if l.f == nil {
		l.releaseAllLocked(errClosed)
		return
	}
	_ = l.syncLocked() // a failure reaches every ticket through the poison
}

// releaseAllLocked resolves every pending batch, oldest first. err == nil
// means the covering fsync succeeded: the group-commit counters advance. A
// non-nil err is the whole-batch failure path: every ticket in every pending
// batch resolves with it. Either way the readers waiting in Advanced wake —
// the durable tail just moved, or the log just stopped.
func (l *Log) releaseAllLocked(err error) {
	for i, b := range l.pending {
		b.released = true
		b.err = err
		if !b.sealed {
			b.sealed = true
			close(b.early)
		}
		if err == nil {
			l.stats.GroupCommits++
			l.stats.GroupedAppends += b.tickets
			if b.tickets > l.stats.GroupBatchMax {
				l.stats.GroupBatchMax = b.tickets
			}
		}
		close(b.done)
		l.pending[i] = nil
	}
	l.pending = l.pending[:0]
	l.cur = nil
	l.advancedLocked()
}

// poisonLocked marks the log permanently failed and fails every pending
// commit ticket with the same error — fsync-failure poison extends to the
// whole batch.
func (l *Log) poisonLocked(err error) error {
	l.err = err
	l.releaseAllLocked(err)
	return err
}

// DurableSeq returns the sequence number of the newest event known to be
// fsynced. It equals Seq() after any successful Sync; with Options.Sync set
// the tail may transiently run ahead of it by at most the pending batches'
// events.
func (l *Log) DurableSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableSeq
}

// AppendBatch appends shipped record payloads paying ONE write and ONE
// fsync for the whole batch — the follower-side mirror of a primary's group
// commit, so the replica's fsync cadence matches the shipped batch cadence.
// Each payload is decoded once, to check and apply it, framed byte for byte
// as shipped and run through the one append body (rotation and
// auto-snapshots run between them as usual); the single commit at the end
// writes their frames and releases them — and any batches already pending —
// in sequence order. It returns the events that reached the log's state: on
// a mid-batch error (an undecodable or invalid payload) exactly that
// prefix, which the caller's server must absorb, durable when the log is
// still usable; on a failed commit all of them, with the poison.
func (l *Log) AppendBatch(payloads []string) ([]Event, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return nil, err
	}
	before := l.st.Events
	events := make([]Event, 0, len(payloads))
	var err error
	for _, p := range payloads {
		e, ok := DecodeEvent(p)
		if !ok {
			err = fmt.Errorf("log: undecodable record at seq %d", l.st.Events+1)
			break
		}
		events = append(events, e)
		l.buf = appendFrame(l.buf[:0], p)
		if _, _, err = l.appendLocked(e, l.buf, false); err != nil {
			break
		}
	}
	// Commit what was applied on every exit that leaves the log usable: the
	// batches it joined have no leader.
	if len(l.pending) > 0 && l.usableLocked() == nil {
		if serr := l.syncLocked(); serr != nil {
			err = serr
		}
	}
	return events[:l.st.Events-before], err
}
