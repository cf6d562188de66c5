package log

// Group commit: leader-based fsync batching.
//
// With Options.Sync set and Options.GroupWindow > 0, an append writes and
// applies its frame immediately (under the log mutex, preserving the
// validate → write → apply order) but defers the fsync: the append joins
// the open commit batch and receives a Ticket. The first append to open a
// batch is its leader; the leader waits out the commit window (or an early
// close: batch full, a firm append, or CloseWindow), then issues ONE fsync
// and releases every ticket written so far. Because a segment fsync covers
// every frame written before it, any successful fsync — a leader's commit,
// an explicit Sync, a segment rotation, a snapshot's segment-first fsync —
// releases ALL pending batches, in sequence order.
//
// Failure semantics are whole-batch: every path that poisons the log
// (fsync failure, unhealable torn append, failed rotation) releases every
// pending ticket with the poison error. A ticket therefore always
// resolves; it resolves nil only after the fsync that covers its frame
// succeeded.
//
// The shippable tail moves with durability: in grouped mode ReadFrom serves
// nothing past the newest fsynced sequence, and every release wakes the
// readers waiting in Advanced, so a follower's sender reads a commit batch
// the moment its fsync lands — whole batches ship, and the follower's fsync
// cadence matches the primary's.

import (
	"errors"
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
// error). A ticket from an ungrouped append (per-append fsync, or Sync
// off) is born resolved.
type Ticket struct {
	b   *batch
	seq uint64
	err error
}

// Seq returns the appended event's WAL sequence number.
func (t *Ticket) Seq() uint64 { return t.seq }

// Wait blocks until the ticket resolves and returns its commit outcome.
func (t *Ticket) Wait() error {
	if t.b == nil {
		return t.err
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

// grouped reports whether appends batch their fsyncs.
func (l *Log) grouped() bool { return l.opts.Sync && l.opts.GroupWindow > 0 }

// AppendTicket appends one event and returns its commit ticket without
// waiting for durability — the asynchronous form of Append for callers
// (the server's apply loop) that must never block on the commit window.
// firm seals the open batch so the fsync happens as soon as the leader
// wakes, not at the end of the window — the §4.1 escape hatch that keeps
// firm-deadline acks off the window's tail latency. In ungrouped modes the
// returned ticket is born resolved.
func (l *Log) AppendTicket(e Event, firm bool) (*Ticket, error) {
	l.mu.Lock()
	if !l.grouped() {
		defer l.mu.Unlock()
		if err := l.appendUngroupedLocked(e); err != nil {
			return nil, err
		}
		return &Ticket{seq: l.st.Events}, nil
	}
	t, lead, err := l.appendGroupedLocked(e, firm)
	l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if lead {
		go l.lead(t.b)
	}
	return t, nil
}

// appendGroupedLocked writes and applies one event, joins it to the open
// commit batch, and runs the post-append housekeeping (rotation,
// auto-snapshot). lead reports that this append opened the batch and the
// caller must run (or spawn) its leader.
func (l *Log) appendGroupedLocked(e Event, firm bool) (t *Ticket, lead bool, err error) {
	if err := l.writeApplyLocked(e); err != nil {
		return nil, false, err
	}
	// Join before housekeeping: if rotation or an auto-snapshot fsyncs the
	// segment below, this event is covered and its ticket releases there.
	t, lead = l.joinBatchLocked(firm)
	if err := l.maintainLocked(); err != nil {
		// The poison released every pending ticket (including this one)
		// with the error; the append itself fails the same way.
		return nil, false, err
	}
	return t, lead, nil
}

// joinBatchLocked adds the event just applied to the open commit batch
// (opening a new one if needed) and returns its ticket. firm — or a full
// batch — seals the window.
func (l *Log) joinBatchLocked(firm bool) (*Ticket, bool) {
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
	return &Ticket{b: b, seq: l.st.Events}, lead
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
	timer := time.NewTimer(l.opts.GroupWindow)
	select {
	case <-b.early:
	case <-b.done:
	case <-timer.C:
	}
	timer.Stop()
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
// fsynced. It equals Seq() after any successful Sync; in group-commit mode
// the tail may transiently run ahead of it by at most the open window's
// events.
func (l *Log) DurableSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableSeq
}

// AppendBatch appends a slice of events paying ONE fsync for the whole
// batch — the follower-side mirror of a primary's group commit, used by
// the replica so its fsync cadence matches the shipped batch cadence
// instead of per-event. Events are validated, written, and applied one by
// one (rotation and auto-snapshots run between them as usual); the single
// fsync at the end releases them — and any batches already pending — in
// sequence order. It returns how many events were written and applied:
// on a mid-batch error the prefix [0,applied) is in the log's state (the
// caller's server must absorb exactly that prefix); on an fsync failure
// applied covers the whole slice but the error reports the poison.
func (l *Log) AppendBatch(events []Event) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return 0, err
	}
	applied := 0
	for _, e := range events {
		if err := l.writeApplyLocked(e); err != nil {
			return applied, err
		}
		if l.opts.Sync {
			l.joinBatchLocked(false)
		} else {
			l.advancedLocked()
		}
		applied++
		if err := l.maintainLocked(); err != nil {
			return applied, err
		}
	}
	if l.opts.Sync && len(l.pending) > 0 {
		if err := l.syncLocked(); err != nil {
			return applied, err
		}
	}
	return applied, nil
}
