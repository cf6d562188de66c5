package netserve

import (
	"errors"
	"time"

	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
)

// serveReplication is the primary side of WAL streaming: one goroutine per
// subscribed follower, running a two-state machine.
//
//	CATCH-UP: read batches straight from the segment files (ReadSince)
//	  until the follower is at the tail. A sequence that compaction has
//	  removed forces a full-state resync (chunked Snap frames) instead.
//	LIVE: consume the log's tail subscription. Duplicates (already read
//	  during catch-up) are skipped; a gap — the bounded tail buffer
//	  overflowed because this follower is slow — drops back to CATCH-UP.
//
// The send window (opt.ReplWindow) bounds unacknowledged events in flight;
// a follower that stops acking stalls only this goroutine. The apply loop
// is never blocked: the log's tail publish is non-blocking by construction.
//
// Teardown rides on rstop (closed the moment the connection's read loop
// returns) rather than done, because this goroutine is inflight-counted
// and done only closes after the inflight wait.
func (c *conn) serveReplication(sub rtwire.Subscribe) {
	defer c.inflight.Done()
	l := c.n.be.WAL()
	epoch := c.n.be.Epoch()
	sent := sub.AfterSeq
	acked := sub.AfterSeq
	hb := time.NewTicker(c.n.opt.HeartbeatInterval)
	defer hb.Stop()

	heartbeat := func() {
		c.tryEnqueue(rtwire.Heartbeat{Epoch: epoch, Chronon: c.n.be.Now(), Seq: l.Seq()}.Encode())
	}
	// waitWindow blocks until the unacked backlog fits the send window;
	// false means the connection is tearing down or the follower was
	// evicted for stalling.
	waitWindow := func() bool {
		if !c.awaitAcks(&sent, &acked, hb, heartbeat) {
			return false
		}
		// Fold in any acks already queued without blocking.
		for {
			select {
			case ack := <-c.ackCh:
				if ack > acked {
					acked = ack
				}
			default:
				return true
			}
		}
	}
	sendBatch := func(events []wal.SeqEvent) bool {
		payloads := make([]string, len(events))
		for i, se := range events {
			payloads[i] = string(se.Event.Payload())
		}
		ok := c.sendRepl(rtwire.WalBatch{
			Epoch: epoch, FirstSeq: events[0].Seq, Events: payloads,
		}.Encode())
		if ok {
			c.n.Wire.ReplBatchesOut.Add(1)
			sent = events[len(events)-1].Seq
		}
		return ok && waitWindow()
	}

	for {
		// CATCH-UP: drain the segments until the follower is at the tail.
		events, err := l.ReadSince(sent, c.n.opt.ReplBatch)
		switch {
		case err == nil && len(events) > 0:
			if !sendBatch(events) {
				return
			}
			continue
		case errors.Is(err, wal.ErrSeqCompacted):
			var ok bool
			if sent, ok = c.sendResync(l, epoch); !ok {
				return
			}
			continue
		case errors.Is(err, wal.ErrSeqFuture):
			// The follower claims a longer log than ours: it has history
			// we never wrote (a deposed-primary scenario). Refuse rather
			// than stream a divergent suffix.
			c.tryEnqueue(rtwire.Err{Code: rtwire.CodeStale, Msg: "follower is ahead of this log"}.Encode())
			return
		case err != nil:
			return // log closed or poisoned; the follower will redial
		}

		// LIVE: subscribe first, then re-read once — an append landing
		// between the ReadSince above and the subscription would otherwise
		// be lost.
		tail := l.SubscribeTail(c.n.opt.TailBuffer)
		events, err = l.ReadSince(sent, c.n.opt.ReplBatch)
		if err != nil || len(events) > 0 {
			tail.Close()
			if err != nil && !errors.Is(err, wal.ErrSeqCompacted) {
				return
			}
			continue // deliver via catch-up, then try again
		}
		if !c.liveTail(tail, epoch, &sent, &acked, hb, heartbeat) {
			return
		}
		c.n.Wire.ReplGapRestarts.Add(1)
		// Fell out of live mode on a gap: back to catch-up.
	}
}

// liveTail streams the tail subscription until a gap (false abort reasons
// return false; a gap returns true so the caller re-enters catch-up).
func (c *conn) liveTail(tail *wal.Tail, epoch uint64, sent, acked *uint64, hb *time.Ticker, heartbeat func()) (gap bool) {
	defer tail.Close()
	for {
		select {
		case se, ok := <-tail.C:
			if !ok {
				return false // log closed
			}
			if se.Seq <= *sent {
				continue // duplicate of the catch-up read
			}
			if se.Seq != *sent+1 {
				return true // buffer overflowed: catch up from disk
			}
			batch := []wal.SeqEvent{se}
			// Coalesce whatever else is already buffered, stopping at a
			// gap inside the run.
			contiguous := true
		coalesce:
			for len(batch) < c.n.opt.ReplBatch {
				select {
				case next, ok := <-tail.C:
					if !ok {
						break coalesce
					}
					if next.Seq != batch[len(batch)-1].Seq+1 {
						contiguous = false
						break coalesce
					}
					batch = append(batch, next)
				default:
					break coalesce
				}
			}
			payloads := make([]string, len(batch))
			for i, b := range batch {
				payloads[i] = string(b.Event.Payload())
			}
			if !c.sendRepl(rtwire.WalBatch{
				Epoch: epoch, FirstSeq: batch[0].Seq, Events: payloads,
			}.Encode()) {
				return false
			}
			c.n.Wire.ReplBatchesOut.Add(1)
			*sent = batch[len(batch)-1].Seq
			if !contiguous {
				return true
			}
			if !c.awaitAcks(sent, acked, hb, heartbeat) {
				return false
			}
		case ack := <-c.ackCh:
			if ack > *acked {
				*acked = ack
			}
		case <-hb.C:
			heartbeat()
		case <-c.rstop:
			return false
		case <-c.n.quit:
			return false
		}
	}
}

// sendResync streams a full state dump in chunked Snap frames, returning
// the sequence the dump corresponds to. The follower wipes its log and
// bootstraps from the dump — the only recovery when the events it needs
// were compacted away.
func (c *conn) sendResync(l *wal.Log, epoch uint64) (uint64, bool) {
	events, seq, lastAt := l.DumpState()
	c.n.Wire.ReplResyncs.Add(1)
	for start := 0; start < len(events); start += c.n.opt.ReplBatch {
		end := min(start+c.n.opt.ReplBatch, len(events))
		payloads := make([]string, end-start)
		for i, e := range events[start:end] {
			payloads[i] = string(e.Payload())
		}
		if !c.sendRepl(rtwire.WalBatch{
			Epoch: epoch, Snap: rtwire.SnapPart, Events: payloads,
		}.Encode()) {
			return 0, false
		}
		c.n.Wire.ReplBatchesOut.Add(1)
	}
	if !c.sendRepl(rtwire.WalBatch{
		Epoch: epoch, Snap: rtwire.SnapFinal, SnapSeq: seq, SnapLastAt: lastAt,
	}.Encode()) {
		return 0, false
	}
	c.n.Wire.ReplBatchesOut.Add(1)
	return seq, true
}

// awaitAcks blocks while the unacked backlog exceeds the send window,
// folding in follower acks as they arrive. A follower whose window stays
// full with zero ack progress for ReplStallTimeout is evicted: the read
// loop is interrupted so the whole connection tears down, and the
// follower redials into a fresh catch-up. False means stop streaming —
// teardown, quit, or eviction.
func (c *conn) awaitAcks(sent, acked *uint64, hb *time.Ticker, heartbeat func()) bool {
	if *sent-*acked <= uint64(c.n.opt.ReplWindow) {
		return true
	}
	stall := time.NewTimer(c.n.opt.ReplStallTimeout)
	defer stall.Stop()
	for *sent-*acked > uint64(c.n.opt.ReplWindow) {
		select {
		case ack := <-c.ackCh:
			if ack > *acked {
				*acked = ack
				// Progress: push the eviction horizon out.
				if !stall.Stop() {
					select {
					case <-stall.C:
					default:
					}
				}
				stall.Reset(c.n.opt.ReplStallTimeout)
			}
		case <-hb.C:
			heartbeat()
		case <-stall.C:
			c.n.Wire.ReplStallEvictions.Add(1)
			c.interruptRead()
			return false
		case <-c.rstop:
			return false
		case <-c.n.quit:
			return false
		}
	}
	return true
}

// sendRepl queues one replication frame, aborting on teardown instead of
// on done (see serveReplication).
func (c *conn) sendRepl(frame []byte) bool {
	select {
	case c.writeq <- frame:
		return true
	case <-c.rstop:
		return false
	case <-c.n.quit:
		return false
	}
}
