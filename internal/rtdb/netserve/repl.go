package netserve

import (
	"errors"
	"time"

	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
)

// serveReplication is the primary side of WAL streaming: one goroutine per
// subscribed follower, running one loop over one source — the segment files,
// read through a position this goroutine owns.
//
//	read  the payloads of up to ReplBatch events after the position (ReadFrom)
//	ship  them, as framed, in one WalBatch
//	wait  while the unacknowledged backlog exceeds the send window
//	sleep when the read came back empty, until the log's shippable tail
//	      moves (Advanced) — then read again
//
// with one refusal: a position this log cannot extend — past its tail
// (ErrSeqFuture: history this node never wrote) or behind what is still
// readable (ErrSeqCompacted) — is answered with Err{CodeStale} and the log's
// error text. Only a position the first read accepted enters the durability
// registry, until the loop ends, so a refused follower never moves
// ReplDurable. Under group commit the shippable tail is the durable tail, so
// the read that follows a release returns that commit batch and it ships as
// one frame.
//
// The send window (opt.ReplWindow) bounds unacknowledged events in flight,
// as the durability registry books them (replAck); a follower that stops
// acking stalls only this goroutine. The apply loop is never blocked: an
// append closes a channel, and a read takes the log's mutex to find its
// place, not while it reads. The sender keeps no clock: an idle link lives
// on the follower client's own beacons, which the read loop echoes.
//
// Teardown rides on rstop (closed the moment the connection's read loop
// returns) rather than done, because this goroutine is inflight-counted
// and done only closes after the inflight wait.
func (c *conn) serveReplication(sub rtwire.Subscribe) {
	defer c.inflight.Done()
	l := c.n.srv.WAL()
	epoch := c.n.srv.Epoch()
	pos := wal.ReadPos{Seq: sub.AfterSeq} // pos.Seq is the last sequence sent
	registered := false
	defer func() {
		if registered {
			c.n.replForget(c)
		}
	}()
	for {
		first := pos.Seq + 1
		payloads, err := l.ReadFrom(&pos, c.n.opt.ReplBatch)
		switch {
		case errors.Is(err, wal.ErrSeqFuture), errors.Is(err, wal.ErrSeqCompacted):
			// Refuse rather than ship a divergent suffix or a hole.
			c.tryEnqueue(rtwire.Err{Code: rtwire.CodeStale, Msg: err.Error()}.Encode())
			return
		case err != nil:
			return // log closed or poisoned; the follower will redial
		case !registered: // the first read accepted the follower's position
			c.n.replSubscribe(c, sub.AfterSeq)
			registered = true
		}
		if len(payloads) > 0 {
			if !c.sendRepl(rtwire.WalBatch{
				Epoch: epoch, FirstSeq: first, Events: payloads,
			}.Encode()) {
				return
			}
			c.n.Wire.ReplBatchesOut.Add(1)
			if !c.awaitAcks(pos.Seq) {
				return
			}
			continue
		}
		// Caught up. Advanced is already closed if an append slipped in
		// after the read above, so no wake-up is lost.
		select {
		case <-l.Advanced(pos.Seq):
		case <-c.rstop:
			return
		case <-c.n.quit:
			return
		}
	}
}

// awaitAcks blocks while the follower's unacked backlog — sent less what
// the registry holds for this link — exceeds the send window, looking again
// each time the read loop posts an ack token. A follower whose window stays
// full with zero ack progress for ReplStallTimeout is evicted: the read loop
// is interrupted so the whole connection tears down, and the follower
// redials into a fresh catch-up. False means stop streaming — teardown,
// quit, or eviction.
func (c *conn) awaitAcks(sent uint64) bool {
	acked := c.n.replAckedBy(c)
	if sent-acked <= uint64(c.n.opt.ReplWindow) {
		return true
	}
	stall := time.NewTimer(c.n.opt.ReplStallTimeout)
	defer stall.Stop()
	for sent-acked > uint64(c.n.opt.ReplWindow) {
		select {
		case <-c.acked:
			if a := c.n.replAckedBy(c); a > acked {
				acked = a
				// Progress: push the eviction horizon out.
				if !stall.Stop() {
					select {
					case <-stall.C:
					default:
					}
				}
				stall.Reset(c.n.opt.ReplStallTimeout)
			}
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
