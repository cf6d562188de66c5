package netserve

import (
	"errors"
	"slices"

	"rtc/internal/deadline"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtdb/sub"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// This file puts standing queries on the wire. A SubOpen (or SubResume)
// frame attaches one subscription to the connection's server: the envelope
// is translated once through the same remaining = D−E / shifted-decay rule
// as aperiodic queries, the server admits or refuses it, and an admitted
// subscription joins the connection's list: its bounded delivery queue posts
// its wake tokens to the connection's one wake channel, and writeLoop drains
// every queue into the socket as Push frames — no goroutine per subscription.
//
// Delivery accounting stays exact across the hop: the writer stamps each
// frame with the queue's cumulative drop count at pop time, and every
// teardown path — SubCancel, connection loss, server drain — closes the
// queue and books whatever was still parked in it as dropped, so
// BOOK-pushes holds over TCP exactly as it does in process. A client that
// stops reading stalls the writer, not the apply loop: its queues drop
// oldest, counted.
//
// Ordering: pushes of one subscription leave in cursor order. The admitting
// SubAck is enqueued before the writer can see the subscription, so it
// precedes the first Push. A closing SubAck is enqueued after the queue is
// closed, and the writer puts every push on the wire as it pops it, so no
// push of that attachment follows the ack.

// translateSub maps a subscription's client-relative per-tick envelope onto
// the server's chronon frame by the aperiodic path's rule. expired means the
// envelope is dead on arrival — every tick of the subscription would be
// expired before it started — and the subscription must be refused, not
// attached.
func translateSub(query string, period timeseq.Time, kind deadline.Kind,
	dl, elapsed timeseq.Time, minUseful uint64, decay rtwire.Decay) (sub.Spec, bool) {
	env := translateEnvelope(kind, dl, elapsed, minUseful, decay)
	return sub.Spec{
		Query: query, Period: period, Kind: kind,
		Deadline: env.Deadline, MinUseful: minUseful, U: env.U,
	}, !env.Admissible(env.Score(0))
}

// connSub is one subscription attached to a connection: the client-chosen
// id its Push frames carry and the server's handle the writer pops.
type connSub struct {
	id uint64
	ss *server.ServerSub
}

// subIndex finds an attached subscription by id; -1 when there is none. Only
// the read loop changes c.subs, so it reads without the lock.
func (c *conn) subIndex(id uint64) int {
	return slices.IndexFunc(c.subs, func(s connSub) bool { return s.id == id })
}

// subAttach admits one SubOpen/SubResume: duplicate ids are a protocol
// error, a refused envelope answers with a refused SubAck (no attachment) —
// or with Err/CodeReadOnly when a follower takes no such envelope —
// an admitted one acks the cursor base and becomes visible to the writer.
func (c *conn) subAttach(id uint64, spec sub.Spec, expired bool, depth int, after uint64) {
	c.n.Wire.SubsIn.Add(1)
	if c.subIndex(id) >= 0 {
		c.tryEnqueue(rtwire.Err{ID: id, Code: rtwire.CodeBadRequest, Msg: "subscription id already in use"}.AppendTo(c.getBuf()))
		return
	}
	if !expired {
		ss, err := c.n.srv.SubscribeWake(spec, after, depth, c.wake)
		if errors.Is(err, server.ErrReadOnly) {
			frame, _ := c.refusal(id, err)
			c.enqueue(frame)
			return
		}
		if err == nil {
			c.enqueue(rtwire.SubAck{
				ID: id, State: rtwire.SubAdmitted, Cursor: after, Chronon: c.n.srv.Now(),
			}.AppendTo(c.getBuf()))
			c.subMu.Lock()
			c.subs = append(c.subs, connSub{id: id, ss: ss})
			c.subMu.Unlock()
			// A tick may have landed, and its token been spent on a sweep,
			// before the writer could see the subscription: post one more.
			select {
			case c.wake <- struct{}{}:
			default:
			}
			return
		}
	}
	c.enqueue(rtwire.SubAck{
		ID: id, State: rtwire.SubRefused, Cursor: after, Chronon: c.n.srv.Now(),
	}.AppendTo(c.getBuf()))
}

// subCancel detaches one subscription. Cancel closes the delivery queue
// (accounting its leftovers as dropped), so the writer pops nothing more
// from it; the closing SubAck carries the last assigned cursor so the
// client can resume later without a gap.
func (c *conn) subCancel(id uint64) {
	i := c.subIndex(id)
	if i < 0 {
		c.tryEnqueue(rtwire.Err{ID: id, Code: rtwire.CodeBadRequest, Msg: "unknown subscription"}.AppendTo(c.getBuf()))
		return
	}
	ss := c.subs[i].ss
	c.subMu.Lock()
	c.subs = slices.Delete(c.subs, i, i+1)
	c.subMu.Unlock()
	last, _ := ss.Cancel()
	c.enqueue(rtwire.SubAck{
		ID: id, State: rtwire.SubClosed, Cursor: last, Chronon: c.n.srv.Now(),
	}.AppendTo(c.getBuf()))
}

// subTeardown cancels whatever is still attached once the read loop is
// gone, so everything still queued is accounted dropped.
func (c *conn) subTeardown() {
	c.subMu.Lock()
	subs := c.subs
	c.subs = nil
	c.subMu.Unlock()
	for _, s := range subs {
		_, _ = s.ss.Cancel()
	}
}
