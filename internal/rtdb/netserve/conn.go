package netserve

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"

	"rtc/internal/rtdb/server"
	"rtc/internal/rtdb/sub"
	"rtc/internal/rtwire"
)

// conn is one live connection bound to one server session.
type conn struct {
	n    *Server
	nc   net.Conn
	br   *bufio.Reader
	sess *server.Session

	// interrupted closes, once, when the connection must stop reading before
	// its client is done — a failed writer, a stalled follower's eviction, a
	// drain. The silence reader checks it after arming each read's deadline.
	interrupted   chan struct{}
	interruptOnce sync.Once

	// writeq is the bounded outgoing frame queue; writeLoop drains it.
	// done closes after every producer is finished (inflight waited), so
	// the writer can drain-and-exit without racing an enqueue.
	writeq chan []byte
	done   chan struct{}
	wdone  chan struct{}

	// wfree recycles outgoing frame buffers: writeLoop returns each buffer
	// once its bytes are on (or in the bufio layer of) the socket, and
	// handlers encode the next response into a recycled one. Bounded at
	// one more than the write queue, so every in-flight frame plus one
	// being encoded can come from the list; overflow falls to the GC.
	wfree chan []byte

	// rstop closes as soon as the read loop returns — before the inflight
	// wait — so the long-running replication sender (which is inflight-
	// counted) has a teardown signal that does not depend on its own exit.
	rstop chan struct{}

	// sem bounds concurrent blocking requests (queries, flushes); the
	// read loop stalls when it is full, pushing backpressure into TCP.
	sem      chan struct{}
	inflight sync.WaitGroup

	// acked is a one-slot token the read loop posts on each booked WalAck to
	// wake the replication sender; repl guards against a second Subscribe.
	acked chan struct{}
	repl  bool

	// subs is the attached subscriptions in attach order. Only the read
	// loop (and handle, once it is gone) changes it, under subMu; writeLoop
	// copies it under subMu before each drain. Every subscription's queue
	// posts its wake tokens to wake (sub.NewQueueWake).
	subMu sync.Mutex
	subs  []connSub
	wake  chan struct{}
}

// interruptRead ends the read loop: a pending Read is unblocked by a
// deadline of now, and the next one — whose re-armed deadline would
// overwrite that, when the loop was parked elsewhere (a full inflight
// semaphore) — sees interrupted closed.
func (c *conn) interruptRead() {
	c.interruptOnce.Do(func() { close(c.interrupted) })
	_ = c.nc.SetReadDeadline(time.Now())
}

// getBuf returns a recycled encode buffer (length 0) or nil; append grows
// a nil slice, so callers just encode into whatever comes back.
func (c *conn) getBuf() []byte {
	select {
	case b := <-c.wfree:
		return b[:0]
	default:
		return nil
	}
}

// putBuf offers a spent frame buffer back to the free list.
func (c *conn) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	select {
	case c.wfree <- b:
	default:
	}
}

// enqueue queues one outgoing frame, blocking until there is room. It is
// used by request handlers, which are allowed to wait on a slow client
// (the apply loop is long done with the request by then); done aborts the
// wait during teardown.
func (c *conn) enqueue(frame []byte) bool {
	select {
	case c.writeq <- frame:
		return true
	case <-c.done:
		return false
	}
}

// tryEnqueue queues one frame without blocking. Best-effort notifications
// (backpressure errors, the drain Bye) use it: under a full queue they are
// dropped and counted rather than stalling the read loop.
func (c *conn) tryEnqueue(frame []byte) bool {
	select {
	case c.writeq <- frame:
		return true
	default:
		c.n.Wire.WriteDrops.Add(1)
		c.putBuf(frame)
		return false
	}
}

// deadlineWriter arms the write deadline where the bytes leave: once per
// socket write rather than once per frame, so WriteTimeout bounds what it
// always bounded — one blocked write — at one timer update per syscall.
type deadlineWriter struct {
	nc      net.Conn
	timeout time.Duration
}

func (w deadlineWriter) Write(p []byte) (int, error) {
	_ = w.nc.SetWriteDeadline(time.Now().Add(w.timeout))
	return w.nc.Write(p)
}

// writeLoop is the connection's only writer and its subscriptions' pump: it
// sleeps on the write queue and on the shared wake channel, copies queued
// frames and drained pushes into one bufio.Writer, and flushes once nothing
// else is pending — a tick fanned out to every subscription on the
// connection is one wake-up and one socket write. Frames are counted one by
// one as they enter the buffer. On done it finishes the queue, then signals
// wdone.
func (c *conn) writeLoop() {
	defer close(c.wdone)
	bw := bufio.NewWriter(deadlineWriter{c.nc, c.n.opt.WriteTimeout})
	write := func(frame []byte) bool {
		if _, err := bw.Write(frame); err != nil {
			return false
		}
		c.n.Wire.FramesOut.Add(1)
		c.n.Wire.BytesOut.Add(uint64(len(frame)))
		return true
	}
	var scratch []byte // every Push is encoded here, then copied into bw
	var subs []connSub
	var tails tickTails
	// drain pops every attached queue dry, stamping each push with the
	// queue's cumulative drop count at pop time, and splices each push's
	// tick tail (tails) behind its own fields. A push that lands behind the
	// sweep has posted a fresh wake token, so nothing is left waiting.
	drain := func() bool {
		c.subMu.Lock()
		subs = append(subs[:0], c.subs...)
		c.subMu.Unlock()
		for _, s := range subs {
			for push, droppedCum, ok := s.ss.Pop(); ok; push, droppedCum, ok = s.ss.Pop() {
				scratch = rtwire.Push{
					ID: s.id, Cursor: push.Cursor, Dropped: droppedCum, Expired: push.Expired,
				}.AppendSpliced(scratch[:0], tails.of(push))
				if !write(scratch) {
					return false
				}
				c.n.Wire.PushesOut.Add(1)
			}
		}
		return true
	}
	for {
		ok := true
		select {
		case frame := <-c.writeq:
			ok = write(frame) // copied or written: the buffer is free again
			c.putBuf(frame)
		case <-c.wake:
			ok = drain()
		case <-c.done:
			// Producers are gone, subscriptions cancelled: finish the queue.
			for ok && len(c.writeq) > 0 {
				ok = write(<-c.writeq)
			}
			if !ok {
				c.discard()
			}
			_ = bw.Flush()
			return
		}
		// Flush once nothing is pending; until then frames share a syscall.
		if ok && len(c.writeq) == 0 && len(c.wake) == 0 {
			ok = bw.Flush() == nil
		}
		if !ok {
			// A client that cannot absorb frames within WriteTimeout is dead
			// weight: count it and interrupt the read loop so the whole
			// connection tears down now, not at the silence bound. Until handle
			// cancels them its subscriptions cost only their own queues.
			c.n.Wire.WriteTimeouts.Add(1)
			c.interruptRead()
			c.discard()
			return
		}
	}
}

// tickTails holds the encoded tails (rtwire.Push.AppendTail) of the ticks a
// writer delivered last. The members of one group's tick carry one answers
// slice and, under equal envelopes, equal fields from Useful on, so the tail
// is encoded once per tick and spliced behind each member's own fields. A
// slot keeps the push it was encoded from, answers slice included: the
// slice's address is part of the key, and the slot holding the slice is
// what stops the collector from handing that address to another slice
// while the slot can still match it.
//
// The writer drains queue by queue, so every tick a drain covers is met
// once per member: the slots are sized for the ticks of one drain (a
// sub_fanout round queues about ten), and lookups compare Issue first,
// which tells ticks of one group apart at once. Past that many ticks a
// lookup misses and the tail is encoded again, as before the memo.
type tickTails struct {
	slots [16]tailSlot
	next  int
}

type tailSlot struct {
	key  sub.Push
	tail []byte // nil: the slot is empty
}

// of returns the tail of p's frame, encoding it only when no slot holds it.
func (t *tickTails) of(p sub.Push) []byte {
	for i := range t.slots {
		if s := &t.slots[i]; s.tail != nil && sameTail(s.key, p) {
			return s.tail
		}
	}
	s := &t.slots[t.next]
	t.next = (t.next + 1) % len(t.slots)
	s.key = p
	s.tail = rtwire.Push{
		Useful: p.Useful, Missed: p.Missed, Evaluated: p.Evaluated, Degraded: p.Degraded,
		Issue: p.Issue, Served: p.Served, Answers: p.Answers,
	}.AppendTail(s.tail[:0])
	return s.tail
}

// sameTail reports whether two pushes encode to one tail: equal scalar
// fields and the same answers slice — one evaluation's, which nobody writes
// once the apply loop has put it in the queues.
func sameTail(a, b sub.Push) bool {
	return a.Issue == b.Issue && a.Served == b.Served && a.Useful == b.Useful &&
		a.Missed == b.Missed && a.Evaluated == b.Evaluated && a.Degraded == b.Degraded &&
		len(a.Answers) == len(b.Answers) && (len(a.Answers) == 0 || &a.Answers[0] == &b.Answers[0])
}

// discard keeps draining the queue after a write error so producers
// blocked in enqueue never wedge on a dead socket.
func (c *conn) discard() {
	for {
		select {
		case <-c.writeq:
			c.n.Wire.WriteDrops.Add(1)
		case <-c.done:
			// Producers are gone; whatever is left is dropped with the conn.
			c.n.Wire.WriteDrops.Add(uint64(len(c.writeq)))
			return
		}
	}
}

// readLoop consumes the connection's timed word frame by frame until the
// client says Bye, the connection dies, the idle timeout fires, or the
// server drains (sr, under c.br, sees the last two).
func (c *conn) readLoop(sr *rtwire.SilenceReader) {
	// One payload buffer for the connection's lifetime: Decode copies the
	// field strings out, so the next frame may overwrite it.
	var rbuf []byte
	for {
		sr.Next()
		f, err := rtwire.ReadFrameBuf(c.br, &rbuf)
		if err != nil {
			if rtwire.IsProtocolError(err) {
				c.n.Wire.DecodeErrors.Add(1)
				if rtwire.IsCorruptFrame(err) {
					// Byte damage (not a mid-frame cut): the CRC or framing
					// caught it. The connection resets — boundaries are gone.
					c.n.Wire.CorruptFrames.Add(1)
				}
			}
			return
		}
		c.n.Wire.FramesIn.Add(1)
		c.n.Wire.BytesIn.Add(uint64(rtwire.HeaderSize + len(f.Payload)))
		if !c.dispatch(f) {
			return
		}
	}
}

// dispatch handles one frame; false ends the connection. The kinds a loaded
// connection is made of decode into stack values; the rest share Decode. A
// sample's image decodes to the server's catalog string when it names one.
func (c *conn) dispatch(f rtwire.Frame) bool {
	var err error
	switch f.Kind {
	case rtwire.KindSample:
		var m rtwire.Sample
		if m, err = rtwire.DecodeSample(f, c.n.srv.ImageName); err == nil {
			return c.onSample(m)
		}
	case rtwire.KindQuery:
		var m rtwire.Query
		if m, err = rtwire.DecodeQuery(f); err == nil {
			c.n.Wire.QueriesIn.Add(1)
			return c.serve(func() { c.serveQuery(m) })
		}
	case rtwire.KindFlush:
		var m rtwire.Flush
		if m, err = rtwire.DecodeFlush(f); err == nil {
			return c.serve(func() { c.serveFlush(m) })
		}
	default:
		var msg any
		if msg, err = rtwire.Decode(f); err == nil {
			return c.onMessage(f.Kind, msg)
		}
	}
	c.n.Wire.DecodeErrors.Add(1)
	c.tryEnqueue(rtwire.Err{Code: rtwire.CodeBadRequest, Msg: err.Error()}.AppendTo(c.getBuf()))
	return true
}

// serve runs one blocking request (a query, a flush) on its own goroutine
// once the connection has an inflight slot; false means teardown began
// while waiting for one.
func (c *conn) serve(request func()) bool {
	select {
	case c.sem <- struct{}{}:
	case <-c.done:
		return false
	}
	c.inflight.Add(1)
	go func() {
		defer c.inflight.Done()
		defer func() { <-c.sem }()
		request()
	}()
	return true
}

// refusal encodes the Err frame for a request the server turned down
// (DESIGN.md §9): server.ErrBackpressure is CodeBackpressure and
// server.ErrReadOnly — a follower's refusal — CodeReadOnly, and the
// connection carries on after either; anything else (server.ErrClosed) is
// CodeClosed and fatal: no later request on this connection can survive it.
func (c *conn) refusal(id uint64, err error) (frame []byte, fatal bool) {
	e := rtwire.Err{ID: id, Code: rtwire.CodeClosed, Msg: err.Error()}
	if errors.Is(err, server.ErrReadOnly) {
		e.Code = rtwire.CodeReadOnly
	} else if err == server.ErrBackpressure {
		// The server accounted the rejection (and the miss, for a
		// deadline-carrying query); tell the client explicitly.
		c.n.Wire.BackpressureFrames.Add(1)
		e.Code, e.Msg = rtwire.CodeBackpressure, "session queue full"
	}
	return e.AppendTo(c.getBuf()), e.Code == rtwire.CodeClosed
}

func (c *conn) onSample(m rtwire.Sample) bool {
	c.n.Wire.SamplesIn.Add(1)
	if err := c.sess.InjectSample(m.Image, m.Value); err != nil {
		frame, fatal := c.refusal(m.ID, err)
		c.tryEnqueue(frame)
		return !fatal
	}
	return true
}

func (c *conn) serveFlush(m rtwire.Flush) {
	if err := c.sess.Flush(); err != nil {
		frame, _ := c.refusal(m.ID, err)
		c.enqueue(frame)
		return
	}
	c.enqueue(rtwire.Flushed{ID: m.ID, Chronon: c.n.srv.Now()}.AppendTo(c.getBuf()))
}

// onMessage handles the kinds dispatch decoded through Decode.
func (c *conn) onMessage(kind rtwire.Kind, msg any) bool {
	switch m := msg.(type) {
	case rtwire.AsOf:
		c.n.Wire.AsOfReads.Add(1)
		v, ok, horizon := c.n.srv.AsOfValue(m.Image, m.At)
		c.enqueue(rtwire.AsOfResult{ID: m.ID, OK: ok, Value: v, Horizon: horizon}.AppendTo(c.getBuf()))
	case rtwire.MetricsReq:
		var rows []rtwire.MetricPair
		if c.n.opt.Shards > 1 {
			// A shard listener's identity leads; the rows after it keep the
			// names tooling resolves them by.
			rows = append(rows, rtwire.MetricPair{Name: "shard", Value: uint64(c.n.opt.Shard)},
				rtwire.MetricPair{Name: "shards", Value: uint64(c.n.opt.Shards)})
		}
		rows = append(rows, c.n.srv.MetricsSnapshot().Pairs()...)
		rows = append(rows, c.n.Wire.Snapshot().Pairs()...)
		rows = c.n.srv.AppendDurabilityRows(rows, c.n.ReplDurable())
		c.enqueue(rtwire.Metrics{ID: m.ID, Pairs: rows}.AppendTo(c.getBuf()))
	case rtwire.Subscribe:
		if c.repl {
			c.tryEnqueue(rtwire.Err{Code: rtwire.CodeBadRequest, Msg: "already subscribed"}.AppendTo(c.getBuf()))
			return true
		}
		if c.n.srv.WAL() == nil {
			c.tryEnqueue(rtwire.Err{Code: rtwire.CodeBadRequest, Msg: "replication unavailable: this node serves no wal"}.AppendTo(c.getBuf()))
			return true
		}
		c.repl = true
		c.inflight.Add(1)
		go c.serveReplication(m)
	case rtwire.WalAck:
		c.n.replAck(c, m.Seq)
		select {
		case c.acked <- struct{}{}:
		default: // a token is already waiting; the sender reads the registry
		}
	case rtwire.SubOpen:
		spec, expired := translateSub(m.Query, m.Period, m.Kind, m.Deadline, m.Elapsed, m.MinUseful, m.Decay)
		c.subAttach(m.ID, spec, expired, int(m.Depth), 0)
	case rtwire.SubResume:
		spec, expired := translateSub(m.Query, m.Period, m.Kind, m.Deadline, m.Elapsed, m.MinUseful, m.Decay)
		c.subAttach(m.ID, spec, expired, int(m.Depth), m.AfterCursor)
	case rtwire.SubCancel:
		c.subCancel(m.ID)
	case rtwire.Heartbeat:
		c.n.Wire.HeartbeatsIn.Add(1)
		// A client may rely on the echoed Seq surviving this node's death.
		c.tryEnqueue(rtwire.Heartbeat{
			Epoch: c.n.srv.Epoch(), Chronon: c.n.srv.Now(), Seq: c.n.heartbeatSeq(),
		}.AppendTo(c.getBuf()))
	case rtwire.Bye:
		return false
	default:
		c.tryEnqueue(rtwire.Err{Code: rtwire.CodeBadRequest, Msg: "unexpected " + kind.String()}.AppendTo(c.getBuf()))
	}
	return true
}

// serveQuery translates the wire deadline envelope and runs the query
// through this connection's session. An expired-on-arrival query is
// accounted as a miss through the server's metrics block — never
// evaluated, never silently dropped — and answered with a missed Result
// so the client's picture matches the server's books.
func (c *conn) serveQuery(m rtwire.Query) {
	qr, expired := Translate(m)
	if expired {
		c.n.srv.Metrics.AccountExpired()
		c.n.Wire.ExpiredOnArrival.Add(1)
		now := c.n.srv.Now()
		c.enqueue(rtwire.Result{
			ID: m.ID, Missed: true, Evaluated: false,
			Issue: now, Served: now, ExpiredOnArrival: true,
		}.AppendTo(c.getBuf()))
		return
	}
	resp, err := c.sess.Query(qr)
	if err != nil {
		frame, _ := c.refusal(m.ID, err)
		c.enqueue(frame)
		return
	}
	c.enqueue(rtwire.Result{
		ID: m.ID, Answers: resp.Answers, Match: resp.Match,
		Useful: resp.Useful, Missed: resp.Missed, Evaluated: resp.Evaluated,
		Issue: resp.Issue, Served: resp.Served,
	}.AppendTo(c.getBuf()))
}
