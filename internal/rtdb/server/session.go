package server

import (
	"sync"

	"rtc/internal/deadline"
)

// replyPool recycles the one-slot response channels await blocks on. A
// channel is returned to the pool only after its response has been received
// — a request abandoned on server shutdown keeps its channel, so a late send
// can never leak into the next borrower's call.
var replyPool = sync.Pool{
	New: func() any { return make(chan Response, 1) },
}

// await waits for the apply loop's answer on reply; ErrClosed if it stops.
func (s *Server) await(reply chan Response) (Response, error) {
	select {
	case resp := <-reply:
		replyPool.Put(reply)
		return resp, nil
	case <-s.quit:
		return Response{}, ErrClosed
	}
}

// Session is one client's handle on the server: a queue of at most
// QueueDepth requests, from which the apply loop takes one per pass. A full
// queue rejects at once (reject-with-deadline-miss) rather than block, so
// firm-deadline semantics survive overload.
type Session struct {
	id    int
	label string // "s<id>", the session's name in WAL query records
	srv   *Server
	queue chan request
}

// trySubmit enqueues without blocking and wakes the apply loop.
func (c *Session) trySubmit(r request) bool {
	if c.srv.closed.Load() {
		return false
	}
	select {
	case c.queue <- r:
		if c.srv.closed.Load() { // Stop may have emptied the queue already
			c.srv.refuseQueued(c)
		}
		c.srv.wake()
		return true
	default:
		return false
	}
}

// InjectSample submits one sensor sample for an image object. It is
// asynchronous: the sample is applied by the server's apply loop. A full
// queue returns ErrBackpressure; a follower refuses every sample with
// ErrReadOnly.
func (c *Session) InjectSample(image, value string) error {
	if c.srv.closed.Load() {
		return ErrClosed
	}
	if c.srv.following.Load() {
		c.srv.Metrics.SamplesRejected.Add(1)
		return ErrReadOnly
	}
	c.srv.Metrics.SamplesIn.Add(1)
	r := request{kind: reqSample, session: c.id, image: image, value: value}
	if !c.trySubmit(r) {
		c.srv.Metrics.SamplesIn.Add(^uint64(0)) // undo: never entered a queue
		c.srv.Metrics.SamplesRejected.Add(1)
		return ErrBackpressure
	}
	return nil
}

// Query submits one aperiodic query, issued at the server's clock as it
// stands now, and blocks for the response. A full queue rejects immediately
// with ErrBackpressure. A follower's clock moves only with the replication
// stream, so it refuses a firm deadline with ErrReadOnly — and every query
// when its database is incomplete — and serves the rest degraded. Either
// rejection of a deadline-carrying query is accounted as a deadline miss
// (never silently dropped).
func (c *Session) Query(q QueryRequest) (Response, error) {
	if c.srv.closed.Load() {
		return Response{}, ErrClosed
	}
	c.srv.Metrics.QueriesIn.Add(1)
	r := request{kind: reqQuery, session: c.id, q: q, issue: c.srv.Now()}
	var refused error
	if c.srv.following.Load() {
		r.degraded = true
		if q.Kind == deadline.Firm || c.srv.incomplete.Load() {
			refused = ErrReadOnly
		}
	}
	if refused == nil {
		r.reply = replyPool.Get().(chan Response)
		if c.trySubmit(r) {
			return c.srv.await(r.reply)
		}
		replyPool.Put(r.reply)
		refused = ErrBackpressure
	}
	c.srv.Metrics.accountRejected(q.Kind)
	return Response{Missed: q.Kind != deadline.None, Issue: r.issue}, refused
}

// Flush blocks until everything this session enqueued before it has been
// applied.
func (c *Session) Flush() error {
	if c.srv.closed.Load() {
		return ErrClosed
	}
	return c.srv.roundTrip(c.queue, request{kind: reqBarrier, session: c.id})
}
