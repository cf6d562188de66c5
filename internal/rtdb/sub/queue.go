package sub

import "sync"

// Queue is one subscriber's bounded delivery queue: a FIFO ring of stamped
// pushes between the apply loop (Put) and the transport pump (Pop). When
// the ring is full, Put discards the oldest queued push — the head, which
// holds the minimum queued cursor — and counts it. Dropping from the head
// is what keeps the cursor audit linear: by the time any push is delivered,
// every smaller cursor has already been delivered, dropped, or expired, so
// the cumulative counters reported alongside a push fully explain the gap
// below it.
type Queue struct {
	mu      sync.Mutex
	buf     []Push
	head, n int
	dropped uint64
	closed  bool
	notify  chan struct{}
}

// NewQueue builds a queue holding at most depth pushes (DefaultDepth when the
// caller names none), with a wake channel of its own.
func NewQueue(depth int) *Queue { return NewQueueWake(depth, nil) }

// NewQueueWake is NewQueue for a transport that drains many queues from one
// goroutine: the queue posts its wake tokens to the caller's channel (which
// must be buffered; nil makes a private one), so a tick fanned out to every
// queue sharing it costs the consumer one wake-up. A token then says "some
// queue on this channel has something", not which: the consumer pops them
// all.
func NewQueueWake(depth int, wake chan struct{}) *Queue {
	if depth < 1 {
		depth = DefaultDepth
	}
	if wake == nil {
		wake = make(chan struct{}, 1)
	}
	return &Queue{buf: make([]Push, depth), notify: wake}
}

// Put enqueues p, discarding the oldest queued push if the ring is full.
// It reports whether a push was discarded — by overflow, or because the
// queue is already closed (then p itself is the casualty) — so the caller
// can account every casualty as dropped and keep BOOK-pushes closed
// through teardown races.
func (q *Queue) Put(p Push) (dropped bool) {
	q.mu.Lock()
	if q.closed {
		q.dropped++
		q.mu.Unlock()
		return true
	}
	if q.n == len(q.buf) {
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		q.dropped++
		dropped = true
	}
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
	return dropped
}

// Pop dequeues the oldest push. droppedCum is the queue's cumulative drop
// count at the moment of the pop — the value the transport stamps into the
// outgoing frame, so the client's audit covers every drop that happened
// before this push left the server. ok is false when the queue is empty.
func (q *Queue) Pop() (p Push, droppedCum uint64, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return Push{}, q.dropped, false
	}
	p = q.buf[q.head]
	q.buf[q.head] = Push{} // release answer slices
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p, q.dropped, true
}

// Notify returns the wake channel: Put and Close each post one token (if
// none is pending), so a pump can sleep on it and drain on wake. For a queue
// built by NewQueueWake it is the shared channel.
func (q *Queue) Notify() <-chan struct{} { return q.notify }

// Len returns the number of queued pushes.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Dropped returns the cumulative drop count.
func (q *Queue) Dropped() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}

// Close discards everything still queued and returns how many pushes it
// discarded (already added to the cumulative drop count); later Puts count
// themselves as dropped. The caller accounts the discards so undelivered
// ticks stay visible in the server's books at teardown.
func (q *Queue) Close() (discarded int) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0
	}
	q.closed = true
	discarded = q.n
	q.dropped += uint64(q.n)
	for i := range q.buf {
		q.buf[i] = Push{}
	}
	q.head, q.n = 0, 0
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
	return discarded
}
