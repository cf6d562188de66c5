package client

import (
	"errors"
	"fmt"
	"sync"

	"rtc/internal/deadline"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// Standing queries: Subscribe registers a periodic query once and the
// server pushes every tick's stamped result back over the connection. The
// client's job is continuity — each push carries a monotone cursor, the
// client remembers the newest one it has seen, and when the connection
// dies it walks the failover ring and re-attaches with SubResume(cursor),
// so delivery continues at cursor+1 on whichever node answers: no
// acknowledged tick is replayed, no skipped tick goes uncounted (drops and
// expiries arrive as cumulative tallies in the pushes themselves).
//
// Flow control is two-staged: the server's bounded queue drops oldest (the
// counted, resumable kind of loss), and the client's channel buffer drops
// newest locally when the consumer lags (counted in LocalDrops — the
// cursor still advances, so a resume never replays what was dropped here).

// ErrSubRefused: the server refused the subscription (unknown query, dead
// envelope, or an inadmissible schedule).
var ErrSubRefused = errors.New("client: subscription refused")

// SubSpec describes one standing query.
type SubSpec struct {
	Query  string
	Period timeseq.Time
	Kind   deadline.Kind
	// Deadline is relative to each tick's issue instant.
	Deadline  timeseq.Time
	MinUseful uint64
	Decay     rtwire.Decay
	// Depth bounds the server-side delivery queue (0: server default).
	Depth uint64
	// Buffer sizes the client-side push channel (default 16).
	Buffer int
}

// Push is one delivered tick of a standing query. Dropped and Expired are
// cumulative for the current attachment, so a consumer can audit delivery:
// received == Cursor − resume base − Dropped − Expired − LocalDrops.
type Push struct {
	Cursor  uint64
	Dropped uint64
	Expired uint64
	Useful  uint64
	Missed  bool
	// Evaluated is false only for degraded placeholders.
	Evaluated bool
	// Degraded marks a push served by a hot standby from replicated state.
	Degraded      bool
	Issue, Served timeseq.Time // server chronons
	// Answers is read-only: pushes with equal answers, of one subscription
	// or of several on the connection, may share one slice.
	Answers []string
}

// Subscription is one attached standing query. Read pushes from Pushes();
// the channel closes when the subscription ends (Close, a refused resume,
// or client shutdown) and Err then reports why.
type Subscription struct {
	c    *Client
	spec SubSpec
	ch   chan Push

	mu         sync.Mutex
	wireID     uint64 // id of the current attachment's frames
	cursor     uint64 // newest cursor seen; the resume point
	received   uint64
	localDrops uint64
	// dropped/expired mirror the newest push's cumulative tallies — kept
	// even when the push itself is shed locally, so the delivery audit
	// stays closable through consumer lag.
	dropped  uint64
	expired  uint64
	resuming bool
	closed   bool
	err      error
}

// Subscribe registers a standing query and waits for the server's
// admission ack. On connection loss the client re-attaches the
// subscription automatically with the newest cursor it holds.
func (c *Client) Subscribe(spec SubSpec) (*Subscription, error) {
	if spec.Buffer <= 0 {
		spec.Buffer = 16
	}
	s := &Subscription{c: c, spec: spec, ch: make(chan Push, spec.Buffer)}
	// Hold the resume guard through the initial attach so a connection
	// death mid-handshake cannot spawn a concurrent resume for a
	// subscription the caller will be told failed.
	s.mu.Lock()
	s.resuming = true
	s.mu.Unlock()
	err := c.attach(s, false)
	s.mu.Lock()
	s.resuming = false
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// attach sends a SubOpen (fresh) or SubResume (after a reconnect) under a
// new wire id and waits for the ack. The subscription is registered in the
// dispatch map before the frame goes out, so the first push cannot slip
// past the read loop.
func (c *Client) attach(s *Subscription, resume bool) error {
	id := c.nextID()
	sp := s.spec
	var frame func([]byte) []byte
	if resume {
		frame = rtwire.SubResume{
			ID: id, Query: sp.Query, Period: sp.Period, Kind: sp.Kind,
			Deadline: sp.Deadline, MinUseful: sp.MinUseful, Decay: sp.Decay,
			Depth: sp.Depth, AfterCursor: s.Cursor(),
		}.AppendTo
	} else {
		frame = rtwire.SubOpen{
			ID: id, Query: sp.Query, Period: sp.Period, Kind: sp.Kind,
			Deadline: sp.Deadline, MinUseful: sp.MinUseful, Decay: sp.Decay,
			Depth: sp.Depth,
		}.AppendTo
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.wireID = id
	s.mu.Unlock()
	c.smu.Lock()
	c.subs[id] = s
	c.smu.Unlock()
	deregister := func() {
		c.smu.Lock()
		if c.subs[id] == s {
			delete(c.subs, id)
		}
		c.smu.Unlock()
	}
	rep, err := c.call(id, frame)
	if err != nil {
		deregister()
		return err
	}
	ack, ok := rep.msg.(rtwire.SubAck)
	if !ok {
		deregister()
		return unexpected(rep)
	}
	if ack.State != rtwire.SubAdmitted {
		deregister()
		return fmt.Errorf("%w: %q", ErrSubRefused, sp.Query)
	}
	return nil
}

// resumeSubs relaunches every live subscription after a connection loss.
// Subscriptions already mid-resume keep their own retry loop; everyone
// else gets one. The follow stream's loop is woken to re-subscribe.
func (c *Client) resumeSubs() {
	if c.follow != nil {
		select {
		case c.lost <- struct{}{}:
		default: // a loss is already pending
		}
	}
	c.smu.Lock()
	var list []*Subscription
	for id, s := range c.subs {
		delete(c.subs, id)
		if s.beginResume() {
			list = append(list, s)
		}
	}
	c.smu.Unlock()
	for _, s := range list {
		go c.resumeLoop(s)
	}
}

// resumeLoop re-attaches one subscription, walking the failover ring
// through the normal redial path. A refusal, running out of attempts or
// client shutdown ends the subscription with that error.
func (c *Client) resumeLoop(s *Subscription) {
	defer s.endResume()
	if err := c.rejoin(c.backoff(c.backoffSeed()), c.opt.RetryAttempts+1, func() error { return c.attach(s, true) }); err != nil {
		s.finish(err)
		return
	}
	c.Stats.Resubscribes.Add(1)
}

// rejoin is the one re-attach walk, a resume's and the follow stream's: it
// tries attach, pausing on bo after each liveness failure (ErrConnDown,
// ErrTimeout), tries times in all (< 0: until Close).
func (c *Client) rejoin(bo *Backoff, tries int, attach func() error) error {
	for attempt := 1; ; attempt++ {
		err := attach()
		if err == nil || !errors.Is(err, ErrConnDown) && !errors.Is(err, ErrTimeout) || attempt == tries {
			return err
		}
		if !c.sleep(bo.Next()) {
			return ErrClosed
		}
	}
}

// dispatchPush routes one push frame to its subscription. An unknown id is
// a trailing push of a cancelled or superseded attachment; dropping it is
// safe because its cursor is at or below the acknowledged one.
func (c *Client) dispatchPush(m rtwire.Push) {
	c.smu.Lock()
	s := c.subs[m.ID]
	c.smu.Unlock()
	if s != nil {
		s.deliver(m)
	}
}

// deliver advances the cursor and hands the push to the consumer channel,
// dropping it locally (counted) when the consumer lags. The cursor
// advances either way: resume continuity must not replay what the local
// buffer shed.
func (s *Subscription) deliver(m rtwire.Push) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if m.Cursor > s.cursor {
		s.cursor = m.Cursor
		s.dropped, s.expired = m.Dropped, m.Expired
	}
	p := Push{
		Cursor: m.Cursor, Dropped: m.Dropped, Expired: m.Expired,
		Useful: m.Useful, Missed: m.Missed, Evaluated: m.Evaluated,
		Degraded: m.Degraded, Issue: m.Issue, Served: m.Served,
		Answers: m.Answers,
	}
	select {
	case s.ch <- p:
		s.received++
	default:
		s.localDrops++
	}
}

// beginResume claims the resume guard; false means the subscription is
// closed or another resume loop is already running.
func (s *Subscription) beginResume() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.resuming {
		return false
	}
	s.resuming = true
	return true
}

func (s *Subscription) endResume() {
	s.mu.Lock()
	s.resuming = false
	s.mu.Unlock()
}

// finish ends the subscription: the push channel closes and Err reports
// err. Idempotent.
func (s *Subscription) finish(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.err = err
	close(s.ch)
}

// Pushes returns the delivery channel. It closes when the subscription
// ends; Err then reports why (nil after a clean Close).
func (s *Subscription) Pushes() <-chan Push { return s.ch }

// Cursor returns the newest cursor received — the resume point.
func (s *Subscription) Cursor() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursor
}

// Received counts pushes handed to the consumer channel.
func (s *Subscription) Received() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received
}

// Tallies returns the newest cumulative server-side loss counts observed
// for the current attachment — taken from the newest push seen, whether or
// not that push reached the consumer. At quiescence the delivery audit
// closes exactly:
//
//	Received == Cursor − resume base − dropped − expired − LocalDrops
func (s *Subscription) Tallies() (dropped, expired uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped, s.expired
}

// LocalDrops counts pushes shed by the client-side buffer (the consumer
// lagged); they are gone, not replayable — the cursor moved past them.
func (s *Subscription) LocalDrops() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.localDrops
}

// Err reports why the push channel closed; nil while live or after a
// clean Close.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close cancels the subscription on the server (best effort — a dead
// connection just means the server-side teardown accounts it instead) and
// closes the push channel.
func (s *Subscription) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	id := s.wireID
	s.mu.Unlock()
	c := s.c
	c.smu.Lock()
	if c.subs[id] == s {
		delete(c.subs, id)
	}
	c.smu.Unlock()
	_, _ = c.call(id, rtwire.SubCancel{ID: id}.AppendTo)
	s.finish(nil)
	return nil
}
