package server

import (
	"errors"
	"fmt"

	"rtc/internal/deadline"
	"rtc/internal/rtdb/sub"
	"rtc/internal/timeseq"
)

// This file is the server half of the standing-query subsystem: Subscribe
// and the cancel path run as apply-loop closures (the sub.Table is
// apply-loop-owned state), and runSubs is the per-step tick evaluator — the
// one periodic engine, serving subscriptions and RegisterPeriodic's
// registrations (scheduler.go) alike. Subscriptions are connection-scoped,
// not durable: they are not WAL-logged; a client that loses its node
// re-creates them with SubResume, which carries the full spec.

// ErrNotAdmissible reports a standing query the server could only starve: an
// envelope that can never be met — even an evaluation starting exactly at a
// tick's issue instant would finish too late to clear the declared minimum
// usefulness, so per-tick admission would shed every tick — or a
// deadline-free schedule faster than the server evaluates (admitSchedule).
var ErrNotAdmissible = errors.New("server: standing query can never be served on schedule")

// ServerSub is one attached subscription as the transports see it: a popper
// over the bounded delivery queue plus the cancel path. Pop and Notify are
// safe for one consumer goroutine; Cancel may be called from anywhere.
type ServerSub struct {
	m      *Metrics
	s      *sub.Sub
	detach func()
}

// Subscribe attaches a standing query. spec is the server-relative envelope
// (deadline already translated, decay already shifted by the transport);
// after is the cursor to continue from (0 for a fresh subscription, the
// client's newest cursor on a resume); depth bounds the delivery queue
// (0: sub.DefaultDepth). Admission runs once here — a subscription
// whose envelope is impossible is refused, not admitted-then-starved — and
// again per tick against the live clock.
func (s *Server) Subscribe(spec sub.Spec, after uint64, depth int) (*ServerSub, error) {
	return s.SubscribeWake(spec, after, depth, nil)
}

// SubscribeWake is Subscribe with the delivery queue posting its wake tokens
// to wake (sub.NewQueueWake) instead of a channel of its own: a transport
// hands every subscription of one connection the same channel and drains
// them all from one goroutine. The queue has the channel before the apply
// loop can put anything in it, so no token is ever posted elsewhere.
//
// A follower refuses a firm envelope — or any, when its database is
// incomplete — with ErrReadOnly, booked like a refused firm query; the rest
// it serves degraded (serveGroupTick).
func (s *Server) SubscribeWake(spec sub.Spec, after uint64, depth int, wake chan struct{}) (*ServerSub, error) {
	if s.following.Load() && (spec.Kind == deadline.Firm || s.incomplete.Load()) {
		s.Metrics.QueriesIn.Add(1)
		s.Metrics.accountRejected(spec.Kind)
		return nil, ErrReadOnly
	}
	if err := s.admitSchedule(spec); err != nil {
		return nil, err
	}
	// Subscribe-time admission: the best any tick can do is start its
	// evaluation at the issue instant and finish EvalCost later. If even
	// that cannot meet the envelope, no tick ever will (the test is
	// time-invariant — Score only sees finish−issue). A follower, whose
	// evaluation is free, admits by the same cost: the subscription stays
	// attached through a promotion.
	if env := spec.Envelope(); !env.Admissible(env.Score(timeseq.Time(s.cfg.EvalCost))) {
		return nil, ErrNotAdmissible
	}
	var ss *ServerSub
	err := s.apply(func() {
		now := timeseq.Time(s.clock.Load())
		attached := s.subs.Attach(spec, after, sub.NewQueueWake(depth, wake), now)
		// When the server is stopping the detach is skipped: the apply loop
		// is gone and nothing ticks anymore.
		ss = &ServerSub{m: &s.Metrics, s: attached, detach: func() {
			_ = s.apply(func() { s.subs.Detach(attached) })
		}}
		s.Metrics.SubsOpened.Add(1)
	})
	if err != nil {
		return nil, err
	}
	return ss, nil
}

// admitSchedule is what every member of the table — subscription or
// registered periodic query — must pass before it is attached: a period, a
// query the catalog knows, and the one refusal that keeps the apply loop live.
func (s *Server) admitSchedule(spec sub.Spec) error {
	if spec.Period == 0 {
		return errors.New("server: standing query needs a positive period")
	}
	if _, ok := s.cfg.Catalog[spec.Query]; !ok {
		return fmt.Errorf("server: standing query names unknown catalog query %q", spec.Query)
	}
	// A deadline-free standing query has nothing for per-tick admission to
	// shed, so its schedule must be feasible outright: each tick costs
	// EvalCost chronons, and a period at or below that is utilization ≥ 1 —
	// the backlog would grow without bound. Deadline-carrying envelopes may
	// attach at any period; overload degrades them into counted expired
	// ticks instead.
	if spec.Kind == deadline.None && spec.Period <= timeseq.Time(s.cfg.EvalCost) {
		return ErrNotAdmissible
	}
	return nil
}

// apply runs fn on the apply loop and waits for it.
func (s *Server) apply(fn func()) error {
	return s.roundTrip(s.inbox, request{kind: reqApply, do: fn})
}

// Pop dequeues the oldest queued push and accounts its delivery. droppedCum
// is the queue's cumulative drop count at pop time — the value the
// transport stamps into the frame. ok is false when the queue is empty.
func (ss *ServerSub) Pop() (p sub.Push, droppedCum uint64, ok bool) {
	p, droppedCum, ok = ss.s.Q.Pop()
	if ok {
		ss.m.AccountPushed()
	}
	return p, droppedCum, ok
}

// Notify returns the delivery queue's wake channel.
func (ss *ServerSub) Notify() <-chan struct{} { return ss.s.Q.Notify() }

// Spec returns the attached envelope.
func (ss *ServerSub) Spec() sub.Spec { return ss.s.Spec }

// Cancel detaches the subscription and closes its queue, accounting
// everything still queued as dropped. It returns the last assigned cursor
// (for the closing SubAck); the error is always nil. Safe to call when the
// server is stopping: the queue is still closed and its leftovers accounted.
func (ss *ServerSub) Cancel() (lastCursor uint64, err error) {
	ss.detach()
	ss.m.SubsClosed.Add(1)
	if n := ss.s.Q.Close(); n > 0 {
		ss.m.AccountPushDropped(uint64(n))
	}
	// The table's owner no longer sees ss.s, so the cursor is stable to
	// read here.
	return ss.s.Cursor(), nil
}

// runSubs serves every tick due at or before the clock as it stood on entry,
// earliest due first. Each due group costs one catalog evaluation and one
// EvalCost clock advance no matter how many members watch it; members score
// the shared result against their own envelopes. A tick whose members all
// fail per-tick admission is skipped without evaluation (the backlogged
// case: shed provably-useless work), and each member's skipped tick is an
// expired cursor, visible to the client as a counted gap.
//
// Due-ness is measured against the entry snapshot, not the live clock: the
// evaluations themselves advance the clock, so a period at or below
// EvalCost would otherwise re-arm the group it just served and spin the
// apply loop forever (utilization ≥ 1 with issue advancing in lockstep with
// the clock — lateness never grows, so expiry never sheds it). Against the
// snapshot every group serves a bounded tick count per step, and a schedule
// the server cannot keep up with degrades the honest way: the backlog's
// lateness grows across steps until per-tick admission expires it.
func (s *Server) runSubs() {
	if s.subs.Len() == 0 {
		return
	}
	now := timeseq.Time(s.clock.Load())
	for {
		due := s.subs.Due(now)
		if len(due) == 0 {
			return
		}
		for _, g := range due {
			s.serveGroupTick(g)
		}
	}
}

// serveGroupTick runs (or admission-skips) one due tick of one group. A
// follower evaluates at the replicated horizon at no cost, as serveQuery
// serves its degraded queries: its pushes are Degraded and each is booked as
// a degraded query outcome, where a late tick counts as a miss.
func (s *Server) serveGroupTick(g *sub.Group) {
	now := timeseq.Time(s.clock.Load())
	issue := g.Advance()
	following := s.following.Load()
	finish := now
	if !following {
		finish += timeseq.Time(s.cfg.EvalCost)
	}
	members := g.Members()

	var answers []string
	evaluate := false
	for _, m := range members {
		if env := m.Spec.Envelope(); env.Admissible(env.Score(finish - issue)) {
			evaluate = true
			break
		}
	}
	switch {
	case !evaluate:
		s.Metrics.AdmissionSkip.Add(1)
	case following && s.incomplete.Load():
		evaluate = false // nothing trustworthy to evaluate against
	default:
		s.sched.RunUntil(now)
		answers = s.cfg.Catalog[g.Key().Query](s.db.ViewNow())
		s.advance(finish)
	}
	// An admission skip has not moved the clock, and every member's tick
	// expires at the finish the test above used.
	for _, m := range members {
		p, late, ok := m.Tick(issue, finish)
		if m.Tally != nil {
			s.tallyTick(m, issue, ok)
			continue
		}
		s.Metrics.PushScheduled.Add(1)
		if !ok {
			s.Metrics.PushExpired.Add(1)
			continue
		}
		p.Evaluated, p.Answers = evaluate, answers
		if following {
			hasDeadline := m.Spec.Kind != deadline.None
			p.Degraded, p.Missed = true, late || !evaluate && hasDeadline
			if !evaluate {
				p.Useful = 0
			}
			s.Metrics.AccountDegraded(p.Missed, hasDeadline)
		}
		if m.Q.Put(p) {
			s.Metrics.AccountPushDropped(1)
		}
	}
}
