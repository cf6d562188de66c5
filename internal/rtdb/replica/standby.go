package replica

import (
	"errors"
	"net"
	"slices"

	"rtc/internal/deadline"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtdb/sub"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// This file is the hot-standby serving surface: the replica as a
// netserve.Backend. The accept loop, handshake, write queue, timeouts, wire
// counters and push delivery are netserve's, shared with the primary; what is
// the standby's own is here, and reaches the loop only as values and errors:
//
//	Sample        → ReadOnlyError (accounted SamplesIn + SamplesRejected)
//	Query (firm)  → ReadOnlyError (accounted QueriesIn + QueriesRejected
//	                + RejectMiss, so the conservation law holds)
//	Query (soft / no deadline) → evaluated on the mirror, accounted through
//	                AccountDegraded — answered, but marked a distinct
//	                quality class; with no mirror, refused read-only
//	AsOf, MetricsReq, Heartbeat → served from the replicated state
//	Flush         → done: nothing a standby accepts is ever pending
//	Subscribe     → refused (no WAL offered: replicas do not chain)
//	SubOpen / SubResume (firm) → ReadOnlyError; (soft / no deadline) →
//	                admitted, scheduled by the tailer as the replicated
//	                horizon advances, delivered Degraded
//
// Every connection is admitted: a standby has no session pool to run out of.

var (
	errWrite   = netserve.ReadOnlyError("standby: writes go to the primary")
	errFirm    = netserve.ReadOnlyError("standby: firm queries go to the primary")
	errFirmSub = netserve.ReadOnlyError("standby: firm subscriptions go to the primary")
	errMirror  = netserve.ReadOnlyError("standby: no query mirror available")
)

// standby is the replica seen through netserve.Backend; the one value also
// serves as every connection's Session, since a standby session has no state.
type standby struct{ r *Replica }

// Listen starts the standby listener on addr in a background goroutine and
// returns the bound address. opt is what a primary's listener would take.
func (r *Replica) Listen(addr string, opt netserve.Options) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return r.ServeOn(ln, opt)
}

// ServeOn starts standby serving on an already-bound listener — the
// injection point torture tests use to put the standby behind a faultnet
// fabric. Close drains it.
func (r *Replica) ServeOn(ln net.Listener, opt netserve.Options) (net.Addr, error) {
	ns := netserve.NewBackend(standby{r}, opt)
	r.mu.Lock()
	if r.ns != nil {
		r.mu.Unlock()
		return nil, errors.New("replica: already serving")
	}
	r.ns = ns
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = ns.Serve(ln)
	}()
	return ln.Addr(), nil
}

func (s standby) OpenSession() (netserve.Session, bool) { return s, true }

func (s standby) ID() int      { return 0 }
func (s standby) Close()       {}
func (s standby) Flush() error { return nil }

func (s standby) InjectSample(image, value string) error {
	s.r.Metrics.SamplesIn.Add(1)
	s.r.Metrics.SamplesRejected.Add(1)
	return errWrite
}

// reject books a refused query so QueriesIn == accounted holds.
func (s standby) reject(kind deadline.Kind, err error) (server.Response, error) {
	s.r.Metrics.QueriesIn.Add(1)
	s.r.Metrics.QueriesRejected.Add(1)
	if kind != deadline.None {
		s.r.Metrics.RejectMiss.Add(1)
	}
	return server.Response{}, err
}

// Query implements the degraded-query discipline described at the top of the
// file. Serving is instantaneous in chronon terms (no apply loop to wait
// for): an unexpired soft query is therefore a hit, an unknown query name a
// miss when a deadline rides on it.
func (s standby) Query(q server.QueryRequest) (server.Response, error) {
	if q.Kind == deadline.Firm {
		return s.reject(q.Kind, errFirm)
	}
	answers, evaluated, mirror := s.r.evalMirror(q.Query)
	if !mirror {
		return s.reject(q.Kind, errMirror)
	}
	missed := !evaluated && q.Kind != deadline.None
	s.r.Metrics.AccountDegraded(missed, q.Kind != deadline.None)
	now := s.r.chronon()
	resp := server.Response{
		Answers: answers, Evaluated: evaluated, Missed: missed,
		Match: q.Candidate != "" && slices.Contains(answers, q.Candidate),
		Issue: now, Served: now,
	}
	if !missed {
		resp.Useful = q.MinUseful
	}
	return resp, nil
}

// evalMirror evaluates one catalog query against the mirror. mirror is false
// when there is none; evaluated is false when the catalog lacks the query.
func (r *Replica) evalMirror(query string) (answers []string, evaluated, mirror bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.db == nil {
		return nil, false, false
	}
	if q, ok := r.cfg.Catalog[query]; ok {
		return q(r.db.ViewNow()), true, true
	}
	return nil, false, true
}

// chronon is the virtual time the standby reports: the timestamp horizon of
// the replicated state.
func (r *Replica) chronon() timeseq.Time {
	if h := r.hist.Load(); h != nil {
		return h.at
	}
	return 0
}

func (s standby) Now() timeseq.Time { return s.r.chronon() }

func (s standby) Epoch() uint64 { return s.r.Epoch() }

// Role is what the standby announces: RoleStandby until promotion.
func (s standby) Role() rtwire.Role {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.r.promoted {
		return rtwire.RolePrimary
	}
	return rtwire.RoleStandby
}

// ValueAsOf is the indexed timeline lookup the primary serves from, so a
// standby's as-of reads stay flat as the mirror ages.
func (s standby) ValueAsOf(image string, at timeseq.Time) (string, bool, timeseq.Time) {
	s.r.Metrics.AsOfReads.Add(1)
	h := s.r.hist.Load()
	if h == nil {
		return "", false, 0
	}
	v, ok := h.db.ValueAsOf(image, at)
	return v, ok, h.at
}

func (s standby) Metrics() *server.Metrics { return &s.r.Metrics }

// AppendDurabilityRows: wal_seq and epoch use the names a primary reports, so
// failover tooling reads one coordinate regardless of role.
func (s standby) AppendDurabilityRows(dst []rtwire.MetricPair) []rtwire.MetricPair {
	r := s.r
	seq, epoch := r.Seq(), r.Epoch()
	return append(dst,
		rtwire.MetricPair{Name: "wal_seq", Value: seq},
		rtwire.MetricPair{Name: "epoch", Value: epoch},
		rtwire.MetricPair{Name: "repl_seq", Value: seq},
		rtwire.MetricPair{Name: "repl_epoch", Value: epoch},
		rtwire.MetricPair{Name: "repl_batches_in", Value: r.Repl.BatchesIn.Load()},
		rtwire.MetricPair{Name: "repl_events_applied", Value: r.Repl.EventsApplied.Load()},
		rtwire.MetricPair{Name: "repl_dup_skipped", Value: r.Repl.DupSkipped.Load()},
		rtwire.MetricPair{Name: "repl_gap_resubscribes", Value: r.Repl.GapResubscribes.Load()},
		rtwire.MetricPair{Name: "repl_resyncs", Value: r.Repl.Resyncs.Load()},
		rtwire.MetricPair{Name: "repl_stale_batches", Value: r.Repl.StaleBatches.Load()},
		rtwire.MetricPair{Name: "repl_reconnects", Value: r.Repl.Reconnects.Load()},
		rtwire.MetricPair{Name: "repl_promotions", Value: r.Repl.Promotions.Load()},
	)
}

// HeartbeatSeq is the applied sequence: what this node itself holds.
func (s standby) HeartbeatSeq() uint64 { return s.r.Seq() }

// WAL is nil: replicas do not chain.
func (s standby) WAL() *wal.Log { return nil }

// Standby standing queries. Time on a standby is the replicated horizon
// (chronon of the newest applied event), so ticks fall due when a batch
// advances the horizon past them: the tailer calls scheduleTicks after every
// applied batch, the only moment the standby's virtual clock moves. A batch
// that jumps the horizon far ahead makes a burst of ticks due at once; each
// is re-checked against its translated envelope, so stale ticks expire
// (counted cursors, not silent skips) and only envelopes that still clear
// their decay are served.
//
// The grouping, cursors and bounded drop-oldest delivery are the sub
// package's, exactly as on the primary; smu stands in for the apply loop as
// the table's single owner. Scheduling only ever Puts into a queue — it never
// touches a socket — so a subscriber that stops reading loses its oldest
// pushes, counted, and cannot hold back the tailer's WalAck.

// Subscribe admits a soft or deadline-free envelope the catalog and the
// mirror can serve; its first tick is due one period past the horizon.
func (s standby) Subscribe(spec sub.Spec, after uint64, depth int, wake chan struct{}) (*server.ServerSub, error) {
	r := s.r
	if spec.Kind == deadline.Firm {
		// A standby cannot promise a firm per-tick deadline: its clock only
		// moves when the primary's batches arrive.
		return nil, errFirmSub
	}
	if spec.Period == 0 {
		return nil, errors.New("replica: subscription needs a positive period")
	}
	r.mu.Lock()
	mirror := r.db != nil
	r.mu.Unlock()
	if _, known := r.cfg.Catalog[spec.Query]; !known || !mirror {
		return nil, errors.New("replica: the mirror cannot serve this query")
	}
	r.smu.Lock()
	attached := r.subs.Attach(spec, after, sub.NewQueueWake(depth, wake), r.chronon())
	r.smu.Unlock()
	r.Metrics.SubsOpened.Add(1)
	// Deliveries are booked as they leave the bounded queue, leftovers as
	// dropped when the subscription is cancelled or its connection goes.
	return server.NewServerSub(&r.Metrics, attached, func() {
		r.smu.Lock()
		r.subs.Detach(attached)
		r.smu.Unlock()
	}), nil
}

// scheduleTicks schedules every subscription tick the replicated horizon has
// crossed. The mirror is frozen between batch applies, so one evaluation per
// due group serves every tick and member of the sweep, and finish is the
// horizon itself: standby evaluation costs no chronons. Each member's tick
// consumes a cursor (sub.Sub.Tick, as on the primary) and is expired by
// per-tick admission or Put on its queue.
func (r *Replica) scheduleTicks() {
	r.smu.Lock()
	defer r.smu.Unlock()
	horizon := r.chronon()
	for _, g := range r.subs.Due(horizon) {
		var answers []string
		evaluated, asked := false, false
		for g.Next() <= horizon {
			issue := g.Advance()
			for _, m := range g.Members() {
				r.Metrics.PushScheduled.Add(1)
				p, late, ok := m.Tick(issue, horizon)
				if !ok {
					r.Metrics.PushExpired.Add(1)
					continue
				}
				if !asked {
					answers, evaluated, _ = r.evalMirror(g.Key().Query)
					asked = true
				}
				hasDeadline := m.Spec.Kind != deadline.None
				p.Missed = late || (!evaluated && hasDeadline)
				if !evaluated {
					p.Useful = 0
				}
				r.Metrics.AccountDegraded(p.Missed, hasDeadline)
				p.Evaluated, p.Degraded, p.Answers = evaluated, true, answers
				if m.Q.Put(p) {
					r.Metrics.AccountPushDropped(1)
				}
			}
		}
	}
}
