// Package server is the concurrent serving layer of the rtdbd subsystem:
// N client sessions inject timed samples and issue aperiodic and periodic
// queries against one §5.1 real-time database (rtdb.DB), with bounded
// per-session queues (reject, never block — firm semantics are preserved by
// accounting a miss instead of waiting), firm/soft-deadline admission
// control driven by the §4.1 usefulness functions, temporal as-of reads
// served from published HistoricalDatabase snapshots without the write
// lock, and write-ahead logging through internal/rtdb/log.
//
// Concurrency model: sessions are producers; one apply goroutine owns the
// database and the virtual clock (an actor, so rtdb.DB itself needs no
// locking), mirroring how the paper's machine consumes one merged timed
// word — Hui & Chikkagoudar's parallel model (PAPERS.md) motivates treating
// the concurrent client streams as first-class timed words whose merge is
// the apply order.
//
// A Server is also the unit of sharding: ShardedServer (sharded.go) builds N
// of them from one catalog, each with its own clock, and whoever holds an
// object's traffic places it with rtwire.ShardOf — no router sits in between.
//
// And it is the hot standby: NewFollower builds one in the follower role,
// whose clock and database move only with a replication stream, and
// Promote flips it to a primary in place (follower.go).
package server

import (
	"sync/atomic"

	"rtc/internal/deadline"
	"rtc/internal/stats"
)

// Metrics is the server's expvar-style counter block. All fields are
// atomics: sessions update them without the apply loop's involvement and
// readers snapshot them without any lock.
type Metrics struct {
	Chronon atomic.Uint64 // current virtual time (chronons)

	SamplesIn       atomic.Uint64 // samples accepted into a session queue
	SamplesRejected atomic.Uint64 // samples rejected by backpressure
	SamplesApplied  atomic.Uint64 // samples applied to the database

	QueriesIn       atomic.Uint64 // aperiodic query submissions (attempts)
	QueriesRejected atomic.Uint64 // rejected by backpressure
	RejectMiss      atomic.Uint64 // subset of rejections carrying a deadline
	DeadlineHit     atomic.Uint64 // served within the deadline discipline
	DeadlineMiss    atomic.Uint64 // served late or admission-skipped
	NoDeadline      atomic.Uint64 // served class-(i) queries
	AdmissionSkip   atomic.Uint64 // misses (aperiodic or periodic) never evaluated
	// ExpiredOnArrival is the subset of DeadlineMiss accounted by a
	// transport (netserve) for queries whose client-relative deadline was
	// already consumed when the frame arrived — rejected before entering
	// any session queue, never evaluated.
	ExpiredOnArrival atomic.Uint64
	// Degraded is the subset of query outcomes (and standing-query pushes)
	// served by a follower: answered from replicated state that may trail
	// the primary, so it is a distinct quality class even when the deadline
	// was met. Like ExpiredOnArrival it annotates, it does not add a term to
	// the conservation law.
	Degraded atomic.Uint64

	PeriodicIssued atomic.Uint64
	PeriodicHit    atomic.Uint64
	PeriodicMiss   atomic.Uint64

	// Standing-query (push subscription) counters. PushScheduled counts
	// every tick of every attached subscription — each consumes one cursor —
	// and the conservation law PushScheduled == Pushed + PushDropped +
	// PushExpired is the subscription-side extension of the QueriesIn ==
	// QueriesAccounted invariant: a scheduled tick is delivered to its
	// subscriber, dropped by its bounded queue (slow reader or teardown), or
	// expired by per-tick admission — never silently lost.
	SubsOpened    atomic.Uint64 // subscriptions attached (opens + resumes)
	SubsClosed    atomic.Uint64 // subscriptions detached (cancel or teardown)
	PushScheduled atomic.Uint64 // subscription ticks scheduled (cursors consumed)
	Pushed        atomic.Uint64 // pushes handed to a transport for delivery
	PushDropped   atomic.Uint64 // pushes discarded by drop-oldest or teardown
	PushExpired   atomic.Uint64 // ticks skipped by per-tick admission

	AsOfReads       atomic.Uint64
	RuleFirings     atomic.Uint64
	CascadeDepthMax atomic.Uint64

	WalAppends    atomic.Uint64
	WalErrors     atomic.Uint64
	FsyncCount    atomic.Uint64
	FsyncNanos    atomic.Uint64
	FsyncMaxNanos atomic.Uint64
	// Group-commit counters (mirrored from the WAL's stats): batches
	// released by one fsync, and the appends whose durability rode them.
	// GroupedAppends / GroupCommits is the realized amortization factor.
	GroupCommits   atomic.Uint64
	GroupedAppends atomic.Uint64
}

// MetricsSnapshot is a plain copy of the counters at one instant.
type MetricsSnapshot struct {
	Chronon uint64

	SamplesIn, SamplesRejected, SamplesApplied uint64

	QueriesIn, QueriesRejected, RejectMiss    uint64
	DeadlineHit, DeadlineMiss, NoDeadline     uint64
	AdmissionSkip, ExpiredOnArrival, Degraded uint64
	PeriodicIssued, PeriodicHit, PeriodicMiss uint64

	SubsOpened, SubsClosed   uint64
	PushScheduled, Pushed    uint64
	PushDropped, PushExpired uint64

	AsOfReads, RuleFirings, CascadeDepthMax uint64

	WalAppends, WalErrors                 uint64
	FsyncCount, FsyncNanos, FsyncMaxNanos uint64
	GroupCommits, GroupedAppends          uint64
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Chronon:          m.Chronon.Load(),
		SamplesIn:        m.SamplesIn.Load(),
		SamplesRejected:  m.SamplesRejected.Load(),
		SamplesApplied:   m.SamplesApplied.Load(),
		QueriesIn:        m.QueriesIn.Load(),
		QueriesRejected:  m.QueriesRejected.Load(),
		RejectMiss:       m.RejectMiss.Load(),
		DeadlineHit:      m.DeadlineHit.Load(),
		DeadlineMiss:     m.DeadlineMiss.Load(),
		NoDeadline:       m.NoDeadline.Load(),
		AdmissionSkip:    m.AdmissionSkip.Load(),
		ExpiredOnArrival: m.ExpiredOnArrival.Load(),
		Degraded:         m.Degraded.Load(),
		PeriodicIssued:   m.PeriodicIssued.Load(),
		PeriodicHit:      m.PeriodicHit.Load(),
		PeriodicMiss:     m.PeriodicMiss.Load(),
		SubsOpened:       m.SubsOpened.Load(),
		SubsClosed:       m.SubsClosed.Load(),
		PushScheduled:    m.PushScheduled.Load(),
		Pushed:           m.Pushed.Load(),
		PushDropped:      m.PushDropped.Load(),
		PushExpired:      m.PushExpired.Load(),
		AsOfReads:        m.AsOfReads.Load(),
		RuleFirings:      m.RuleFirings.Load(),
		CascadeDepthMax:  m.CascadeDepthMax.Load(),
		WalAppends:       m.WalAppends.Load(),
		WalErrors:        m.WalErrors.Load(),
		FsyncCount:       m.FsyncCount.Load(),
		FsyncNanos:       m.FsyncNanos.Load(),
		FsyncMaxNanos:    m.FsyncMaxNanos.Load(),
		GroupCommits:     m.GroupCommits.Load(),
		GroupedAppends:   m.GroupedAppends.Load(),
	}
}

// accumulate folds another shard's snapshot into s: counters add, the
// max-gauges (cascade depth, fsync max) take the max, and Chronon is left
// to the caller (a sum of clocks means nothing).
func (s *MetricsSnapshot) accumulate(o MetricsSnapshot) {
	s.SamplesIn += o.SamplesIn
	s.SamplesRejected += o.SamplesRejected
	s.SamplesApplied += o.SamplesApplied
	s.QueriesIn += o.QueriesIn
	s.QueriesRejected += o.QueriesRejected
	s.RejectMiss += o.RejectMiss
	s.DeadlineHit += o.DeadlineHit
	s.DeadlineMiss += o.DeadlineMiss
	s.NoDeadline += o.NoDeadline
	s.AdmissionSkip += o.AdmissionSkip
	s.ExpiredOnArrival += o.ExpiredOnArrival
	s.Degraded += o.Degraded
	s.PeriodicIssued += o.PeriodicIssued
	s.PeriodicHit += o.PeriodicHit
	s.PeriodicMiss += o.PeriodicMiss
	s.SubsOpened += o.SubsOpened
	s.SubsClosed += o.SubsClosed
	s.PushScheduled += o.PushScheduled
	s.Pushed += o.Pushed
	s.PushDropped += o.PushDropped
	s.PushExpired += o.PushExpired
	s.AsOfReads += o.AsOfReads
	s.RuleFirings += o.RuleFirings
	if o.CascadeDepthMax > s.CascadeDepthMax {
		s.CascadeDepthMax = o.CascadeDepthMax
	}
	s.WalAppends += o.WalAppends
	s.WalErrors += o.WalErrors
	s.FsyncCount += o.FsyncCount
	s.FsyncNanos += o.FsyncNanos
	if o.FsyncMaxNanos > s.FsyncMaxNanos {
		s.FsyncMaxNanos = o.FsyncMaxNanos
	}
	s.GroupCommits += o.GroupCommits
	s.GroupedAppends += o.GroupedAppends
}

// AccountExpired records a deadline-carrying query that a transport
// rejected before submission because its client-relative deadline was
// already consumed on arrival. It books the submission and the miss in one
// step, so the QueriesIn == QueriesAccounted conservation law extends over
// the wire: expired-on-arrival queries are counted, never evaluated, never
// silently dropped.
func (m *Metrics) AccountExpired() {
	m.QueriesIn.Add(1)
	m.DeadlineMiss.Add(1)
	m.ExpiredOnArrival.Add(1)
}

// accountRejected books a query refused before evaluation — by backpressure
// or by a follower's read-only role; one carrying a deadline is also a miss.
func (m *Metrics) accountRejected(kind deadline.Kind) {
	m.QueriesRejected.Add(1)
	if kind != deadline.None {
		m.RejectMiss.Add(1)
	}
}

// AccountDegraded records a standing-query push a follower served: the
// submission and its terminal outcome are booked in one step, as for a
// query, so the conservation law holds on a follower too. missed says
// whether the (translated) deadline was blown, hasDeadline whether the
// envelope carried one at all.
func (m *Metrics) AccountDegraded(missed, hasDeadline bool) {
	m.QueriesIn.Add(1)
	m.Degraded.Add(1)
	switch {
	case !hasDeadline:
		m.NoDeadline.Add(1)
	case missed:
		m.DeadlineMiss.Add(1)
	default:
		m.DeadlineHit.Add(1)
	}
}

// AccountPushed records one subscription push handed to a transport (or an
// in-process consumer) for delivery — the "delivered" term of the push
// conservation law. Transports call it at pop time, after the push has left
// the bounded queue, so a push still exposed to drop-oldest is never
// double-counted.
func (m *Metrics) AccountPushed() {
	m.Pushed.Add(1)
}

// AccountPushDropped records n subscription pushes discarded undelivered:
// by drop-oldest when a subscriber's bounded queue overflowed, or in bulk
// when a connection tears down with pushes still queued. Like AccountExpired
// on the query side, it keeps the loss on the books — the push conservation
// law stays exact through overload and teardown.
func (m *Metrics) AccountPushDropped(n uint64) {
	m.PushDropped.Add(n)
}

// PushAccounted sums every terminal outcome a scheduled subscription tick
// can have. The conservation law PushScheduled == PushAccounted holds at
// quiescence (no pushes parked in delivery queues); the race suite and the
// rtdbload fan-out mode assert it after drain.
func (s MetricsSnapshot) PushAccounted() uint64 {
	return s.Pushed + s.PushDropped + s.PushExpired
}

// QueriesAccounted sums every terminal outcome an aperiodic query can have.
// The conservation law QueriesIn == QueriesAccounted is the "never silently
// dropped" invariant; the race suite asserts it under load.
// (ExpiredOnArrival is a subset of DeadlineMiss, like RejectMiss is a
// subset of QueriesRejected, so neither appears in the sum.)
func (s MetricsSnapshot) QueriesAccounted() uint64 {
	return s.QueriesRejected + s.DeadlineHit + s.DeadlineMiss + s.NoDeadline
}

// MetricPair is one named counter, in the table's display order. The wire
// protocol ships snapshots as these pairs so remote clients (rtdbload) can
// render the identical table without sharing struct layout.
type MetricPair struct {
	Name  string
	Value uint64
}

// Pairs flattens the snapshot into named counters in display order.
func (s MetricsSnapshot) Pairs() []MetricPair {
	return []MetricPair{
		{"chronon", s.Chronon},
		{"samples_in", s.SamplesIn},
		{"samples_rejected", s.SamplesRejected},
		{"samples_applied", s.SamplesApplied},
		{"queries_in", s.QueriesIn},
		{"queries_rejected", s.QueriesRejected},
		{"reject_miss", s.RejectMiss},
		{"deadline_hit", s.DeadlineHit},
		{"deadline_miss", s.DeadlineMiss},
		{"no_deadline", s.NoDeadline},
		{"admission_skip", s.AdmissionSkip},
		{"expired_on_arrival", s.ExpiredOnArrival},
		{"degraded", s.Degraded},
		{"periodic_issued", s.PeriodicIssued},
		{"periodic_hit", s.PeriodicHit},
		{"periodic_miss", s.PeriodicMiss},
		{"subs_opened", s.SubsOpened},
		{"subs_closed", s.SubsClosed},
		{"push_scheduled", s.PushScheduled},
		{"pushed", s.Pushed},
		{"push_dropped", s.PushDropped},
		{"push_expired", s.PushExpired},
		{"asof_reads", s.AsOfReads},
		{"rule_firings", s.RuleFirings},
		{"cascade_depth_max", s.CascadeDepthMax},
		{"wal_appends", s.WalAppends},
		{"wal_errors", s.WalErrors},
		{"fsync_count", s.FsyncCount},
		{"fsync_total_ns", s.FsyncNanos},
		{"fsync_max_ns", s.FsyncMaxNanos},
		{"group_commits", s.GroupCommits},
		{"grouped_appends", s.GroupedAppends},
	}
}

// PairsSharded is Pairs with the snapshot's shard identity prepended as
// two extra rows, "shard" and "shards". The base rows keep their exact
// names — tooling that resolves counters by name (rtdbload's wal_seq
// durability lookup, dashboards keyed on queries_in) reads a sharded
// node's table unchanged; the label rows only add where the table came
// from. TestShardMetricsRows (netserve) pins both halves of that contract.
func (s MetricsSnapshot) PairsSharded(shard, shards int) []MetricPair {
	return append([]MetricPair{
		{"shard", uint64(shard)},
		{"shards", uint64(shards)},
	}, s.Pairs()...)
}

// Table renders the block for the rtdbd metrics printout.
func (s MetricsSnapshot) Table() string {
	t := stats.NewTable("metric", "value")
	for _, p := range s.Pairs() {
		t.Row(p.Name, p.Value)
	}
	return t.String()
}
