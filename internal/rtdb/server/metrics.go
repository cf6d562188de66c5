// Package server is the concurrent serving layer of the rtdbd subsystem:
// N client sessions inject timed samples and issue aperiodic and periodic
// queries against one §5.1 real-time database (rtdb.DB), with bounded
// per-session queues (reject, never block — firm semantics are preserved by
// accounting a miss instead of waiting), firm/soft-deadline admission
// control driven by the §4.1 usefulness functions, temporal as-of reads
// served from published snapshots of the image histories without the
// write lock, and write-ahead logging through internal/rtdb/log.
//
// Concurrency model: sessions are producers; one apply goroutine, the
// server's only one, owns the database and the virtual clock (an actor, so
// rtdb.DB needs no locking) and merges the session queues round-robin, as
// the paper's machine consumes one merged timed word — Hui & Chikkagoudar's
// parallel model (PAPERS.md) treats the concurrent client streams as
// first-class timed words whose merge is the apply order.
//
// A Server is also the unit of sharding: NewShards (sharded.go) splits one
// catalog into N of them, each with its own clock, and whoever holds an
// object's traffic places it with rtwire.ShardOf — no router sits in between.
//
// And it is the hot standby: NewFollower builds one in the follower role,
// whose clock and database move only with a replication stream, and
// Promote flips it to a primary in place (follower.go).
//
// Its books are counter blocks — Metrics, a follower's ReplMetrics, and the
// log's own wal.Stats — in which each counter is declared once, with its
// metrics-reply row in a struct tag. Rows (rows.go) derives the snapshots,
// the reply rows and the cross-shard sums from the tags, and the
// conservation laws over those rows are declared beside them as data (Books).
package server

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"rtc/internal/deadline"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
	"rtc/internal/stats"
)

// Metrics is the server's expvar-style counter block. All fields are
// atomics: sessions update them without the apply loop's involvement and
// readers snapshot them without any lock. Each field's tag is its row in
// the metrics reply (Rows); the log's fsync and group-commit rows are the
// log's own (wal.Stats), read by Server.MetricsSnapshot.
type Metrics struct {
	Chronon atomic.Uint64 `metric:"chronon" agg:"max"` // current virtual time (chronons)

	SamplesIn       atomic.Uint64 `metric:"samples_in"`       // samples a session queue accepted, less those the apply loop refused
	SamplesRejected atomic.Uint64 `metric:"samples_rejected"` // samples refused: backpressure, a follower's read-only role, an unknown image, or abandoned by Stop
	SamplesApplied  atomic.Uint64 `metric:"samples_applied"`  // samples applied to the database: SamplesIn once queues drain

	QueriesIn       atomic.Uint64 `metric:"queries_in"`       // aperiodic query submissions (attempts)
	QueriesRejected atomic.Uint64 `metric:"queries_rejected"` // rejected unevaluated: backpressure, a follower's role, or abandoned by Stop
	RejectMiss      atomic.Uint64 `metric:"reject_miss"`      // subset of rejections carrying a deadline
	DeadlineHit     atomic.Uint64 `metric:"deadline_hit"`     // served within the deadline discipline
	DeadlineMiss    atomic.Uint64 `metric:"deadline_miss"`    // served late or admission-skipped
	NoDeadline      atomic.Uint64 `metric:"no_deadline"`      // served class-(i) queries
	AdmissionSkip   atomic.Uint64 `metric:"admission_skip"`   // misses (aperiodic or periodic) never evaluated
	// ExpiredOnArrival is the subset of DeadlineMiss accounted by a
	// transport (netserve) for queries whose client-relative deadline was
	// already consumed when the frame arrived — rejected before entering
	// any session queue, never evaluated.
	ExpiredOnArrival atomic.Uint64 `metric:"expired_on_arrival"`
	// Degraded is the subset of query outcomes (and standing-query pushes)
	// served by a follower: answered from replicated state that may trail
	// the primary, so it is a distinct quality class even when the deadline
	// was met. Like ExpiredOnArrival it annotates, it is no term of
	// BOOK-queries.
	Degraded atomic.Uint64 `metric:"degraded"`

	PeriodicIssued atomic.Uint64 `metric:"periodic_issued"`
	PeriodicHit    atomic.Uint64 `metric:"periodic_hit"`
	PeriodicMiss   atomic.Uint64 `metric:"periodic_miss"`

	// Standing-query (push subscription) counters. PushScheduled counts
	// every tick of every attached subscription — each consumes one cursor —
	// and BOOK-pushes is the subscription side of BOOK-queries: a scheduled
	// tick is delivered to its subscriber, dropped by its bounded queue
	// (slow reader or teardown), or expired by per-tick admission — never
	// silently lost.
	SubsOpened    atomic.Uint64 `metric:"subs_opened"`    // subscriptions attached (opens + resumes)
	SubsClosed    atomic.Uint64 `metric:"subs_closed"`    // subscriptions detached (cancel or teardown)
	PushScheduled atomic.Uint64 `metric:"push_scheduled"` // subscription ticks scheduled (cursors consumed)
	Pushed        atomic.Uint64 `metric:"pushed"`         // pushes handed to a transport for delivery
	PushDropped   atomic.Uint64 `metric:"push_dropped"`   // pushes discarded by drop-oldest or teardown
	PushExpired   atomic.Uint64 `metric:"push_expired"`   // ticks skipped by per-tick admission

	AsOfReads       atomic.Uint64 `metric:"asof_reads"`
	RuleFirings     atomic.Uint64 `metric:"rule_firings"`
	CascadeDepthMax atomic.Uint64 `metric:"cascade_depth_max" agg:"max"`

	WalAppends atomic.Uint64 `metric:"wal_appends"`
	WalErrors  atomic.Uint64 `metric:"wal_errors"`
}

// MetricsSnapshot is a plain copy of the counters at one instant, with the
// log's heal, fsync and group-commit counters (GroupedAppends /
// GroupCommits is the realized amortization factor).
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

	WalAppends, WalErrors, Heals          uint64
	FsyncCount, FsyncNanos, FsyncMaxNanos uint64
	GroupCommits, GroupedAppends          uint64
}

// A Book is one conservation law over a node's metrics rows: the rows named
// Left sum to those named Right, so whatever entered the node left it
// through exactly one counted outcome. A Quiescent book closes only once the
// node has stopped; the others close whenever its clients are idle (every
// request answered, sample flushed and subscription closed).
type Book struct {
	ID          string // BOOK-<name>
	Left, Right []string
	Quiescent   bool
}

// The server's books, over Metrics' rows; netserve.Books declares the
// listener's. DESIGN §7 has them as a table.
var (
	queryBook = Book{ID: "BOOK-queries", Left: []string{"queries_in"},
		Right: []string{"queries_rejected", "deadline_hit", "deadline_miss", "no_deadline"}}
	pushBook = Book{ID: "BOOK-pushes", Left: []string{"push_scheduled"},
		Right: []string{"pushed", "push_dropped", "push_expired"}}
	books = []Book{
		queryBook,
		{ID: "BOOK-samples", Left: []string{"samples_in"}, Right: []string{"samples_applied"}},
		// The scheduler books a tick's issue and its outcome in two steps,
		// which a reader off the apply loop can fall between.
		{ID: "BOOK-periodic", Left: []string{"periodic_issued"}, Right: []string{"periodic_hit", "periodic_miss"}, Quiescent: true},
		pushBook,
		{ID: "BOOK-subs", Left: []string{"subs_opened"}, Right: []string{"subs_closed"}},
	}
)

// Books returns the server's books, a fresh slice each call.
func Books() []Book { return slices.Clone(books) }

// Audit balances books over the rows of one or more metrics replies, added
// by name. Its report has one line per book after label (a shard's, say),
// each term with its value: "ID: l == r1 + r2 ✓" when the book closes, "ID
// open: …" when not or when a term has no row. The open lines are its error.
func Audit(label string, books []Book, rows ...[]rtwire.MetricPair) (report string, err error) {
	sums, lines, open := rowSums(rows...), []string{}, []error{}
	for _, b := range books {
		l, lt, lok := side(sums, b.Left)
		r, rt, rok := side(sums, b.Right)
		line := fmt.Sprintf("%s%s: %s == %s ✓", label, b.ID, lt, rt)
		if l != r || !lok || !rok {
			line = fmt.Sprintf("%s%s open: %s != %s (%d != %d)", label, b.ID, lt, rt, l, r)
			open = append(open, errors.New(line))
		}
		lines = append(lines, line)
	}
	return strings.Join(lines, "\n"), errors.Join(open...)
}

// rowSums adds rows up by name.
func rowSums(rows ...[]rtwire.MetricPair) map[string]uint64 {
	sums := map[string]uint64{}
	for _, r := range slices.Concat(rows...) {
		sums[r.Name] += r.Value
	}
	return sums
}

// side sums terms and writes them as "a 1 + b 2"; ok is false, and the term
// written "a (no row)", when a term has no row.
func side(sums map[string]uint64, terms []string) (n uint64, text string, ok bool) {
	parts, ok := make([]string, len(terms)), true
	for i, t := range terms {
		v, found := sums[t]
		n, ok, parts[i] = n+v, ok && found, fmt.Sprintf("%s %d", t, v)
		if !found {
			parts[i] = t + " (no row)"
		}
	}
	return n, strings.Join(parts, " + "), ok
}

// metricRows lays the reply's server rows out: the block's, then the log's.
var metricRows = NewRows((*MetricsSnapshot)(nil), (*Metrics)(nil), (*wal.Stats)(nil))

// Snapshot copies the counters; the log's are left zero (see
// Server.MetricsSnapshot).
func (m *Metrics) Snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	metricRows.Load(&s, m)
	return s
}

// MetricsSnapshot is Metrics.Snapshot with the log's counters read where
// they live, as they stand; a server without a log reports them as zero.
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	m := s.Metrics.Snapshot()
	s.logMu.RLock()
	defer s.logMu.RUnlock()
	if s.log != nil {
		st := s.log.Stats()
		metricRows.Load(&m, &st)
	}
	return m
}

// Add folds another shard's snapshot into s: counters add, the gauges
// tagged max (the clock, cascade depth, fsync max) take the max. Each
// shard's block obeys the conservation laws, so the sum does too.
func (s *MetricsSnapshot) Add(o MetricsSnapshot) { metricRows.Add(s, &o) }

// AccountExpired records a deadline-carrying query that a transport
// rejected before submission because its client-relative deadline was
// already consumed on arrival. It books the submission and the miss in one
// step, so BOOK-queries extends over the wire: expired-on-arrival queries
// are counted, never evaluated, never silently dropped.
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
// query, so BOOK-queries holds on a follower too. missed says
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
// in-process consumer) for delivery — the pushed term of BOOK-pushes.
// Transports call it at pop time, after the push has left the bounded
// queue, so a push still exposed to drop-oldest is never double-counted.
func (m *Metrics) AccountPushed() {
	m.Pushed.Add(1)
}

// AccountPushDropped records n subscription pushes discarded undelivered:
// by drop-oldest when a subscriber's bounded queue overflowed, or in bulk
// when a connection tears down with pushes still queued. Like AccountExpired
// on the query side, it keeps the loss on the books: BOOK-pushes stays
// exact through overload and teardown.
func (m *Metrics) AccountPushDropped(n uint64) {
	m.PushDropped.Add(n)
}

// PushAccounted reads BOOK-pushes' right side: every terminal outcome a
// scheduled subscription tick can have.
func (s MetricsSnapshot) PushAccounted() uint64 {
	n, _, _ := side(rowSums(s.Pairs()), pushBook.Right)
	return n
}

// QueriesAccounted reads BOOK-queries' right side: every terminal outcome
// an aperiodic query can have. (ExpiredOnArrival is a subset of
// DeadlineMiss, like RejectMiss of QueriesRejected, so neither is a term.)
func (s MetricsSnapshot) QueriesAccounted() uint64 {
	n, _, _ := side(rowSums(s.Pairs()), queryBook.Right)
	return n
}

// Pairs flattens the snapshot into named rows, in the reply's order.
func (s MetricsSnapshot) Pairs() []rtwire.MetricPair { return metricRows.Append(nil, &s) }

// Table renders the block for the rtdbd metrics printout.
func (s MetricsSnapshot) Table() string {
	t := stats.NewTable("metric", "value")
	for _, p := range s.Pairs() {
		t.Row(p.Name, p.Value)
	}
	return t.String()
}
