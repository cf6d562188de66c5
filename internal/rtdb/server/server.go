package server

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"rtc/internal/deadline"
	"rtc/internal/relational"
	"rtc/internal/rtdb"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/sub"
	"rtc/internal/timeseq"
	"rtc/internal/vtime"
)

// Config describes a server instance.
type Config struct {
	// Spec is the database catalog (invariant, image, derived objects).
	// Image Read functions are ignored: in served mode samples come from
	// client sessions, not from a simulated world.
	Spec rtdb.Spec
	// Catalog resolves query names to their semantics (§5.1.3).
	Catalog rtdb.Catalog
	// Registry re-binds derived-object computations by name after crash
	// recovery, like the acceptor's DeriveRegistry re-binds enc(D).
	Registry rtdb.DeriveRegistry
	// Rules are the active rules installed on the database.
	Rules []rtdb.Rule

	// Sessions is the number of client sessions served (default 1).
	Sessions int
	// QueueDepth bounds each session's request queue (default 64). A full
	// queue rejects instead of blocking.
	QueueDepth int
	// EvalCost is the number of chronons one query evaluation takes
	// (default 1) — the P_w cost model of §4.1.
	EvalCost uint64
	// SnapshotEvery publishes a HistoricalDatabase snapshot for as-of
	// reads every so many chronons (default 16).
	SnapshotEvery timeseq.Time
	// Log, when set, write-ahead-logs catalog, samples, firings, and query
	// issues. If the log already holds state, the server recovers from it
	// and Spec's catalog is ignored.
	Log *wal.Log
}

func (c *Config) defaults() {
	if c.Sessions <= 0 {
		c.Sessions = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.EvalCost == 0 {
		c.EvalCost = 1
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 16
	}
}

// QueryRequest is one aperiodic query under the §4.1 deadline discipline.
type QueryRequest struct {
	Query     string
	Candidate rtdb.Value // optional; empty means "no candidate to match"
	Kind      deadline.Kind
	// Deadline is relative to the issue chronon (cases Firm and Soft).
	Deadline timeseq.Time
	// MinUseful is the minimum acceptable usefulness after the deadline.
	MinUseful uint64
	// U is the §4.1 usefulness decay, evaluated at *relative* time since
	// issue — pass e.g. deadline.Hyperbolic(max, relativeDeadline).
	U deadline.Usefulness
}

// Envelope is the request's §4.1 discipline, by value.
func (q QueryRequest) Envelope() deadline.Envelope {
	return deadline.Envelope{Kind: q.Kind, Deadline: q.Deadline, MinUseful: q.MinUseful, U: q.U}
}

// Response is the server's answer to one aperiodic query.
type Response struct {
	Answers []rtdb.Value
	Match   bool // candidate ∈ answers (false when no candidate given)
	// Useful is the usefulness at service completion (max-valued before
	// the deadline; 0 for a missed firm deadline).
	Useful uint64
	// Missed reports a deadline miss: served at or past a firm deadline,
	// below minimum usefulness on a soft one, or rejected by backpressure
	// or admission control before evaluation.
	Missed bool
	// Evaluated is false when admission control skipped the evaluation.
	Evaluated bool
	// Issue and Served are the issue and completion chronons.
	Issue, Served timeseq.Time
}

// Errors reported by the session API.
var (
	// ErrBackpressure: the session queue is full. For deadline-carrying
	// queries the rejection is accounted as a deadline miss.
	ErrBackpressure = errors.New("server: session queue full")
	// ErrClosed: the server is stopping.
	ErrClosed = errors.New("server: closed")
	// ErrReadOnly: a follower refused a write, or a query or subscription
	// it cannot serve (a firm deadline, or a database that lacks part of its
	// log). Queries are accounted as rejections; netserve answers
	// CodeReadOnly and the client rotates toward the primary.
	ErrReadOnly = errors.New("server: follower is read-only; writes and firm deadlines go to the primary")
)

type reqKind int

const (
	reqSample reqKind = iota
	reqQuery
	reqTick
	reqBarrier
	reqApply
)

type request struct {
	kind    reqKind
	session int
	// sample
	image, value string
	// query; degraded marks one submitted to a follower (serveQuery)
	q        QueryRequest
	issue    timeseq.Time
	degraded bool
	// tick
	chronons uint64
	// apply: an arbitrary closure run on the apply loop (subscription
	// attach/detach — anything that mutates apply-loop-owned state).
	do    func()
	reply chan Response
}

// histSnap is one published as-of snapshot.
type histSnap struct {
	at timeseq.Time
	db *rtdb.HistoricalDatabase
}

// Server serves concurrent sessions over one rtdb.DB.
type Server struct {
	cfg Config

	db       *rtdb.DB
	sched    *vtime.Scheduler
	clock    atomic.Uint64
	firings  int // length of db.FiringLog() already drained
	lastSnap timeseq.Time
	hist     atomic.Pointer[histSnap]

	// log is the write-ahead log (nil: none). The apply loop reads it
	// freely; off the loop it is read under logMu, which a follower's Resync
	// holds while it replaces the log, so no reader ever sees the closed one.
	logMu sync.RWMutex
	log   *wal.Log

	// following is the role (follower.go): set by NewFollower, cleared once
	// by Promote. incomplete marks a follower whose database lacks part of
	// what its log holds; it answers no query rather than answer wrongly.
	following  atomic.Bool
	incomplete atomic.Bool
	// started is set by Start; RegisterPeriodic attaches on the loop after.
	started atomic.Bool

	// names lists the images of the database — the recovered catalog's
	// after a recovery, cfg.Spec's otherwise, grown by a follower's
	// replicated catalog — so publishSnapshot walks this instead of
	// collecting it every period.
	names []string
	// pubLen is each image's history length at its last capture; an image
	// whose length is unchanged is clean and its published relation is
	// shared by pointer into the next snapshot. nil: capture every image.
	pubLen map[string]int
	// sessLabels precomputes the "s<i>" WAL session labels.
	sessLabels []string

	// lastTicket is the newest WAL commit ticket the apply loop produced —
	// the durability frontier a barrier or query ack must wait behind when
	// the log batches fsyncs (group commit). Apply-loop-owned: only read
	// and written from step, never concurrently.
	lastTicket *wal.Ticket

	Metrics Metrics
	// Repl is a follower's replication books, kept by its replica.
	Repl ReplMetrics
	// subs is the one periodic schedule: subscriptions and registered
	// periodic queries are its members. periodic lists the registrations'
	// tallies in registration order, for PeriodicReport.
	subs     *sub.Table
	periodic []*sub.Tally

	inbox    chan request
	sessions []*Session
	quit     chan struct{}
	closed   atomic.Bool
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// New builds a server. If cfg.Log holds recovered state the database is
// rebuilt from it (load-or-recover); otherwise the catalog comes from
// cfg.Spec and is logged. Rules are installed after recovery: recovered
// samples are history, not events, and Rebuild refuses a database where a
// rule could see them.
func New(cfg Config) (*Server, error) {
	return newServer(cfg, false)
}

// newServer builds a primary, or a follower (NewFollower): one that takes
// neither cfg.Spec nor cfg.Rules, and for which a log it cannot rebuild is
// an incomplete database rather than an error.
func newServer(cfg Config, follower bool) (*Server, error) {
	cfg.defaults()
	s := &Server{
		cfg:   cfg,
		log:   cfg.Log,
		sched: vtime.New(),
		subs:  sub.NewTable(),
		inbox: make(chan request, cfg.Sessions),
		quit:  make(chan struct{}),
	}
	s.following.Store(follower)
	s.db = rtdb.New(s.sched)

	if cfg.Log != nil && cfg.Log.State().Events > 0 {
		if err := s.recover(cfg.Log.State()); err != nil {
			if !follower {
				return nil, err
			}
			s.incomplete.Store(true)
		}
	} else if !follower {
		s.installSpec()
	}
	if !follower {
		s.installRules()
	}
	s.publishSnapshot()

	s.sessLabels = make([]string, cfg.Sessions)
	for i := 0; i < cfg.Sessions; i++ {
		s.sessLabels[i] = "s" + strconv.Itoa(i)
		s.sessions = append(s.sessions, &Session{
			id: i, srv: s, queue: make(chan request, cfg.QueueDepth),
		})
	}
	return s, nil
}

// recover rebuilds the database from a log's state and sets the clock to
// the state's last timestamp. The recovered catalog wins: cfg.Spec may name
// images this log never held, or lack some it does. names lists the images
// the rebuild installed, even when it failed part way.
func (s *Server) recover(st *wal.State) error {
	err := st.Rebuild(s.db, s.cfg.Registry)
	s.names = s.names[:0]
	for name := range st.Images {
		if _, ok := s.db.Image(name); ok {
			s.names = append(s.names, name)
		}
	}
	s.advance(st.LastAt)
	return err
}

// installRules installs cfg.Rules. The firing log drains from its current
// length: empty by construction, since no rule ran before.
func (s *Server) installRules() {
	for _, r := range s.cfg.Rules {
		s.db.AddRule(r)
	}
	s.firings = len(s.db.FiringLog())
}

// installSpec installs and write-ahead-logs the catalog.
func (s *Server) installSpec() {
	sp := s.cfg.Spec
	names := make([]string, 0, len(sp.Invariants))
	for n := range sp.Invariants {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.db.AddInvariant(n, sp.Invariants[n])
		s.walAppend(wal.Invariant(n, sp.Invariants[n]))
	}
	for _, o := range sp.Images {
		s.db.AddImage(&rtdb.ImageObject{Name: o.Name, Period: o.Period})
		s.walAppend(wal.Image(o.Name, o.Period))
		s.names = append(s.names, o.Name)
	}
	for _, d := range sp.Derived {
		s.db.AddDerived(&rtdb.DerivedObject{Name: d.Name, Sources: d.Sources, Derive: d.Derive})
		s.walAppend(wal.Derived(d.Name, d.Sources...))
	}
}

// Start launches the apply loop and the session forwarders.
func (s *Server) Start() {
	s.started.Store(true)
	s.wg.Add(1)
	go s.applyLoop()
	for _, c := range s.sessions {
		s.wg.Add(1)
		go c.forward()
	}
}

// Stop shuts the server down: no new submissions are accepted, in-flight
// queue contents are abandoned (their callers unblock with ErrClosed), and
// the WAL is synced.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		s.closed.Store(true)
		close(s.quit)
		s.wg.Wait()
		if s.log != nil {
			// A failed final sync means the tail of the log may not be
			// durable; it is counted, not swallowed.
			if err := s.log.Sync(); err != nil {
				s.Metrics.WalErrors.Add(1)
			}
		}
	})
}

// Session returns the i-th client session handle.
func (s *Server) Session(i int) *Session { return s.sessions[i] }

// Sessions returns the number of client sessions (the transport layer
// sizes its connection pool from it).
func (s *Server) Sessions() int { return len(s.sessions) }

// Now returns the current virtual time, lock-free.
func (s *Server) Now() timeseq.Time { return timeseq.Time(s.clock.Load()) }

// DB exposes the underlying database. It must only be touched while the
// server is stopped (the apply loop owns it while running).
func (s *Server) DB() *rtdb.DB { return s.db }

// WAL exposes the write-ahead log the replication senders ship from: nil
// when the server runs without one, and nil on a follower — replicas do not
// chain, and a follower's log is the only one Resync ever replaces.
func (s *Server) WAL() *wal.Log {
	s.logMu.RLock()
	defer s.logMu.RUnlock()
	if s.following.Load() {
		return nil
	}
	return s.log
}

// Epoch returns the node's fencing epoch: the WAL's persisted epoch, or 1
// for a log-less server (which can never be deposed, having no replica).
func (s *Server) Epoch() uint64 {
	s.logMu.RLock()
	defer s.logMu.RUnlock()
	if s.log == nil {
		return 1
	}
	return s.log.Epoch()
}

// Seq returns the newest sequence in the log (0 without one): on a follower,
// the position its replica has appended through.
func (s *Server) Seq() uint64 {
	s.logMu.RLock()
	defer s.logMu.RUnlock()
	if s.log == nil {
		return 0
	}
	return s.log.Seq()
}

// Tick advances the virtual clock by n chronons through the apply loop —
// idle time during which periodic queries still fire. It blocks until
// applied.
func (s *Server) Tick(n uint64) error {
	return s.roundTrip(s.inbox, request{kind: reqTick, chronons: n})
}

// Barrier blocks until every request enqueued on the inbox before it has
// been applied.
func (s *Server) Barrier() error {
	return s.roundTrip(s.inbox, request{kind: reqBarrier})
}

// roundTrip puts r on to — the inbox, or a session queue to stay FIFO behind
// that session's requests — and waits for the apply loop's answer; a server
// stopping on either side of the hand-off gives ErrClosed. Tick, Barrier,
// apply (subs.go) and Session.Flush go through it.
func (s *Server) roundTrip(to chan<- request, r request) error {
	r.reply = replyPool.Get().(chan Response)
	select {
	case to <- r:
	case <-s.quit:
		return ErrClosed
	}
	select {
	case <-r.reply:
		replyPool.Put(r.reply)
		return nil
	case <-s.quit:
		return ErrClosed
	}
}

// applyLoop is the actor that owns the database and the clock.
func (s *Server) applyLoop() {
	defer s.wg.Done()
	for {
		select {
		case r := <-s.inbox:
			s.step(r)
		case <-s.quit:
			return
		}
	}
}

// step applies one request, advances the clock, runs due periodic
// invocations, and publishes as-of snapshots on period boundaries.
func (s *Server) step(r request) {
	now := timeseq.Time(s.clock.Load())
	s.sched.RunUntil(now)
	switch r.kind {
	case reqSample:
		if err := s.db.InjectSample(r.image, r.value); err == nil {
			s.Metrics.SamplesApplied.Add(1)
			s.walAppend(wal.Sample(now, r.image, r.value))
		}
		s.drainFirings(now)
		s.advance(now + 1)
	case reqQuery:
		resp := s.serveQuery(r, now)
		// The session's ack waits for the query's WAL issue record to be
		// fsynced (a no-op outside group-commit mode); a firm query sealed
		// the window in serveQuery, so its ack is not window-delayed.
		s.replyAfterDurable(r.reply, resp)
	case reqTick:
		s.tickTo(now + timeseq.Time(r.chronons))
		r.reply <- Response{}
	case reqBarrier:
		// Flush is the durability barrier: close the open commit window so
		// the batch leader fsyncs now, and ack once it has.
		if t := s.lastTicket; t != nil && !t.Resolved() && s.log != nil {
			s.log.CloseWindow()
		}
		s.replyAfterDurable(r.reply, Response{})
	case reqApply:
		r.do()
		r.reply <- Response{}
	}
	s.runSubs()
	s.maybePublish()
}

// tickTo advances idle time to target chronon by chronon with respect to
// the periodic schedule: each due invocation is served at its due time (not
// at the end of the jump), so idle ticks do not manufacture deadline misses.
func (s *Server) tickTo(target timeseq.Time) {
	for {
		now := timeseq.Time(s.clock.Load())
		if now >= target {
			return
		}
		due, pending := s.subs.NextDue()
		if !pending || due > target {
			s.advance(target)
			return
		}
		if due > now {
			s.advance(due)
		}
		s.runSubs()
	}
}

// advance moves the virtual clock to t and mirrors it into the metrics.
func (s *Server) advance(t timeseq.Time) {
	s.clock.Store(uint64(t))
	s.Metrics.Chronon.Store(uint64(t))
}

// serveQuery runs one aperiodic query under admission control. Evaluation
// costs EvalCost chronons; the deadline discipline is judged at completion
// time, mirroring P_m's comparison in §4.1. A degraded query — one a
// follower took — is evaluated at the replicated horizon at no cost and
// neither moves the clock nor logs (DESIGN.md §2).
func (s *Server) serveQuery(r request, now timeseq.Time) Response {
	finish := now
	if r.degraded {
		s.Metrics.Degraded.Add(1)
	} else {
		finish += timeseq.Time(s.cfg.EvalCost)
	}
	resp := Response{Issue: r.issue, Served: finish}

	env := r.q.Envelope()
	useful, late := env.Score(finish - r.issue)
	if !env.Admissible(useful, late) {
		// Admission control: completing the evaluation provably cannot
		// meet the discipline — skip the work, account the miss.
		resp.Missed = true
		resp.Useful = useful
		s.Metrics.AdmissionSkip.Add(1)
		s.Metrics.DeadlineMiss.Add(1)
		return resp
	}

	q, ok := s.cfg.Catalog[r.q.Query]
	if !ok || r.degraded && s.incomplete.Load() {
		resp.Missed = r.q.Kind != deadline.None
		if resp.Missed {
			s.Metrics.DeadlineMiss.Add(1)
		} else {
			s.Metrics.NoDeadline.Add(1)
		}
		return resp
	}
	resp.Evaluated = true
	resp.Answers = q(s.db.ViewNow())
	if r.q.Candidate != "" {
		for _, a := range resp.Answers {
			if a == r.q.Candidate {
				resp.Match = true
				break
			}
		}
	}
	if !r.degraded {
		s.advance(finish)
		if s.log != nil {
			s.walAppendFirm(wal.Query(r.issue, s.sessLabels[r.session], r.q.Query, r.q.Candidate,
				uint64(r.q.Kind), uint64(r.q.Deadline), r.q.MinUseful), r.q.Kind == deadline.Firm)
		}
	}

	// Anything the admission test let through meets the discipline at
	// finish (the clock only advanced to the estimate it tested).
	resp.Useful = useful
	if r.q.Kind == deadline.None {
		s.Metrics.NoDeadline.Add(1)
	} else {
		s.Metrics.DeadlineHit.Add(1)
	}
	return resp
}

// drainFirings write-ahead-logs rule firings since the last drain and
// updates the cascade metrics.
func (s *Server) drainFirings(now timeseq.Time) {
	logged := s.db.FiringLog()
	for _, f := range logged[s.firings:] {
		s.Metrics.RuleFirings.Add(1)
		rule := f
		if i := strings.IndexByte(f, ':'); i >= 0 {
			rule = f[i+1:]
		}
		s.walAppend(wal.Firing(now, rule))
	}
	s.firings = len(logged)
	if d := uint64(s.db.CascadeDepthMax()); d > s.Metrics.CascadeDepthMax.Load() {
		s.Metrics.CascadeDepthMax.Store(d)
	}
}

// walAppend appends one event when a log is configured, returning the
// commit ticket the caller may wait on for durability (nil when there is
// no log or the append was rejected). The append itself never blocks on
// the commit window — with group commit enabled the fsync happens later,
// and acks that require durability park on the ticket off the apply loop.
func (s *Server) walAppend(e wal.Event) *wal.Ticket {
	return s.walAppendFirm(e, false)
}

// walAppendFirm is walAppend with an immediate-flush request: firm seals
// the open commit window so a firm-deadline ack is never held hostage to
// the window's tail — the §4.1 admission promise extends through the WAL.
// A follower never appends: its replica logs what the primary logged.
func (s *Server) walAppendFirm(e wal.Event, firm bool) *wal.Ticket {
	if s.log == nil || s.following.Load() {
		return nil
	}
	t, err := s.log.AppendTicket(e, firm)
	if err != nil {
		s.Metrics.WalErrors.Add(1)
		return nil
	}
	s.Metrics.WalAppends.Add(1)
	s.lastTicket = t
	return t
}

// replyAfterDurable delivers a response once the newest WAL append this
// request produced is fsynced — group commit's ack-after-fsync discipline.
// With no log, per-append fsync, or an already-committed batch the reply
// is immediate; otherwise a goroutine parks on the ticket so the apply
// loop keeps serving other sessions while the window fills. The reply
// channel is buffered, so the send cannot block even when the requester
// abandoned the wait at shutdown.
func (s *Server) replyAfterDurable(reply chan Response, resp Response) {
	if t := s.lastTicket; t != nil && !t.Resolved() {
		go func() {
			_ = t.Wait()
			reply <- resp
		}()
		return
	}
	reply <- resp
}

// maybePublish publishes a fresh HistoricalDatabase snapshot when the
// publication period elapsed.
func (s *Server) maybePublish() {
	now := timeseq.Time(s.clock.Load())
	if now >= s.lastSnap+s.cfg.SnapshotEvery || s.hist.Load() == nil {
		s.publishSnapshot()
	}
}

// publishSnapshot publishes the as-of view incrementally: the previous
// snapshot is cloned copy-on-write, images whose histories grew since
// their last capture get a fresh O(1) timeline capture, and clean images'
// relations are shared by pointer. The snapshot-level horizon extends
// every shared relation's newest value to the publication instant, so a
// quiet image still answers as-of reads up to the present. Publish cost is
// O(#images + delta), independent of total history — the flat-latency
// property the serving layer promises.
func (s *Server) publishSnapshot() {
	// Snapshot at the served clock, not the (possibly lagging) scheduler
	// clock, so the newest sample's validity extends to the present.
	now := timeseq.Time(s.clock.Load())
	s.sched.RunUntil(now)
	prev := s.hist.Load()
	fresh := prev == nil || s.pubLen == nil
	var out *rtdb.HistoricalDatabase
	if fresh {
		out = rtdb.NewHistoricalDatabase()
		s.pubLen = make(map[string]int, len(s.names))
	} else {
		out = prev.db.Clone()
	}
	for _, name := range s.names {
		img, _ := s.db.Image(name)
		if n := len(img.History()); fresh || n != s.pubLen[name] {
			out.Add(rtdb.FromLiveImage(img, now))
			s.pubLen[name] = n
		}
	}
	out.SetHorizon(now)
	s.hist.Store(&histSnap{at: now, db: out})
	s.lastSnap = now
}

// HistoryHorizon returns the time through which as-of reads are current.
func (s *Server) HistoryHorizon() timeseq.Time {
	if h := s.hist.Load(); h != nil {
		return h.at
	}
	return 0
}

// AsOf evaluates a relational query against the published snapshot at time
// t — §5.1.2's R(u, t) served without touching the write path.
func (s *Server) AsOf(q relational.Query, t timeseq.Time) (*relational.Relation, error) {
	h := s.hist.Load()
	if h == nil {
		return nil, fmt.Errorf("server: no snapshot published yet")
	}
	s.Metrics.AsOfReads.Add(1)
	return h.db.QueryAt(q, t)
}

// ValueAsOf returns an image object's value at time t from the published
// snapshot — a binary search over the image's captured timeline, so the
// read costs O(log history), allocation-free, at any server age.
func (s *Server) ValueAsOf(image string, t timeseq.Time) (rtdb.Value, bool) {
	h := s.hist.Load()
	if h == nil {
		return "", false
	}
	s.Metrics.AsOfReads.Add(1)
	return h.db.ValueAsOf(image, t)
}
