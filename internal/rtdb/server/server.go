package server

import (
	"errors"
	"slices"
	"sort"
	"strconv"
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
	// QueueDepth is the most requests a session holds that the apply loop
	// has not taken yet (default 64). A full queue rejects, never blocks.
	QueueDepth int
	// EvalCost is the number of chronons one query evaluation takes
	// (default 1) — the P_w cost model of §4.1.
	EvalCost uint64
	// SnapshotEvery publishes a snapshot of the image histories for as-of
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

// histSnap is one published as-of snapshot: the catalog it was captured
// under, each image's history slice header (hist[i] is cat.names[i]'s) and
// the publication instant, through which the newest sample of every image
// stays valid. Histories are append-only, so a captured header's prefix
// never changes underneath a reader.
type histSnap struct {
	at   timeseq.Time
	cat  *pubCatalog
	hist [][]rtdb.Sample
}

// pubCatalog is the image catalog snapshots are captured under. It is never
// mutated: a catalog that grows or is replaced gets a new one, and
// snapshots that share one share the positions of their headers.
type pubCatalog struct {
	names []string
	idx   map[string]int
}

func newPubCatalog(names []string) *pubCatalog {
	c := &pubCatalog{names: slices.Clone(names), idx: make(map[string]int, len(names))}
	for i, n := range c.names {
		c.idx[n] = i
	}
	return c
}

// valueAt is the as-of lookup inside one snapshot.
func (h *histSnap) valueAt(image string, t timeseq.Time) (rtdb.Value, bool) {
	i, ok := h.cat.idx[image]
	if !ok {
		return "", false
	}
	smp, ok := rtdb.SampleAt(h.hist[i], t, h.at)
	return smp.Value, ok
}

// Server serves concurrent sessions over one rtdb.DB.
type Server struct {
	cfg Config

	db       *rtdb.DB
	sched    *vtime.Scheduler
	clock    atomic.Uint64
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
	// cat is the catalog the next snapshot is captured under; it is rebuilt
	// when names grows, and nil (rebuild) after Resync replaced names.
	// imgs[i] is cat.names[i]'s image object, rebuilt with cat.
	cat  *pubCatalog
	imgs []*rtdb.ImageObject

	// lastTicket is the newest WAL commit ticket the apply loop produced —
	// the durability frontier a barrier or query ack must wait behind when
	// the log batches fsyncs (group commit); the zero Ticket is resolved.
	// Apply-loop-owned: only read and written from step, never concurrently.
	lastTicket wal.Ticket

	Metrics Metrics
	// Repl is a follower's replication books, kept by its replica.
	Repl ReplMetrics
	// subs is the one periodic schedule: subscriptions and registered
	// periodic queries are its members. periodic lists the registrations'
	// tallies in registration order, for PeriodicReport.
	subs     *sub.Table
	periodic []*sub.Tally

	// inbox carries Tick, Barrier and apply; ready holds a token when a
	// session queue may hold a request the apply loop has not seen.
	inbox    chan request
	ready    chan struct{}
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
		ready: make(chan struct{}, 1),
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

	for i := range cfg.Sessions {
		c := &Session{id: i, label: "s" + strconv.Itoa(i), srv: s, queue: make(chan request, cfg.QueueDepth)}
		s.sessions = append(s.sessions, c)
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

// installRules installs cfg.Rules.
func (s *Server) installRules() {
	for _, r := range s.cfg.Rules {
		s.db.AddRule(r)
	}
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

// Start launches the apply loop, the server's one goroutine.
func (s *Server) Start() {
	s.started.Store(true)
	s.wg.Add(1)
	go s.applyLoop()
}

// Stop shuts the server down: no new submissions are accepted, in-flight
// queue contents are abandoned (their callers unblock with ErrClosed) and
// booked as refused (refuseQueued), so the books close, and the WAL is
// synced.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		s.closed.Store(true)
		close(s.quit)
		s.wg.Wait()
		for _, c := range s.sessions {
			s.refuseQueued(c)
		}
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
// chain. Only a follower's log is ever replaced, and only through Resync.
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

// Barrier blocks until the apply loop has applied everything it took before
// this: the inbox ahead of it, and what it took from session queues. What a
// session queue still holds is that session's Flush's to wait for.
func (s *Server) Barrier() error {
	return s.roundTrip(s.inbox, request{kind: reqBarrier})
}

// roundTrip puts r on to — the inbox, or a session queue, waiting for room,
// to stay FIFO behind that session — wakes the apply loop and awaits its
// answer. Tick, Barrier, apply (subs.go) and Session.Flush go through it.
func (s *Server) roundTrip(to chan<- request, r request) error {
	r.reply = replyPool.Get().(chan Response)
	select {
	case to <- r:
		s.wake()
	case <-s.quit:
		return ErrClosed
	}
	_, err := s.await(r.reply)
	return err
}

// wake posts the apply loop's ready token, unless one is already posted.
func (s *Server) wake() {
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// applyLoop is the actor that owns the database and the clock. It works in
// passes: each takes at most one request from every session queue, in
// session order, and then polls the inbox once, so sessions are served
// round-robin, each in its own FIFO order. A pass that finds nothing sleeps
// until the inbox fills, a session posts ready or the server stops.
func (s *Server) applyLoop() {
	defer s.wg.Done()
	for {
		took := false
		for _, c := range s.sessions {
			if len(c.queue) > 0 { // the loop is every queue's one receiver
				s.step(<-c.queue)
				took = true
			}
		}
		if took {
			select {
			case r := <-s.inbox:
				s.step(r)
			case <-s.quit:
				return
			default:
			}
			continue
		}
		select {
		case r := <-s.inbox:
			s.step(r)
		case <-s.ready:
		case <-s.quit:
			return
		}
	}
}

// refuseQueued books what is left in c's queue of a closed server as
// refused, like a full queue's, once the apply loop, the queue's one other
// receiver, has exited. Stop calls it, and so does a submitter whose request
// landed after Stop closed the server: Stop may have emptied the queue
// before it arrived.
func (s *Server) refuseQueued(c *Session) {
	s.wg.Wait()
	for {
		select {
		case r := <-c.queue:
			switch r.kind {
			case reqSample:
				s.Metrics.SamplesIn.Add(^uint64(0))
				s.Metrics.SamplesRejected.Add(1)
			case reqQuery:
				s.Metrics.accountRejected(r.q.Kind)
			}
		default:
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
		} else { // an image the database lacks: refused, as by a full queue
			s.Metrics.SamplesIn.Add(^uint64(0))
			s.Metrics.SamplesRejected.Add(1)
		}
		s.drainFirings(now)
		s.advance(now + 1)
	case reqQuery:
		resp := s.serveQuery(r, now)
		// The session's ack waits for the query's WAL issue record to be
		// fsynced (a no-op on a log without Sync); a firm query sealed
		// the window in serveQuery, so its ack is not window-delayed.
		s.replyAfterDurable(r.reply, resp)
	case reqTick:
		s.tickTo(now + timeseq.Time(r.chronons))
	case reqBarrier:
		// Flush is the durability barrier: close the open commit window so
		// the batch leader fsyncs now, and ack once it has.
		if !s.lastTicket.Resolved() && s.log != nil {
			s.log.CloseWindow()
		}
		s.replyAfterDurable(r.reply, Response{})
	case reqApply:
		r.do()
		r.reply <- Response{}
	}
	s.runSubs()
	s.maybePublish()
	if r.kind == reqTick {
		// Answered after the trailing pass: a Tick's caller that reads the
		// periodic books next must not catch a tick mid-tally.
		r.reply <- Response{}
	}
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
	resp.Match = r.q.Candidate != "" && slices.Contains(resp.Answers, r.q.Candidate)
	if !r.degraded {
		s.advance(finish)
		if s.log != nil {
			s.walAppendFirm(wal.Query(r.issue, s.sessions[r.session].label, r.q.Query, r.q.Candidate,
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

// drainFirings write-ahead-logs the rule firings since the last drain, takes
// them from the database and updates the cascade metrics.
func (s *Server) drainFirings(now timeseq.Time) {
	for _, f := range s.db.Firings() {
		s.Metrics.RuleFirings.Add(1)
		s.walAppend(wal.Firing(now, f.Rule))
	}
	s.db.ClearFirings()
	if d := uint64(s.db.CascadeDepthMax()); d > s.Metrics.CascadeDepthMax.Load() {
		s.Metrics.CascadeDepthMax.Store(d)
	}
}

// walAppend appends one event when a log is configured, and makes its
// commit ticket lastTicket. The append itself never blocks on the commit
// window — with group commit enabled the fsync happens later, and acks
// that require durability park on the ticket off the apply loop.
func (s *Server) walAppend(e wal.Event) {
	s.walAppendFirm(e, false)
}

// walAppendFirm is walAppend with an immediate-flush request: firm seals
// the open commit window so a firm-deadline ack is never held hostage to
// the window's tail — the §4.1 admission promise extends through the WAL.
// A follower never appends: its replica logs what the primary logged.
func (s *Server) walAppendFirm(e wal.Event, firm bool) {
	if s.log == nil || s.following.Load() {
		return
	}
	t, err := s.log.AppendTicket(e, firm)
	if err != nil {
		s.Metrics.WalErrors.Add(1)
		return
	}
	s.Metrics.WalAppends.Add(1)
	s.lastTicket = *t // AppendTicket inlines: t never leaves this frame
}

// replyAfterDurable delivers a response once the newest WAL append this
// request produced is fsynced — group commit's ack-after-fsync discipline.
// With no log, a log without Sync, or an already-committed batch the reply
// is immediate; otherwise a goroutine parks on the ticket so the apply
// loop keeps serving other sessions while the window fills. The reply
// channel is buffered, so the send cannot block even when the requester
// abandoned the wait at shutdown.
func (s *Server) replyAfterDurable(reply chan Response, resp Response) {
	if !s.lastTicket.Resolved() {
		t := s.lastTicket // copied here only: the goroutine moves it to the heap
		go func() {
			_ = t.Wait()
			reply <- resp
		}()
		return
	}
	reply <- resp
}

// maybePublish publishes a fresh as-of snapshot when the publication
// period elapsed.
func (s *Server) maybePublish() {
	now := timeseq.Time(s.clock.Load())
	if now >= s.lastSnap+s.cfg.SnapshotEvery || s.hist.Load() == nil {
		s.publishSnapshot()
	}
}

// publishSnapshot publishes the as-of view: one header per image, copied
// from the live histories. When no history's length changed — histories
// only grow, so a changed length is the only change there is — the previous
// snapshot's headers are shared whole; otherwise every header is taken
// afresh into one new slice. A publish therefore allocates the snapshot and
// at most one slice of headers, whatever the number of images or the length
// of their histories, and looks no image up by name: s.imgs holds them. The
// snapshot's instant extends every image's newest value to the present, so
// a quiet image still answers as-of reads up to now.
func (s *Server) publishSnapshot() {
	// Snapshot at the served clock, not the (possibly lagging) scheduler
	// clock, so the newest sample's validity extends to the present.
	now := timeseq.Time(s.clock.Load())
	s.sched.RunUntil(now)
	if s.cat == nil || len(s.cat.names) != len(s.names) {
		s.cat = newPubCatalog(s.names)
		s.imgs = make([]*rtdb.ImageObject, len(s.cat.names))
		for i, name := range s.cat.names {
			s.imgs[i], _ = s.db.Image(name)
		}
	}
	prev := s.hist.Load()
	changed := prev == nil || prev.cat != s.cat
	for i := 0; !changed && i < len(s.imgs); i++ {
		changed = len(s.imgs[i].History()) != len(prev.hist[i])
	}
	var hist [][]rtdb.Sample
	if !changed {
		hist = prev.hist // shared whole
	} else {
		hist = make([][]rtdb.Sample, len(s.imgs))
		for i, img := range s.imgs {
			hist[i] = img.History()
		}
	}
	s.hist.Store(&histSnap{at: now, cat: s.cat, hist: hist})
	s.lastSnap = now
}

// ImageName returns the published catalog's own string for the image named
// by raw, without allocating; false when it has none. netserve decodes each
// sample's image field through it (rtwire.DecodeSample).
func (s *Server) ImageName(raw []byte) (string, bool) {
	c := s.hist.Load().cat
	if i, ok := c.idx[string(raw)]; ok {
		return c.names[i], true
	}
	return "", false
}

// HistoryHorizon returns the time through which as-of reads are current.
func (s *Server) HistoryHorizon() timeseq.Time { return s.hist.Load().at }

// AsOf evaluates a relational query against the published snapshot at time
// t — §5.1.2's R(u, t) over relations built from the snapshot's headers.
func (s *Server) AsOf(q relational.Query, t timeseq.Time) (*relational.Relation, error) {
	h := s.hist.Load()
	s.Metrics.AsOfReads.Add(1)
	db := rtdb.NewHistoricalDatabase()
	for i, name := range h.cat.names {
		db.Add(rtdb.NewTimelineRelation(name, h.hist[i], h.at))
	}
	return db.QueryAt(q, t)
}

// AsOfValue returns an image object's value at time t and the horizon of
// the snapshot that answered, both from one published snapshot — a binary
// search over the image's captured history, so the read costs
// O(log history), allocation-free, at any server age.
func (s *Server) AsOfValue(image string, t timeseq.Time) (rtdb.Value, bool, timeseq.Time) {
	h := s.hist.Load()
	s.Metrics.AsOfReads.Add(1)
	v, ok := h.valueAt(image, t)
	return v, ok, h.at
}

// ValueAsOf is AsOfValue without the horizon.
func (s *Server) ValueAsOf(image string, t timeseq.Time) (rtdb.Value, bool) {
	v, ok, _ := s.AsOfValue(image, t)
	return v, ok
}
