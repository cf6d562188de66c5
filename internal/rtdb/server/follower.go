package server

import (
	"errors"
	"strconv"
	"sync/atomic"

	"rtc/internal/rtdb"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
	"rtc/internal/vtime"
)

// This file is the follower role: a hot standby is a Server whose clock and
// database move only with a replication stream. Its follower (package
// replica) appends each shipped batch to the follower's log itself, then hands the
// events to Replicate; Resync swaps the follower onto another log; Promote
// flips the role once, one way, while sessions, connections and standing
// queries stay where they are. What a follower refuses and how it serves
// the rest are branches at the usual decision points: Session.InjectSample
// and Session.Query, SubscribeWake, serveQuery and serveGroupTick.

// ReplMetrics is a follower's replication books, kept by its replica and
// reported under their tags' rows while the server follows.
type ReplMetrics struct {
	BatchesIn       atomic.Uint64 `metric:"repl_batches_in"`       // WalBatch frames applied
	EventsApplied   atomic.Uint64 `metric:"repl_events_applied"`   // events appended to the local log
	DupSkipped      atomic.Uint64 `metric:"repl_dup_skipped"`      // duplicate events skipped (overlap with tail)
	GapResubscribes atomic.Uint64 `metric:"repl_gap_resubscribes"` // batches past tail+1 → re-subscribe
	StaleBatches    atomic.Uint64 `metric:"repl_stale_batches"`    // frames refused for an old fencing epoch
	Reconnects      atomic.Uint64 `metric:"repl_reconnects"`       // re-subscribe attempts after a lost stream
	Promotions      atomic.Uint64 `metric:"repl_promotions"`       // 0 or 1
}

// replRows reads the books straight from the block.
var replRows = NewRows((*ReplMetrics)(nil), (*ReplMetrics)(nil))

// NewFollower builds a server in the follower role over cfg.Log, the log a
// replica's follow stream appends to. It recovers the log's state as New does,
// but installs neither cfg.Spec nor cfg.Rules and never writes the log. A
// state it cannot rebuild — a derived object cfg.Registry cannot bind —
// leaves it incomplete: it refuses queries read-only rather than answer
// wrongly, and cannot be promoted.
func NewFollower(cfg Config) *Server {
	s, _ := newServer(cfg, true)
	return s
}

// Role is what the node announces: RoleStandby while it follows,
// RolePrimary once promoted (or when built by New).
func (s *Server) Role() rtwire.Role {
	if s.following.Load() {
		return rtwire.RoleStandby
	}
	return rtwire.RolePrimary
}

// Replicate applies events a follower's replica has already logged, as one
// apply-loop request. Catalog events enter the database, each sample is
// injected at its own chronon, and firings and query records — the
// primary's bookkeeping — are skipped. The clock then jumps to the batch's
// newest timestamp, the standing-query ticks it made due are served and an
// as-of snapshot is published, all before Replicate returns: a stream that
// acks the batch afterwards has every push it implies already queued.
func (s *Server) Replicate(events []wal.Event) error {
	return s.apply(func() {
		horizon := timeseq.Time(s.clock.Load())
		for _, e := range events {
			horizon = max(horizon, e.At)
			if !s.absorb(e) {
				s.incomplete.Store(true)
			}
		}
		s.advance(horizon)
		s.runSubs()
		s.publishSnapshot()
	})
}

// absorb folds one replicated event into the database; false means the
// database can no longer answer for the log.
func (s *Server) absorb(e wal.Event) bool {
	switch e.Kind {
	case wal.KindInvariant:
		s.db.AddInvariant(e.Name, e.Value)
	case wal.KindImage:
		if _, ok := s.db.Image(e.Name); !ok {
			p, _ := strconv.ParseUint(e.Args[0], 10, 64) // the log validated it
			s.db.AddImage(&rtdb.ImageObject{Name: e.Name, Period: timeseq.Time(p)})
			s.names = append(s.names, e.Name)
		}
	case wal.KindDerived:
		fn, ok := s.cfg.Registry[e.Name]
		if !ok {
			return false
		}
		s.db.AddDerived(&rtdb.DerivedObject{Name: e.Name, Sources: e.Args, Derive: fn})
	case wal.KindSample:
		s.sched.RunUntil(e.At)
		return s.db.InjectSample(e.Name, e.Value) == nil
	}
	return true
}

// Resync rebuilds a follower over a replaced log; no replication path calls
// it today. On the apply loop, with every off-loop reader of the log held
// off, the follower's log is closed and open's takes its place; the
// database is then rebuilt from the new log's state into a fresh rtdb.DB,
// as New recovers one. Attached standing queries stay attached. It returns
// the log open returned; a follower left with none is incomplete.
func (s *Server) Resync(open func() (*wal.Log, error)) (*wal.Log, error) {
	var l *wal.Log
	var err error
	if aerr := s.apply(func() {
		s.logMu.Lock()
		if s.log != nil {
			err = s.log.Close()
		}
		var oerr error
		l, oerr = open()
		err = errors.Join(err, oerr)
		s.log = l
		s.logMu.Unlock()
		if l == nil {
			s.incomplete.Store(true)
			return
		}
		s.sched = vtime.New()
		s.db = rtdb.New(s.sched)
		s.incomplete.Store(s.recover(l.State()) != nil)
		s.cat = nil
		s.publishSnapshot()
	}); aerr != nil {
		return nil, aerr
	}
	return l, err
}

// Promote flips a follower into a primary: the log's fencing epoch is
// bumped, cfg.Rules are installed — replicated samples are history, as
// recovered ones are — and from then on the server takes writes and firm
// deadlines, charges EvalCost, and appends through walAppend. It returns
// the new epoch; a primary returns its epoch unchanged. An incomplete
// follower is refused: it could not answer as a primary.
func (s *Server) Promote() (uint64, error) {
	var epoch uint64
	var err error
	if aerr := s.apply(func() {
		switch {
		case !s.following.Load():
			epoch = s.Epoch()
		case s.incomplete.Load():
			err = errors.New("server: an incomplete follower cannot be promoted")
		default:
			if epoch, err = s.log.BumpEpoch(); err == nil {
				s.installRules()
				s.following.Store(false)
			}
		}
	}); aerr != nil {
		return 0, aerr
	}
	return epoch, err
}

// AppendDurabilityRows appends the node's durability coordinates to a
// metrics reply. wal_seq and epoch carry the same names on both roles, so
// failover tooling reads one coordinate whichever served it. A primary adds
// wal_durable when it has a log and replDurable — the transport's
// follower-acked watermark — as repl_durable; a follower adds its
// replication books.
func (s *Server) AppendDurabilityRows(dst []rtwire.MetricPair, replDurable uint64) []rtwire.MetricPair {
	s.logMu.RLock()
	defer s.logMu.RUnlock()
	row := func(name string, v uint64) { dst = append(dst, rtwire.MetricPair{Name: name, Value: v}) }
	var seq, epoch uint64 = 0, 1
	if s.log != nil {
		seq, epoch = s.log.Seq(), s.log.Epoch()
	}
	following := s.following.Load()
	if following || s.log != nil {
		row("wal_seq", seq)
	}
	if !following && s.log != nil {
		// Under group commit wal_durable may trail wal_seq by the open
		// window; they converge at every commit.
		row("wal_durable", s.log.DurableSeq())
	}
	row("epoch", epoch)
	if !following {
		row("repl_durable", replDurable)
		return dst
	}
	row("repl_seq", seq)
	row("repl_epoch", epoch)
	return replRows.Append(dst, &s.Repl)
}
