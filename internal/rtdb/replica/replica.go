// Package replica is the follower side of rtdbd replication: a node that
// follows the primary's write-ahead log — one client.Follow stream over the
// rtwire replication frames (Subscribe → WalBatch/WalAck), the client's own
// connection engine — into a log of its own, and serves hot-standby reads
// through one server.Server in the follower role: the same sessions,
// as-of snapshots and standing-query engine a primary serves
// through, refusing writes and firm-deadline queries with server.ErrReadOnly
// and answering the rest degraded from replicated state. Promote flips that
// server to a primary in place.
//
// Correctness rests on three invariants:
//
//   - Byte identity. A WalBatch carries the primary's WAL record payloads as
//     it framed them, and wal.Log.AppendBatch frames those same bytes, so
//     after applying sequence n the replica's log prefix is byte-identical
//     to the primary's first n frames and the recovery invariant (state
//     built from log == live state) holds across the network hop. The server
//     applies the events the log decoded (server.Replicate), never appending.
//   - Sequence discipline. Events apply in order, exactly once: a batch
//     overlapping the local tail has its duplicate prefix skipped; a batch
//     starting past tail+1 is a gap and forces a re-subscribe from the
//     local tail. The log is the one Open opened, for the replica's whole
//     life: a batch of a state dump (Snap set) is refused before the log is
//     touched, and a position the primary's log cannot extend — past its
//     tail, or behind what it can still read — is refused by the primary
//     (Err{CodeStale}), so the replica applies nothing and re-subscribes.
//   - Fencing. Every replication frame carries the primary's epoch. A
//     frame with an epoch older than the replica's own persisted epoch is
//     from a deposed primary and is refused; a newer epoch is adopted and
//     persisted before any of its events apply — from a Welcome, Heartbeat
//     or PromoteInfo too, batch or no batch. Promote bumps the epoch, so a
//     promoted replica can never be recaptured by its old primary.
package replica

import (
	"errors"
	"net"
	"sync"
	"time"

	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// Config describes one replica node.
type Config struct {
	// Primary is the address of the primary to follow.
	Primary string
	// WAL configures the replica's own write-ahead log (its durability is
	// independent of the primary's: a replica with Sync on survives its own
	// crashes at the sequence it acked).
	WAL wal.Options
	// PromoteAfter, when positive, promotes the replica automatically at the
	// first re-subscribe attempt after the stream's reads have waited this
	// long on the primary (counting failed redials). Only a lost stream
	// retries, so the replica's own fsync and replay never promote it, nor
	// does a primary it never reached. Zero means promotion is manual
	// (Promote). The primary only speaks on an idle link to echo the
	// follower's beacons, so it needs them on (Client.HeartbeatInterval ≥ 0);
	// the stream is cut only after 3 beacon intervals of silence, so a
	// shorter PromoteAfter acts no sooner.
	PromoteAfter time.Duration
	// Client tunes the follow stream's connection, with the client's
	// defaults: name, timeouts, redial walk, beacon interval (3 bound the
	// primary's silence) and the Dialer torture tests inject faults through.
	Client client.Options
}

// Replication protocol states surfaced as errors to the follow stream.
var (
	errStaleBatch = errors.New("replica: batch from a deposed primary epoch")
	errGap        = errors.New("replica: sequence gap; re-subscribe required")
	errStopped    = errors.New("replica: promoted or closed; the stream is over")
	errSnapBatch  = errors.New("replica: a state-dump (Snap) batch: no primary sends one")
)

// Replica is one follower node.
type Replica struct {
	cfg Config
	srv *server.Server // its Repl books are the follow stream's to keep

	// mu guards cl/promoted/closed/seqCh/ns and is held
	// across a whole batch — its log append and its server.Replicate — so Seq
	// never sees a sequence whose events the server has not applied, and
	// Promote never lands inside a batch. Holding it across the server's
	// requests cannot deadlock: the apply loop never takes it, and a stopped
	// server answers ErrClosed. The stream's client calls its hooks holding
	// its own lock, so nothing here calls the client holding mu. The replica
	// owns log for its whole life: Open opened it, and Close closes it; srv
	// reads it.
	mu       sync.Mutex
	log      *wal.Log
	cl       *client.Client // the follow stream, once Start ran
	promoted bool
	closed   bool
	seqCh    chan struct{}    // closed and replaced on every applied batch
	ns       *netserve.Server // the standby listener, once ServeOn ran

	promotedCh chan struct{}
	quit       chan struct{}
	closeOnce  sync.Once
	wg         sync.WaitGroup
}

// Open loads (or creates) the replica's local WAL and starts a follower
// server over it (server.NewFollower) with sc — whose catalog and registry
// answer degraded reads, whose Sessions bound the standby's connections and
// whose Rules are installed at promotion; sc.Log is ignored. The follow
// stream is not started; call Start.
func Open(cfg Config, sc server.Config) (*Replica, error) {
	if cfg.PromoteAfter > 0 && cfg.Client.HeartbeatInterval < 0 {
		return nil, errors.New("replica: PromoteAfter needs the follower's beacons (Client.HeartbeatInterval ≥ 0): without them nothing bounds the stream's silence, and an idle primary says nothing else")
	}
	l, err := wal.Open(cfg.WAL)
	if err != nil {
		return nil, err
	}
	sc.Log = l
	r := &Replica{
		cfg:        cfg,
		srv:        server.NewFollower(sc),
		log:        l,
		seqCh:      make(chan struct{}),
		promotedCh: make(chan struct{}),
		quit:       make(chan struct{}),
	}
	r.srv.Start()
	return r, nil
}

// Start opens the follow stream.
func (r *Replica) Start() {
	cl := client.Follow(r.cfg.Primary, r.cfg.Client, client.FollowSpec{
		After: r.Seq,
		Apply: r.applyBatch,
		Adopt: r.adoptEpoch,
		Retry: r.retry,
	})
	r.mu.Lock()
	r.cl = cl
	r.mu.Unlock()
}

// retry is the follow stream's re-subscribe hook (client.FollowSpec.Retry):
// it books the reconnect and, once the primary has been silent for
// PromoteAfter, promotes the replica.
func (r *Replica) retry(silence time.Duration) {
	r.srv.Repl.Reconnects.Add(1)
	if r.cfg.PromoteAfter > 0 && silence >= r.cfg.PromoteAfter {
		_, _ = r.Promote()
	}
}

// Server returns the node's server: a follower until promotion, a primary
// after. Its Metrics are the node's books in either role.
func (r *Replica) Server() *server.Server { return r.srv }

// Log returns the replica's WAL. The replica owns it: Close closes it.
func (r *Replica) Log() *wal.Log { return r.log }

// Seq returns the sequence number of the newest applied event.
func (r *Replica) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.Seq()
}

// Epoch returns the replica's persisted fencing epoch.
func (r *Replica) Epoch() uint64 { return r.srv.Epoch() }

// Promoted returns a channel closed when the replica promotes itself (or
// is promoted).
func (r *Replica) Promoted() <-chan struct{} { return r.promotedCh }

// WaitSeq blocks until the replica has applied at least seq, or the
// timeout (or Close) intervenes.
func (r *Replica) WaitSeq(seq uint64, timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		// The check and the channel it waits on are taken together: a batch
		// landing between them would close a channel never waited on.
		r.mu.Lock()
		if r.log.Seq() >= seq {
			r.mu.Unlock()
			return true
		}
		ch := r.seqCh
		r.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			return false
		case <-r.quit:
			return false
		}
	}
}

// ServeOn serves the node on an already-bound listener — the injection
// point torture tests use to put the standby behind a faultnet fabric — and
// returns the listener's server, which keeps serving through a promotion.
// Close drains it.
func (r *Replica) ServeOn(ln net.Listener, opt netserve.Options) (*netserve.Server, error) {
	ns := netserve.New(r.srv, opt)
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
	return ns, nil
}

// Promote fences the old primary and turns this node into the new one in
// place: the follow stream stops, and the server bumps and persists the epoch,
// installs its rules and takes writes from then on (server.Promote). The
// listener keeps running, so connections and subscriptions survive; every
// connected client is told (PromoteInfo, best-effort: Promote never waits on
// a client's socket). A follower the server refuses to promote (its
// database is incomplete) keeps following, and once Close has begun Promote
// refuses.
func (r *Replica) Promote() (uint64, error) {
	r.mu.Lock()
	switch {
	case r.promoted:
		r.mu.Unlock()
		return r.srv.Epoch(), nil
	case r.closed:
		r.mu.Unlock()
		return 0, errStopped
	}
	epoch, err := r.srv.Promote()
	if err != nil {
		r.mu.Unlock()
		return 0, err
	}
	r.promoted = true
	seq, ns, cl := r.log.Seq(), r.ns, r.cl
	r.mu.Unlock()
	r.srv.Repl.Promotions.Add(1) // counted before anyone waiting on Promoted wakes
	close(r.promotedCh)
	if ns != nil {
		ns.PromoteInfo(epoch, seq)
	}
	// Last: a Bye to a stalled primary may wait out a write timeout, and
	// nothing the stream still reads can land (applyBatch refuses it).
	if cl != nil {
		cl.Close()
	}
	return epoch, nil
}

// Close stops the follow stream, drains the listener (each client gets a
// Bye and its subscriptions' books are closed), stops the server and closes
// the local WAL — in either role.
func (r *Replica) Close() error {
	r.closeOnce.Do(func() {
		close(r.quit)
		r.mu.Lock()
		r.closed = true // the stream's read loop is not ours to wait for: refuse it
		cl, ns := r.cl, r.ns
		r.mu.Unlock()
		if cl != nil {
			cl.Close()
		}
		if ns != nil {
			_ = ns.Close()
		}
	})
	r.wg.Wait()
	r.srv.Stop()
	return r.log.Close()
}

// applyBatch folds one WalBatch into the local log and then the server. It
// is the unit the protocol tests drive directly: epoch fencing, duplicate
// skipping, gap detection and the refusal of a Snap batch all live here.
func (r *Replica) applyBatch(b rtwire.WalBatch) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.promoted || r.closed:
		return errStopped // read before the promotion or Close; it must not land after
	case b.Snap != rtwire.SnapNone:
		return errSnapBatch
	case b.Epoch < r.log.Epoch():
		r.srv.Repl.StaleBatches.Add(1)
		return errStaleBatch
	}
	if err := r.log.AdoptEpoch(b.Epoch); err != nil {
		return err
	}

	seq := r.log.Seq()
	if b.FirstSeq > seq+1 {
		r.srv.Repl.GapResubscribes.Add(1)
		return errGap
	}
	// Skip the duplicate prefix, then land the fresh suffix with ONE fsync
	// via AppendBatch — the primary ships whole commit batches, and the
	// follower pays one fsync per shipped batch instead of one per event, so
	// its durability cadence matches the primary's group-commit cadence.
	dup := min(seq+1-b.FirstSeq, uint64(len(b.Events)))
	r.srv.Repl.DupSkipped.Add(dup)
	applied, aerr := r.log.AppendBatch(b.Events[dup:])
	// On a mid-batch error exactly the applied prefix reached the log; the
	// server must absorb the same prefix or degraded reads drift.
	r.srv.Repl.EventsApplied.Add(uint64(len(applied)))
	if err := r.srv.Replicate(applied); err != nil {
		return err
	}
	if aerr != nil {
		return aerr
	}
	r.srv.Repl.BatchesIn.Add(1)
	r.appliedLocked()
	return nil
}

// appliedLocked wakes WaitSeq callers. Caller holds mu.
func (r *Replica) appliedLocked() {
	close(r.seqCh)
	r.seqCh = make(chan struct{})
}

// adoptEpoch is the follow stream's fence (client.FollowSpec.Adopt): it
// persists a newer primary epoch, and refuses an older one, counted.
func (r *Replica) adoptEpoch(e uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.promoted || r.closed:
		return false
	case e < r.log.Epoch():
		r.srv.Repl.StaleBatches.Add(1)
		return false
	}
	_ = r.log.AdoptEpoch(e) // a failed write fails the batch behind it
	return true
}
