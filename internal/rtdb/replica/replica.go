// Package replica is the follower side of rtdbd replication: a node that
// follows the primary's write-ahead log — one client.Follow stream over the
// rtwire replication frames (Subscribe → WalBatch/WalAck), the client's own
// connection engine — into a log of its own, and serves hot-standby reads
// through one server.Server in the follower role: the same sessions,
// copy-on-write as-of snapshots and standing-query engine a primary serves
// through, refusing writes and firm-deadline queries with server.ErrReadOnly
// and answering the rest degraded from replicated state. Promote flips that
// server to a primary in place.
//
// Correctness rests on three invariants:
//
//   - Byte identity. A WalBatch carries the raw WAL record payloads; the
//     replica re-frames them through wal.Log.AppendBatch, so after applying
//     sequence n its log prefix is byte-identical to the primary's first n
//     frames and the recovery invariant (state built from log == live
//     state) holds transitively across the network hop. The server applies
//     what the log took (server.Replicate) and never appends itself.
//   - Sequence discipline. Events apply in order, exactly once: a batch
//     overlapping the local tail has its duplicate prefix skipped; a batch
//     starting past tail+1 is a gap and forces a re-subscribe from the
//     local tail; a catch-up target that the primary compacted away
//     arrives as a full-state resync (Snap frames → wal.Bootstrap, then
//     server.Resync).
//   - Fencing. Every replication frame carries the primary's epoch. A
//     frame with an epoch older than the replica's own persisted epoch is
//     from a deposed primary and is refused; a newer epoch is adopted and
//     persisted before any of its events apply — from a Welcome, Heartbeat
//     or PromoteInfo too, batch or no batch. Promote bumps the epoch, so a
//     promoted replica can never be recaptured by its old primary.
package replica

import (
	"errors"
	"fmt"
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
	// PromoteAfter, when positive, promotes the replica automatically once
	// the primary has been silent (counting failed redials) for this long.
	// Zero means promotion is manual (Promote).
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
	errNoLog      = errors.New("replica: no log: a failed resync could not reopen the directory")
)

// Replica is one follower node.
type Replica struct {
	cfg Config
	srv *server.Server // its Repl books are the follow stream's to keep

	// mu guards log/pendingSnap/cl/promoted/closed/seqCh/ns and is held
	// across a whole batch — its log append and its server.Replicate — so Seq
	// never sees a sequence whose events the server has not applied, and
	// Promote never lands inside a batch. Holding it across the server's
	// requests cannot deadlock: the apply loop never takes it, and a stopped
	// server answers ErrClosed. The stream's client calls its hooks holding
	// its own lock, so nothing here calls the client holding mu. The replica
	// owns log: it opened it, and Close closes it; srv reads it.
	mu          sync.Mutex
	log         *wal.Log
	pendingSnap []wal.Event
	cl          *client.Client // the follow stream, once Start ran
	promoted    bool
	closed      bool
	seqCh       chan struct{}    // closed and replaced on every applied batch
	ns          *netserve.Server // the standby listener, once ServeOn ran

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

// Start opens the follow stream (and the auto-promotion watchdog when
// configured).
func (r *Replica) Start() {
	cl := client.Follow(r.cfg.Primary, r.cfg.Client, client.FollowSpec{
		After: r.Seq,
		Apply: r.applyBatch,
		Adopt: r.adoptEpoch,
		Retry: func() { r.srv.Repl.Reconnects.Add(1) },
	})
	r.mu.Lock()
	r.cl = cl
	r.mu.Unlock()
	if r.cfg.PromoteAfter > 0 {
		r.wg.Add(1)
		go r.watchdog(cl)
	}
}

// Server returns the node's server: a follower until promotion, a primary
// after. Its Metrics are the node's books in either role.
func (r *Replica) Server() *server.Server { return r.srv }

// Log returns the replica's WAL — nil only when a failed resync could not
// even reopen its directory. The replica owns it: Close closes it.
func (r *Replica) Log() *wal.Log {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log
}

// Seq returns the sequence number of the newest applied event.
func (r *Replica) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seqLocked()
}

func (r *Replica) seqLocked() uint64 {
	if r.log == nil {
		return 0
	}
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
		if r.seqLocked() >= seq {
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
// database is incomplete) keeps following.
func (r *Replica) Promote() (uint64, error) {
	r.mu.Lock()
	if r.promoted {
		r.mu.Unlock()
		return r.srv.Epoch(), nil
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
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return nil
	}
	return r.log.Close()
}

// applyBatch folds one WalBatch into the local log and then the server. It
// is the unit the protocol tests drive directly: epoch fencing, duplicate
// skipping, gap detection, and snapshot bootstrap all live here.
func (r *Replica) applyBatch(b rtwire.WalBatch) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.promoted || r.closed:
		return errStopped // read before the promotion or Close; it must not land after
	case r.log == nil:
		return errNoLog
	case b.Epoch < r.log.Epoch():
		r.srv.Repl.StaleBatches.Add(1)
		return errStaleBatch
	}
	if err := r.log.AdoptEpoch(b.Epoch); err != nil {
		return err
	}

	switch b.Snap {
	case rtwire.SnapPart:
		for _, p := range b.Events {
			e, ok := wal.DecodeEvent(p)
			if !ok {
				r.pendingSnap = nil
				return fmt.Errorf("replica: undecodable snapshot record")
			}
			r.pendingSnap = append(r.pendingSnap, e)
		}
		return nil
	case rtwire.SnapFinal:
		events := r.pendingSnap
		r.pendingSnap = nil
		l, err := r.srv.Resync(func() (*wal.Log, error) {
			l, err := wal.Bootstrap(r.cfg.WAL, events, b.SnapSeq, b.SnapLastAt)
			if err != nil {
				// Keep whatever the directory holds as the log, so the
				// next resync has one to replace.
				l, _ = wal.Open(r.cfg.WAL)
			}
			return l, err
		})
		r.log = l
		if err != nil {
			return fmt.Errorf("replica: resync: %w", err)
		}
		r.srv.Repl.Resyncs.Add(1)
		r.srv.Repl.BatchesIn.Add(1)
		r.appliedLocked()
		return nil
	}

	seq := r.log.Seq()
	if b.FirstSeq > seq+1 {
		r.srv.Repl.GapResubscribes.Add(1)
		return errGap
	}
	// Decode the fresh suffix, then land it with ONE fsync via AppendBatch —
	// the primary ships whole commit batches, and the follower pays one
	// fsync per shipped batch instead of one per event, so its durability
	// cadence matches the primary's group-commit cadence.
	fresh := make([]wal.Event, 0, len(b.Events))
	for i, p := range b.Events {
		es := b.FirstSeq + uint64(i)
		if es <= seq {
			r.srv.Repl.DupSkipped.Add(1)
			continue
		}
		e, ok := wal.DecodeEvent(p)
		if !ok {
			return fmt.Errorf("replica: undecodable record at seq %d", es)
		}
		fresh = append(fresh, e)
	}
	applied, aerr := r.log.AppendBatch(fresh)
	// On a mid-batch error exactly the prefix [0,applied) reached the log;
	// the server must absorb the same prefix or degraded reads drift.
	r.srv.Repl.EventsApplied.Add(uint64(applied))
	if err := r.srv.Replicate(fresh[:applied]); err != nil {
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
	case r.promoted || r.closed || r.log == nil:
		return false
	case e < r.log.Epoch():
		r.srv.Repl.StaleBatches.Add(1)
		return false
	}
	_ = r.log.AdoptEpoch(e) // a failed write fails the batch behind it
	return true
}

// watchdog auto-promotes once the primary has been silent for PromoteAfter.
// It only fires after the stream first connected — a replica that never
// reached any primary has nothing worth promoting.
func (r *Replica) watchdog(cl *client.Client) {
	defer r.wg.Done()
	tick := r.cfg.PromoteAfter / 4
	if tick <= 0 {
		tick = r.cfg.PromoteAfter
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if cl.Silence() >= r.cfg.PromoteAfter {
				_, _ = r.Promote()
				return
			}
		case <-r.promotedCh:
			return
		case <-r.quit:
			return
		}
	}
}
