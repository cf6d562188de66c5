// Package replica is the follower side of rtdbd replication: a node that
// dials the primary, tails its write-ahead log over the rtwire replication
// frames (Subscribe → WalBatch/WalAck) into a log of its own, and serves
// hot-standby reads through one server.Server in the follower role: the same
// sessions, copy-on-write as-of snapshots and standing-query engine a
// primary serves through, refusing writes and firm-deadline queries with
// server.ErrReadOnly and answering the rest degraded from replicated state.
// Promote flips that server to a primary in place.
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
//     persisted before any of its events apply. Promote bumps the epoch,
//     so a promoted replica can never be recaptured by its old primary.
package replica

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rtc/internal/faultnet"
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
	// Name identifies this follower in its Subscribe frame.
	Name string

	// DialTimeout bounds one connect to the primary (default 5s).
	DialTimeout time.Duration
	// RetryBackoff / RetryBackoffMax bound the jittered reconnect pauses
	// (defaults 50ms / 2s); Seed makes the schedule reproducible.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	Seed            uint64
	// HeartbeatTimeout cuts the primary connection after this much inbound
	// silence (default 45s — 3× the primary's default beacon interval).
	HeartbeatTimeout time.Duration
	// PromoteAfter, when positive, promotes the replica automatically once
	// the primary has been silent (counting failed redials) for this long.
	// Zero means promotion is manual (Promote).
	PromoteAfter time.Duration
	// WriteTimeout bounds one write of the tailer's own frames (Hello,
	// Subscribe, WalAck) to the primary (default 10s).
	WriteTimeout time.Duration
	// Dialer makes the tailer's connections to the primary (default
	// faultnet.OS — a real TCP dial). Torture tests inject partitions and
	// stalls into the replication stream through it.
	Dialer faultnet.Dialer
}

func (c *Config) defaults() {
	if c.Name == "" {
		c.Name = "replica"
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = uint64(time.Now().UnixNano())
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 45 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.Dialer == nil {
		c.Dialer = faultnet.OS{}
	}
}

// Replication protocol states surfaced as errors inside the tailer.
var (
	errStaleBatch = errors.New("replica: batch from a deposed primary epoch")
	errGap        = errors.New("replica: sequence gap; re-subscribe required")
	errPromoted   = errors.New("replica: promoted; the stream is over")
	errNoLog      = errors.New("replica: no log: a failed resync could not reopen the directory")
)

// readMsg is the tailer's decode path.
func readMsg(br *bufio.Reader) (any, error) {
	f, err := rtwire.ReadFrame(br)
	if err != nil {
		return nil, err
	}
	return rtwire.Decode(f)
}

// Replica is one follower node.
type Replica struct {
	cfg Config
	srv *server.Server // its Repl books are the tailer's to keep

	// mu guards log/pendingSnap/conn/promoted/seqCh/ns and is held across a
	// whole batch — its log append and its server.Replicate — so Seq never
	// sees a sequence whose events the server has not applied, and Promote
	// never lands inside a batch. Holding it across the server's requests
	// cannot deadlock: the apply loop never takes it, and a stopped server
	// answers ErrClosed. The replica owns log: it opened it, and Close
	// closes it; srv reads it.
	mu          sync.Mutex
	log         *wal.Log
	pendingSnap []wal.Event
	conn        net.Conn // live tailer connection
	promoted    bool
	seqCh       chan struct{}    // closed and replaced on every applied batch
	ns          *netserve.Server // the standby listener, once ServeOn ran

	lastHeard atomic.Int64 // unix nanos of the newest primary frame
	connected atomic.Bool  // a subscription succeeded at least once

	promotedCh chan struct{}
	quit       chan struct{}
	closeOnce  sync.Once
	wg         sync.WaitGroup
}

// Open loads (or creates) the replica's local WAL and starts a follower
// server over it (server.NewFollower) with sc — whose catalog and registry
// answer degraded reads, whose Sessions bound the standby's connections and
// whose Rules are installed at promotion; sc.Log is ignored. The tailer is
// not started; call Start.
func Open(cfg Config, sc server.Config) (*Replica, error) {
	cfg.defaults()
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
	r.lastHeard.Store(time.Now().UnixNano())
	r.srv.Start()
	return r, nil
}

// Start launches the tailer (and the auto-promotion watchdog when
// configured).
func (r *Replica) Start() {
	r.wg.Add(1)
	go r.tail()
	if r.cfg.PromoteAfter > 0 {
		r.wg.Add(1)
		go r.watchdog()
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

// Listen starts the standby listener on addr in a background goroutine and
// returns the bound address. opt is what a primary's listener would take.
func (r *Replica) Listen(addr string, opt netserve.Options) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := r.ServeOn(ln, opt); err != nil {
		return nil, err
	}
	return ln.Addr(), nil
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
// place: the tailer stops, and the server bumps and persists the epoch,
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
	if r.conn != nil {
		r.conn.Close()
	}
	seq, ns := r.log.Seq(), r.ns
	r.mu.Unlock()
	r.srv.Repl.Promotions.Add(1) // counted before anyone waiting on Promoted wakes
	close(r.promotedCh)
	if ns != nil {
		ns.PromoteInfo(epoch, seq)
	}
	return epoch, nil
}

// Close stops the tailer, drains the listener (each client gets a Bye and
// its subscriptions' books are closed), stops the server and closes the
// local WAL — in either role.
func (r *Replica) Close() error {
	r.closeOnce.Do(func() {
		close(r.quit)
		r.mu.Lock()
		if r.conn != nil {
			r.conn.Close()
		}
		ns := r.ns
		r.mu.Unlock()
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

// tail is the follower loop: connect, subscribe, stream, and on any loss
// redial on the client's decorrelated-jitter walk.
func (r *Replica) tail() {
	defer r.wg.Done()
	bo := client.NewBackoff(r.cfg.Seed, r.cfg.RetryBackoff, r.cfg.RetryBackoffMax)
	for {
		select {
		case <-r.quit:
			return
		case <-r.promotedCh:
			return
		default:
		}
		if err := r.streamOnce(); err == nil {
			bo.Reset() // clean end (Bye)
		}
		select {
		case <-r.quit:
			return
		case <-r.promotedCh:
			return
		default:
		}
		r.srv.Repl.Reconnects.Add(1)
		select {
		case <-time.After(bo.Next()):
		case <-r.quit:
			return
		case <-r.promotedCh:
			return
		}
	}
}

// streamOnce runs one subscription: handshake, Subscribe from the local
// tail, then apply WalBatch frames until the stream dies.
func (r *Replica) streamOnce() error {
	conn, err := r.cfg.Dialer.DialTimeout("tcp", r.cfg.Primary, r.cfg.DialTimeout)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.promoted {
		r.mu.Unlock()
		conn.Close()
		return nil
	}
	r.conn = conn
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		if r.conn == conn {
			r.conn = nil
		}
		r.mu.Unlock()
		conn.Close()
	}()

	w, br, err := client.Handshake(conn, r.cfg.Name, r.cfg.WriteTimeout, r.cfg.DialTimeout)
	if err != nil {
		return err
	}
	if w.Epoch < r.Epoch() {
		// The "primary" is itself deposed; refuse to follow it.
		r.srv.Repl.StaleBatches.Add(1)
		return fmt.Errorf("replica: primary %s announces stale epoch %d (have %d)",
			r.cfg.Primary, w.Epoch, r.Epoch())
	}
	_ = r.adoptEpoch(w.Epoch)

	_ = conn.SetWriteDeadline(time.Now().Add(r.cfg.WriteTimeout))
	subscribe := rtwire.Subscribe{AfterSeq: r.Seq(), Follower: r.cfg.Name}
	if _, err := conn.Write(subscribe.Encode()); err != nil {
		return err
	}
	r.connected.Store(true)
	r.lastHeard.Store(time.Now().UnixNano())

	for {
		_ = conn.SetReadDeadline(time.Now().Add(r.cfg.HeartbeatTimeout))
		msg, err := readMsg(br)
		if err != nil {
			return err
		}
		r.lastHeard.Store(time.Now().UnixNano())
		switch m := msg.(type) {
		case rtwire.WalBatch:
			// The server has served every standing-query tick the batch
			// made due before applyBatch returns, so the pushes an acked seq
			// implies are queued by the time anyone can observe that seq.
			if err := r.applyBatch(m); err != nil {
				return err // a gap redials; Subscribe restarts from the local tail
			}
			_ = conn.SetWriteDeadline(time.Now().Add(r.cfg.WriteTimeout))
			if _, err := conn.Write(rtwire.WalAck{Seq: r.Seq()}.Encode()); err != nil {
				return err
			}
		case rtwire.Heartbeat:
			if m.Epoch < r.Epoch() {
				r.srv.Repl.StaleBatches.Add(1)
				return errStaleBatch
			}
			_ = r.adoptEpoch(m.Epoch)
		case rtwire.PromoteInfo:
			_ = r.adoptEpoch(m.Epoch)
		case rtwire.Err:
			return fmt.Errorf("replica: primary refused: %v", m)
		case rtwire.Bye:
			return nil
		default:
			// Tolerated: unknown-but-decodable frames don't kill the stream.
		}
	}
}

// applyBatch folds one WalBatch into the local log and then the server. It
// is the unit the protocol tests drive directly: epoch fencing, duplicate
// skipping, gap detection, and snapshot bootstrap all live here.
func (r *Replica) applyBatch(b rtwire.WalBatch) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.promoted:
		return errPromoted // read before the promotion; it must not land after
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

// adoptEpoch persists a newer primary epoch.
func (r *Replica) adoptEpoch(e uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return errNoLog
	}
	return r.log.AdoptEpoch(e)
}

// watchdog auto-promotes once the primary has been silent for PromoteAfter.
// It only fires after at least one successful subscription — a replica that
// never reached any primary has nothing worth promoting.
func (r *Replica) watchdog() {
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
			if !r.connected.Load() {
				continue
			}
			silent := time.Since(time.Unix(0, r.lastHeard.Load()))
			if silent >= r.cfg.PromoteAfter {
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
