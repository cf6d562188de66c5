// Package replica is the follower side of rtdbd replication: a node that
// dials the primary, tails its write-ahead log over the rtwire replication
// frames (Subscribe → WalBatch/WalAck), applies every event through the
// same append-and-apply path the primary used, and serves hot-standby
// reads — temporal as-of queries, metrics, and degraded (soft or
// deadline-less) catalog queries — while refusing writes and firm-deadline
// queries with CodeReadOnly.
//
// Correctness rests on three invariants:
//
//   - Byte identity. A WalBatch carries the raw WAL record payloads; the
//     replica re-frames them through wal.Log.Append, so after applying
//     sequence n its log prefix is byte-identical to the primary's first n
//     frames and the recovery invariant (state built from log == live
//     state) holds transitively across the network hop.
//   - Sequence discipline. Events apply in order, exactly once: a batch
//     overlapping the local tail has its duplicate prefix skipped; a batch
//     starting past tail+1 is a gap and forces a re-subscribe from the
//     local tail; a catch-up target that the primary compacted away
//     arrives as a full-state resync (Snap frames → wal.Bootstrap).
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
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rtc/internal/faultnet"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtdb/sub"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
	"rtc/internal/vtime"
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
	// Catalog and Registry give the standby its degraded-mode query
	// semantics; with a nil Catalog every query is refused read-only.
	Catalog  rtdb.Catalog
	Registry rtdb.DeriveRegistry

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

// Metrics is the replica's counter block (the standby serving path also
// maintains a full server.Metrics for the query conservation law).
type Metrics struct {
	BatchesIn       atomic.Uint64 // WalBatch frames applied
	EventsApplied   atomic.Uint64 // events appended to the local log
	DupSkipped      atomic.Uint64 // duplicate events skipped (overlap with tail)
	GapResubscribes atomic.Uint64 // batches past tail+1 → re-subscribe
	Resyncs         atomic.Uint64 // full-state bootstraps completed
	StaleBatches    atomic.Uint64 // frames refused for an old fencing epoch
	Reconnects      atomic.Uint64 // tailer redials after a lost stream
	Promotions      atomic.Uint64 // 0 or 1
	MirrorErrors    atomic.Uint64 // events the standby query mirror rejected
}

// Replication protocol states surfaced as errors inside the tailer.
var (
	errStaleBatch = errors.New("replica: batch from a deposed primary epoch")
	errGap        = errors.New("replica: sequence gap; re-subscribe required")
)

// histSnap is one published as-of snapshot; the standby backend reads it
// lock-free while the tailer publishes.
type histSnap struct {
	at  timeseq.Time
	seq uint64
	db  *rtdb.HistoricalDatabase
}

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

	mu          sync.Mutex // guards log/mirror/pendingSnap/conn/promoted/seqCh/ns
	log         *wal.Log
	db          *rtdb.DB // degraded-query mirror (nil: queries refused)
	sched       *vtime.Scheduler
	pendingSnap []wal.Event
	conn        net.Conn // live tailer connection
	promoted    bool
	seqCh       chan struct{}    // closed and replaced on every applied batch
	ns          *netserve.Server // the standby listener, once ServeOn ran

	hist      atomic.Pointer[histSnap]
	lastHeard atomic.Int64 // unix nanos of the newest primary frame
	connected atomic.Bool  // a subscription succeeded at least once

	Metrics server.Metrics
	Repl    Metrics

	// smu guards subs, the standing queries attached through the standby
	// listener (standby.go). Lock order: smu before mu, never the reverse.
	smu  sync.Mutex
	subs *sub.Table

	promotedCh chan struct{}
	quit       chan struct{}
	closeOnce  sync.Once
	wg         sync.WaitGroup
}

// Open loads (or creates) the replica's local WAL and builds the standby
// query mirror from whatever state it already holds. The tailer is not
// started; call Start.
func Open(cfg Config) (*Replica, error) {
	cfg.defaults()
	l, err := wal.Open(cfg.WAL)
	if err != nil {
		return nil, err
	}
	r := &Replica{
		cfg:        cfg,
		log:        l,
		seqCh:      make(chan struct{}),
		subs:       sub.NewTable(),
		promotedCh: make(chan struct{}),
		quit:       make(chan struct{}),
	}
	r.lastHeard.Store(time.Now().UnixNano())
	r.rebuildMirrorLocked()
	r.publishLocked()
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

// Seq returns the sequence number of the newest applied event.
func (r *Replica) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.Seq()
}

// Epoch returns the replica's persisted fencing epoch.
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.Epoch()
}

// Log exposes the replica's WAL. Only safe to use after Close or Promote
// has stopped the tailer — the promotion path hands it to a full server.
func (r *Replica) Log() *wal.Log {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log
}

// Promoted returns a channel closed when the replica promotes itself (or
// is promoted).
func (r *Replica) Promoted() <-chan struct{} { return r.promotedCh }

// WaitSeq blocks until the replica has applied at least seq, or the
// timeout (or Close) intervenes.
func (r *Replica) WaitSeq(seq uint64, timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
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

// Promote fences the old primary and turns this node into the new one: the
// tailer stops, the epoch is bumped and persisted, and every connected
// standby client is told (PromoteInfo, best-effort: Promote never waits on a
// client's socket) so it can follow the promotion. The caller then owns
// Log() and typically builds a full server on it.
func (r *Replica) Promote() (uint64, error) {
	r.mu.Lock()
	if r.promoted {
		e := r.log.Epoch()
		r.mu.Unlock()
		return e, nil
	}
	r.promoted = true
	if r.conn != nil {
		r.conn.Close()
	}
	epoch, err := r.log.BumpEpoch()
	seq := r.log.Seq()
	ns := r.ns
	r.mu.Unlock()
	close(r.promotedCh)
	r.Repl.Promotions.Add(1)
	if err != nil {
		return 0, err
	}
	if ns != nil {
		ns.PromoteInfo(epoch, seq)
	}
	return epoch, nil
}

// Close stops the tailer, drains the standby listener (each client gets a
// Bye and its subscriptions' books are closed) and closes the local WAL.
// After a Promote, the WAL is left open for the promoted server to own.
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
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promoted {
		return nil // the promoted server owns the log now
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
		r.Repl.Reconnects.Add(1)
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
		r.Repl.StaleBatches.Add(1)
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
			switch err := r.applyBatch(m); {
			case err == nil:
				// The horizon moved: schedule every standby subscription tick
				// it crossed before acking, so the pushes an applied seq
				// implies are queued by the time anyone can observe that seq.
				r.scheduleTicks()
			case errors.Is(err, errGap):
				return err // redial; Subscribe restarts from the local tail
			default:
				return err
			}
			_ = conn.SetWriteDeadline(time.Now().Add(r.cfg.WriteTimeout))
			if _, err := conn.Write(rtwire.WalAck{Seq: r.Seq()}.Encode()); err != nil {
				return err
			}
		case rtwire.Heartbeat:
			if m.Epoch < r.Epoch() {
				r.Repl.StaleBatches.Add(1)
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

// applyBatch folds one WalBatch into the local log and mirror. It is the
// unit the protocol tests drive directly: epoch fencing, duplicate
// skipping, gap detection, and snapshot bootstrap all live here.
func (r *Replica) applyBatch(b rtwire.WalBatch) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b.Epoch < r.log.Epoch() {
		r.Repl.StaleBatches.Add(1)
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
		if err := r.log.Close(); err != nil {
			return err
		}
		l, err := wal.Bootstrap(r.cfg.WAL, events, b.SnapSeq, b.SnapLastAt)
		if err != nil {
			return fmt.Errorf("replica: bootstrap: %w", err)
		}
		r.log = l
		if err := r.log.AdoptEpoch(b.Epoch); err != nil {
			return err
		}
		r.rebuildMirrorLocked()
		r.Repl.Resyncs.Add(1)
		r.Repl.BatchesIn.Add(1)
		r.finishApplyLocked()
		return nil
	}

	seq := r.log.Seq()
	if b.FirstSeq > seq+1 {
		r.Repl.GapResubscribes.Add(1)
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
			r.Repl.DupSkipped.Add(1)
			continue
		}
		e, ok := wal.DecodeEvent(p)
		if !ok {
			return fmt.Errorf("replica: undecodable record at seq %d", es)
		}
		fresh = append(fresh, e)
	}
	applied, aerr := r.log.AppendBatch(fresh)
	// On a mid-batch error exactly the prefix [0,applied) reached the log's
	// state; the mirror must absorb the same prefix or degraded reads drift.
	for _, e := range fresh[:applied] {
		r.mirrorApplyLocked(e)
		r.Repl.EventsApplied.Add(1)
	}
	if aerr != nil {
		return aerr
	}
	r.Repl.BatchesIn.Add(1)
	r.finishApplyLocked()
	return nil
}

// finishApplyLocked publishes a fresh as-of snapshot and wakes WaitSeq
// callers. Caller holds mu.
func (r *Replica) finishApplyLocked() {
	r.publishLocked()
	close(r.seqCh)
	r.seqCh = make(chan struct{})
}

// publishLocked converts the log state's sample histories into the
// HistoricalDatabase the standby's as-of reads are served from.
func (r *Replica) publishLocked() {
	st := r.log.State()
	r.hist.Store(&histSnap{at: st.LastAt, seq: st.Events, db: st.Historical(st.LastAt)})
}

// rebuildMirrorLocked reconstructs the degraded-query mirror from the log
// state through the rebuild server recovery uses (wal.State.Rebuild). A
// state the registry cannot rebuild (unknown derived object) leaves the
// mirror nil — queries are then refused read-only rather than answered
// wrongly.
func (r *Replica) rebuildMirrorLocked() {
	r.db, r.sched = nil, nil
	if r.cfg.Catalog == nil {
		return
	}
	sched := vtime.New()
	db := rtdb.New(sched)
	if err := r.log.State().Rebuild(db, r.cfg.Registry); err != nil {
		r.Repl.MirrorErrors.Add(1)
		return
	}
	r.db, r.sched = db, sched
}

// mirrorApplyLocked folds one live event into the query mirror.
func (r *Replica) mirrorApplyLocked(e wal.Event) {
	if r.db == nil {
		return
	}
	switch e.Kind {
	case wal.KindInvariant:
		r.db.AddInvariant(e.Name, e.Value)
	case wal.KindImage:
		if len(e.Args) != 1 {
			r.Repl.MirrorErrors.Add(1)
			return
		}
		p, err := strconv.ParseUint(e.Args[0], 10, 64)
		if err != nil {
			r.Repl.MirrorErrors.Add(1)
			return
		}
		r.db.AddImage(&rtdb.ImageObject{Name: e.Name, Period: timeseq.Time(p)})
	case wal.KindDerived:
		fn, ok := r.cfg.Registry[e.Name]
		if !ok {
			// The mirror can no longer answer queries over this object;
			// drop it entirely rather than serve wrong answers.
			r.Repl.MirrorErrors.Add(1)
			r.db, r.sched = nil, nil
			return
		}
		r.db.AddDerived(&rtdb.DerivedObject{Name: e.Name, Sources: e.Args, Derive: fn})
	case wal.KindSample:
		r.sched.RunUntil(e.At)
		if err := r.db.InjectSample(e.Name, e.Value); err != nil {
			r.Repl.MirrorErrors.Add(1)
		}
	}
	// Firings and query issues are bookkeeping, not mirror state.
}

// adoptEpoch persists a newer primary epoch.
func (r *Replica) adoptEpoch(e uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
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
