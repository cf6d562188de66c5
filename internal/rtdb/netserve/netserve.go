// Package netserve puts an rtdbd node on the wire: a listener that binds each
// accepted connection to one session of the *server.Server it serves and
// speaks the rtwire protocol — timed samples, aperiodic queries with the
// §4.1 deadline envelope, standing queries, temporal as-of reads, metrics
// snapshots and, where the server has a WAL, replication to followers.
//
// It serves one type in either role. A hot standby is a server in the
// follower role (server.NewFollower), so a primary and a standby get one
// accept loop, one handshake, one session pool, one bounded single-writer
// queue, one set of timeouts and counters, and one delivery path for
// pushes. What the role changes reaches this package only as values and
// errors — server.ErrReadOnly becomes CodeReadOnly — plus the two things a
// listener announces about its node: the durability rows and the heartbeat
// sequence. A promotion flips the role under a running listener, so
// connections and subscriptions survive it.
//
// Its counters are WireMetrics, a block declared like the server's: each
// field carries its net_ row name in a tag, and server.Rows derives the
// snapshot, the rows and the sum over listeners. A metrics reply is the
// server's rows, then these, then the node's durability rows.
//
// The serving discipline extends the in-process one without weakening it:
//
//   - Each connection is one timed word. Frames are consumed in FIFO order
//     and submitted to the connection's session, so the per-session
//     ordering guarantees of the apply loop survive the network hop.
//   - Deadlines travel client-relative and are anchored at arrival: a
//     query that arrives with its budget already consumed is rejected
//     unevaluated and accounted as a deadline miss through
//     Metrics.AccountExpired, so BOOK-queries holds end to end over TCP.
//   - Responses go through a bounded per-connection write queue drained by
//     a dedicated writer goroutine, which is also the pump of the
//     connection's standing queries; the apply loop never blocks on a slow
//     client. Session-queue overload comes back as an rtwire.Err frame
//     with CodeBackpressure, never as silence.
//   - Close drains gracefully: accepts stop, readers stop, in-flight
//     queries finish, each session is flushed before its id returns to the
//     pool, and queued responses are written out before the socket closes.
package netserve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// idleCap is the longest inbound silence any connection is allowed, however
// slowly it was told to expect beacons.
const idleCap = 2 * time.Minute

// Options tunes the listener. The zero value is serviceable.
type Options struct {
	// WriteQueue bounds the per-connection outgoing frame queue
	// (default 64).
	WriteQueue int
	// MaxInflight bounds concurrent blocking requests (queries, flushes)
	// per connection; further frames wait in the kernel's receive buffer —
	// natural TCP backpressure (default 16).
	MaxInflight int
	// WriteTimeout bounds one socket write to a slow client; a write may
	// carry several coalesced frames (default 10s).
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the Hello/Welcome exchange (default 5s).
	HandshakeTimeout time.Duration
	// HeartbeatInterval is the beacon interval this listener requires of
	// its clients, followers included: a connection silent for 3× of it is
	// cut. The listener beacons nothing itself; it echoes each client
	// Heartbeat (default 15s).
	HeartbeatInterval time.Duration
	// ReplWindow bounds the unacknowledged events in flight to one
	// follower; a follower that stops acking stalls only its own sender
	// (default 256).
	ReplWindow int
	// ReplBatch bounds the events per WalBatch frame (default 64).
	ReplBatch int
	// ReplStallTimeout evicts a follower whose send window has been full
	// with zero ack progress for this long: the connection is cut and the
	// follower re-catches-up on its redial, instead of pinning a sender
	// goroutine (and the window's worth of buffers) forever behind a
	// half-open socket (default 30s).
	ReplStallTimeout time.Duration
	// Shard and Shards place this listener in a sharded deployment: the
	// Welcome frame advertises them so clients verify placement against
	// rtwire.ShardOf and route object traffic to the owning shard's
	// listener. The zero values mean unsharded (Shards defaults to 1).
	Shard  int
	Shards int
}

func (o *Options) defaults() {
	if o.WriteQueue <= 0 {
		o.WriteQueue = 64
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 16
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 5 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 15 * time.Second
	}
	if o.ReplWindow <= 0 {
		o.ReplWindow = 256
	}
	if o.ReplBatch <= 0 {
		o.ReplBatch = 64
	}
	if o.ReplStallTimeout <= 0 {
		o.ReplStallTimeout = 30 * time.Second
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("netserve: server closed")

// Server serves rtwire connections over one *server.Server.
type Server struct {
	srv *server.Server
	opt Options
	// pool holds the ids of srv's free sessions: a connection checks one
	// out for its lifetime, so srv's Sessions bound the live connections.
	pool chan int

	// mu guards ln and conns, and orders Serve's wg.Add against Close's
	// wg.Wait: both the Add and the close of quit happen under it.
	mu    sync.Mutex
	ln    net.Listener
	conns map[*conn]struct{}

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// Replication durability watermark: replAcked tracks the highest seq
	// each live follower has acknowledged; replDurable is the monotone max
	// of the minimum across followers — the highest seq known to survive
	// this node's death. Every heartbeat a primary echoes advertises it (never
	// the local WAL tail), so a client's failover watermark only ever covers
	// writes a standby actually holds. Sticky on follower disconnect: what
	// was once replicated stays replicated.
	replMu      sync.Mutex
	replAcked   map[*conn]uint64
	replDurable atomic.Uint64

	// Wire is the transport-level counter block, the per-connection
	// metrics folded into one place (connections add into it live).
	Wire WireMetrics
}

// New serves srv, in whichever role it holds. Every session of srv is
// placed in the connection pool, so srv.Config.Sessions bounds the
// concurrent connections; an accept beyond that is refused with
// CodeServerFull.
func New(srv *server.Server, opt Options) *Server {
	opt.defaults()
	n := &Server{
		srv:       srv,
		opt:       opt,
		pool:      make(chan int, srv.Sessions()),
		conns:     make(map[*conn]struct{}),
		replAcked: make(map[*conn]uint64),
		quit:      make(chan struct{}),
	}
	for id := 0; id < srv.Sessions(); id++ {
		n.pool <- id
	}
	return n
}

// Serve accepts connections on ln until Close. It blocks; run it in a
// goroutine. After Close it returns ErrServerClosed.
func (n *Server) Serve(ln net.Listener) error {
	n.mu.Lock()
	if n.ln != nil {
		n.mu.Unlock()
		return fmt.Errorf("netserve: Serve called twice")
	}
	if n.draining() {
		// Close ran before Serve got here and found no listener to close.
		n.mu.Unlock()
		_ = ln.Close()
		return ErrServerClosed
	}
	n.ln = ln
	n.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if n.draining() {
				return ErrServerClosed
			}
			return err
		}
		n.Wire.ConnsAccepted.Add(1)
		// The Add must not race Close's Wait: take it under mu, behind the
		// quit check Close orders itself against.
		n.mu.Lock()
		if n.draining() {
			n.mu.Unlock()
			n.Wire.ConnsRefused.Add(1)
			_ = c.Close()
			return ErrServerClosed
		}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.handle(c)
	}
}

// draining reports whether Close has begun.
func (n *Server) draining() bool {
	select {
	case <-n.quit:
		return true
	default:
		return false
	}
}

// Listen starts serving on addr (e.g. "127.0.0.1:0") in a background
// goroutine and returns the bound listener address.
func (n *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = n.Serve(ln) }()
	return ln.Addr(), nil
}

// Addr returns the bound listener address (nil before Serve/Listen).
func (n *Server) Addr() net.Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ln == nil {
		return nil
	}
	return n.ln.Addr()
}

// Close drains the server: the listener stops accepting, every connection
// stops reading, in-flight requests complete, queued responses are written
// out, each session is flushed, and only then do sockets close. It blocks
// until the drain finishes and is safe to call more than once. The
// underlying rtdb server is NOT stopped — callers stop it after Close so
// in-flight queries can complete during the drain.
func (n *Server) Close() error {
	n.closeOnce.Do(func() {
		n.mu.Lock()
		close(n.quit)
		if n.ln != nil {
			_ = n.ln.Close()
		}
		for c := range n.conns {
			c.interruptRead()
		}
		n.mu.Unlock()
	})
	n.wg.Wait()
	return nil
}

// register tracks a live connection so Close can interrupt its read.
func (n *Server) register(c *conn) {
	n.mu.Lock()
	n.conns[c] = struct{}{}
	n.mu.Unlock()
}

func (n *Server) unregister(c *conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// PromoteInfo tells every connected client that this node now leads at
// (epoch, seq), so each can follow the promotion without waiting for its
// next redial. Best-effort: a connection whose write queue is full misses
// the notice (counted in WriteDrops) and learns the epoch from its next
// heartbeat echo or Welcome instead — the broadcast never waits on a client.
func (n *Server) PromoteInfo(epoch, seq uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for c := range n.conns {
		c.tryEnqueue(rtwire.PromoteInfo{Epoch: epoch, Seq: seq}.AppendTo(c.getBuf()))
	}
}

// ReplDurable is the replication durability watermark: the highest WAL
// sequence every connected follower is known to have acknowledged (applied
// and persisted). Zero until a follower acks. Monotone: a follower
// disconnecting does not retract what it already holds.
func (n *Server) ReplDurable() uint64 { return n.replDurable.Load() }

// heartbeatSeq is the sequence a client may rely on surviving this node's
// death, echoed in every client heartbeat: a primary's replication
// watermark, never its local WAL tail; a standby's own applied sequence.
func (n *Server) heartbeatSeq() uint64 {
	if n.srv.Role() == rtwire.RoleStandby {
		return n.srv.Seq()
	}
	return n.ReplDurable()
}

// replSubscribe registers a follower connection in the durability registry
// with the seq it claims to already hold, once the sender's first read has
// accepted it. The claim is an implicit ack: a
// follower that reconnects already caught up — its final ack frame died
// with the old connection — must still advance the watermark, or a fault
// that eats exactly the last ack wedges ReplDurable forever.
func (n *Server) replSubscribe(c *conn, afterSeq uint64) {
	n.replUpdate(func() { n.replAcked[c] = afterSeq })
}

// replAck records one follower acknowledgment.
func (n *Server) replAck(c *conn, seq uint64) {
	n.replUpdate(func() {
		if cur, ok := n.replAcked[c]; ok && seq > cur {
			n.replAcked[c] = seq
		}
	})
}

// replForget drops a departing follower connection, and with it the low seq
// it may hold: the follower's next connection can already have subscribed
// holding more, and an idle follower sends no later ack that would move the
// watermark past a stale entry.
func (n *Server) replForget(c *conn) {
	n.replUpdate(func() { delete(n.replAcked, c) })
}

// replUpdate applies one change to the durability registry, then advances
// the watermark to the lowest seq held across live followers; with none
// registered it stays.
func (n *Server) replUpdate(change func()) {
	n.replMu.Lock()
	change()
	var min uint64
	first := true
	for _, s := range n.replAcked {
		if first || s < min {
			min, first = s, false
		}
	}
	n.replMu.Unlock()
	if !first {
		n.replAdvance(min)
	}
}

// replAdvance CAS-maxes the durability watermark — never backward.
func (n *Server) replAdvance(min uint64) {
	for {
		cur := n.replDurable.Load()
		if min <= cur || n.replDurable.CompareAndSwap(cur, min) {
			return
		}
	}
}

// replAckedBy is the highest seq follower c has acked: its send window base.
func (n *Server) replAckedBy(c *conn) uint64 {
	n.replMu.Lock()
	defer n.replMu.Unlock()
	return n.replAcked[c]
}

// handle runs one accepted socket: handshake, session checkout, read loop,
// drain, teardown.
func (n *Server) handle(nc net.Conn) {
	defer n.wg.Done()
	defer nc.Close()

	// Handshake: the first frame must be a Hello within the timeout.
	_ = nc.SetReadDeadline(time.Now().Add(n.opt.HandshakeTimeout))
	interrupted := make(chan struct{})
	sr := &rtwire.SilenceReader{Conn: nc, Check: func() error {
		select {
		case <-n.quit:
			return ErrServerClosed
		case <-interrupted:
			return os.ErrDeadlineExceeded
		default:
			return nil
		}
	}}
	br := bufio.NewReader(sr)
	f, err := rtwire.ReadFrame(br)
	if err != nil || f.Kind != rtwire.KindHello {
		n.Wire.ConnsRefused.Add(1)
		n.writeRaw(nc, rtwire.Err{Code: rtwire.CodeBadRequest, Msg: "expected hello"}.Encode())
		return
	}
	var id int
	select {
	case id = <-n.pool:
	default:
		n.Wire.ConnsRefused.Add(1)
		n.writeRaw(nc, rtwire.Err{Code: rtwire.CodeServerFull, Msg: "no free session"}.Encode())
		return
	}
	defer func() { n.pool <- id }()

	// The handshake ran under its own deadline; from here sr bounds the
	// silence before each frame by the tighter of idleCap and three heartbeat
	// intervals: a client that beacons but goes silent behind a one-way
	// partition is cut in bounded time — the watchdog's server-side half.
	sr.Bound = min(idleCap, 3*n.opt.HeartbeatInterval)
	c := &conn{
		n: n, nc: nc, br: br,
		sess:        n.srv.Session(id),
		interrupted: interrupted,
		writeq:      make(chan []byte, n.opt.WriteQueue),
		done:        make(chan struct{}),
		wdone:       make(chan struct{}),
		rstop:       make(chan struct{}),
		sem:         make(chan struct{}, n.opt.MaxInflight),
		acked:       make(chan struct{}, 1),
		wfree:       make(chan []byte, n.opt.WriteQueue+1),
		wake:        make(chan struct{}, 1),
	}
	// Welcome goes in before the connection is registered, so a PromoteInfo
	// broadcast cannot get ahead of it in the write queue.
	c.enqueue(rtwire.Welcome{
		Session: uint64(id), Chronon: n.srv.Now(),
		Epoch: n.srv.Epoch(), Role: n.srv.Role(),
		Shards: uint64(n.opt.Shards), Shard: uint64(n.opt.Shard),
	}.Encode())
	n.register(c)
	defer n.unregister(c)
	defer n.Wire.ConnsClosed.Add(1)

	go c.writeLoop()
	c.readLoop(sr)

	// Drain: stop the replication sender first (it exits on rstop, so the
	// inflight wait below cannot deadlock on it, and drops its follower's
	// durability entry as it goes), cancel the subscriptions
	// still attached, wait for in-flight queries/flushes to enqueue their
	// responses, flush this connection's session so every sample it
	// submitted is applied (SamplesIn == SamplesApplied survives mid-flight
	// shutdown), announce the close, then let the writer finish the queue.
	close(c.rstop)
	c.subTeardown()
	c.inflight.Wait()
	_ = c.sess.Flush()
	c.tryEnqueue(rtwire.Bye{Reason: "drain"}.Encode())
	close(c.done)
	<-c.wdone
}

// writeRaw writes one frame outside any connection write loop (refusals
// during handshake).
func (n *Server) writeRaw(nc net.Conn, frame []byte) {
	_ = nc.SetWriteDeadline(time.Now().Add(n.opt.WriteTimeout))
	if _, err := nc.Write(frame); err == nil {
		n.Wire.FramesOut.Add(1)
		n.Wire.BytesOut.Add(uint64(len(frame)))
	}
}
