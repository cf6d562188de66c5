// Package client is the Go client for the rtwire protocol: dial an rtdbd
// server, inject timed samples, issue aperiodic queries under the §4.1
// deadline discipline, read history as-of a chronon, and fetch metrics
// snapshots.
//
// Deadline translation happens here: the caller states a deadline relative
// to the moment Query is called (the client's issue instant); the client
// measures the wall time it burns before each transmission — queueing,
// redials, retries — in client chronons (Options.ChrononDuration per
// chronon) and ships that as the Elapsed field, so the server can anchor
// the remaining budget at the arrival chronon. A query whose budget is
// gone when it arrives is rejected unevaluated and accounted as a miss by
// the server (Result.ExpiredOnArrival); retries therefore consume the
// deadline instead of silently extending it. Client-relative and
// server-absolute chronons never mix: the wire carries only relative
// quantities, and every absolute chronon in a Result is the server's.
//
// Failover: the address may be a comma-separated list. On connection loss
// the client rotates through the list with decorrelated-jitter backoff,
// re-stamping consumed chronons into the deadline budget exactly as a
// redial does. A standby answers soft and deadline-less queries (counted
// as degraded server-side) and refuses writes and firm queries with
// CodeReadOnly, which also rotates the client onward in search of the
// primary. Fencing: the client remembers the highest epoch it has seen in
// any Welcome or PromoteInfo and refuses to connect to a node announcing
// an older one — a deposed primary cannot recapture its former clients.
//
// Replication runs on the same engine (Follow): Subscribe{AfterSeq} is a
// cursor, each WalBatch a push handed to the follower, and its WalAcks leave
// through the flusher; a lost stream re-subscribes on the jittered walk.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultnet"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// Options tunes a client. The zero value is serviceable.
type Options struct {
	// Name identifies the client in the Hello frame.
	Name string
	// DialTimeout bounds one TCP connect attempt (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds one request/response round trip (default 30s).
	CallTimeout time.Duration
	// WriteTimeout bounds one socket write, which may carry several frames
	// (default 10s).
	WriteTimeout time.Duration
	// RetryAttempts is how many times Dial (and a Query that hits a dead
	// connection) retries after the first failure (default 2).
	RetryAttempts int
	// RetryBackoff is the base pause between retries (default 50ms). The
	// actual pauses walk randomly between it and RetryBackoffMax with
	// decorrelated jitter, so a fleet of clients that lost the same
	// primary does not redial in lockstep.
	RetryBackoff time.Duration
	// RetryBackoffMax caps one retry pause (default 1s).
	RetryBackoffMax time.Duration
	// Seed makes the jittered retry schedule reproducible; 0 derives one
	// from the wall clock.
	Seed uint64
	// HeartbeatInterval paces liveness beacons on an idle connection: the
	// client sends a Heartbeat after this much inbound silence and closes
	// the connection after 3× of it, so a silently dead peer is detected
	// in bounded time instead of hanging until CallTimeout. Default 15s;
	// negative disables heartbeats.
	HeartbeatInterval time.Duration
	// ChrononDuration is the wall-clock length of one client chronon used
	// for deadline translation (default 1ms). A query's Elapsed field is
	// time-since-issue divided by this.
	ChrononDuration time.Duration
	// Dialer makes connections (default faultnet.OS — a real TCP dial).
	// Torture tests pass a faultnet fabric endpoint to inject partitions,
	// cuts, stalls, and corruption under the client deterministically.
	Dialer faultnet.Dialer
}

func (o *Options) defaults() {
	if o.Name == "" {
		o.Name = "rtdb-client"
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 30 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.RetryAttempts < 0 {
		o.RetryAttempts = 0
	} else if o.RetryAttempts == 0 {
		o.RetryAttempts = 2
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.RetryBackoffMax <= 0 {
		o.RetryBackoffMax = time.Second
	}
	if o.Seed == 0 {
		o.Seed = uint64(time.Now().UnixNano())
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 15 * time.Second
	}
	if o.ChrononDuration <= 0 {
		o.ChrononDuration = time.Millisecond
	}
	if o.Dialer == nil {
		o.Dialer = faultnet.OS{}
	}
}

// Errors reported by the client.
var (
	// ErrClosed: Close was called.
	ErrClosed = errors.New("client: closed")
	// ErrConnDown: the connection died mid-call and retries ran out.
	ErrConnDown = errors.New("client: connection down")
	// ErrBackpressure mirrors the server's session-queue rejection; for
	// deadline-carrying queries the server accounted a miss.
	ErrBackpressure = errors.New("client: server backpressure")
	// ErrTimeout: no response within CallTimeout.
	ErrTimeout = errors.New("client: call timed out")
	// ErrReadOnly: every reachable node is a standby; the write or firm
	// query was refused.
	ErrReadOnly = errors.New("client: server is read-only (standby)")
	// ErrStale: a node announced a fencing epoch older than one the client
	// has already seen — a deposed primary; the connection was refused.
	ErrStale = errors.New("client: stale fencing epoch")
)

// Query is one aperiodic query under the client-relative deadline
// discipline.
type Query struct {
	Query     string
	Candidate string
	Kind      deadline.Kind
	// Deadline is relative to the moment Client.Query is called.
	Deadline  timeseq.Time
	MinUseful uint64
	// Decay is the usefulness-decay shape (soft deadlines).
	Decay rtwire.Decay
}

// Result is the server's answer.
type Result struct {
	Answers   []string
	Match     bool
	Useful    uint64
	Missed    bool
	Evaluated bool
	// ExpiredOnArrival: the query's budget was consumed before the server
	// saw it; it was accounted a miss without evaluation.
	ExpiredOnArrival bool
	// Issue and Served are server chronons.
	Issue, Served timeseq.Time
}

// Stats counts client-side events.
type Stats struct {
	Redials      atomic.Uint64
	Backpressure atomic.Uint64 // sample submissions bounced by the server

	FailedOver        atomic.Uint64 // reconnects that landed on a different address
	StaleRejected     atomic.Uint64 // connections refused for an old fencing epoch
	Degraded          atomic.Uint64 // queries answered by a standby
	ReadOnlyRejects   atomic.Uint64 // submissions refused with CodeReadOnly
	HeartbeatTimeouts atomic.Uint64 // connections cut by the liveness watchdog
	Resubscribes      atomic.Uint64 // subscriptions re-attached after a reconnect
	CorruptFrames     atomic.Uint64 // connections dropped on a damaged inbound frame

	// MaxPrimarySeq is the highest durability watermark heard in heartbeat
	// echoes — a primary advertises its followers' acknowledged seq (what
	// survives its death), a standby its own applied seq. SeqWatermark
	// freezes that high-water mark at the moment of the most recent
	// failover. A node reached after a failover whose log is shorter than
	// SeqWatermark has lost acknowledged writes — load tools check exactly
	// this (heartbeats lag acks, so it is a lower bound).
	MaxPrimarySeq atomic.Uint64
	SeqWatermark  atomic.Uint64
}

// Client is a connection to an rtdbd server (or a failover group of them).
// It is safe for concurrent use; responses are matched to callers by
// request id.
type Client struct {
	addrs []string
	opt   Options

	// Session is the server session index this connection was mapped to.
	Session uint64

	Stats Stats

	ids   atomic.Uint64
	boSeq atomic.Uint64

	// lastRead is the unix-nano timestamp of the newest inbound frame;
	// the heartbeat watchdog reads it.
	lastRead atomic.Int64

	mu   sync.Mutex // guards conn/out, address rotation, and (re)dials
	conn net.Conn
	// out holds the frames accepted for conn and not yet handed to the
	// socket, encoded in place in program order. It is non-empty only while
	// conn is live: whatever clears conn discards it (dropLocked).
	out      []byte
	gen      int // bumped on every successful redial
	closed   bool
	cur      int    // index into addrs of the next dial target
	lastAddr string // address of the previous successful connection
	role     rtwire.Role
	epoch    uint64 // highest fencing epoch seen in any Welcome/PromoteInfo
	shard    uint64 // this listener's shard index, from the Welcome
	shards   uint64 // deployment width announced in the Welcome (>=1)

	pmu     sync.Mutex
	pending map[uint64]chan any

	// smu guards the live subscription registry, keyed by the wire id of
	// each subscription's current attachment (SubOpen/SubResume frame id).
	smu  sync.Mutex
	subs map[uint64]*Subscription

	// follow is the stream of a client made by Follow; lost wakes its loop.
	follow *FollowSpec
	lost   chan struct{}

	// wmu serializes socket writes: flush holds it from taking out until the
	// write has returned, so bytes reach the socket in the order they were
	// accepted while mu — and with it every sender that does not wait — stays
	// free during the write. Lock order is wmu, then mu. spare is the buffer
	// out swaps with, guarded by wmu.
	wmu   sync.Mutex
	spare []byte

	// kick wakes the flusher: one token means "out may hold frames nobody is
	// about to flush". flushed closes when the flusher has exited.
	kick    chan struct{}
	flushed chan struct{}

	// done closes when Close is called; every waiter that outlives a call —
	// the flusher, the heartbeat watchdog, retry backoff pauses, resume
	// loops — selects on it so Close leaks neither goroutines nor timers.
	done chan struct{}
}

// outHigh is where a sender that does not wait flushes anyway: the buffer a
// stalled or slow socket can pin stays bounded, and a producer that outruns
// the connection is slowed to its pace.
const outHigh = 4096

// Dial connects and performs the Hello/Welcome handshake, retrying per
// Options. addr may be a comma-separated failover list; dial failures
// rotate through it.
func Dial(addr string, opt Options) (*Client, error) {
	c := newClient(addr, opt)
	if len(c.addrs) == 0 {
		return nil, errNoAddr
	}
	bo := NewBackoff(c.opt.Seed, c.opt.RetryBackoff, c.opt.RetryBackoffMax)
	var err error
	for attempt := 0; attempt <= c.opt.RetryAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(bo.Next())
		}
		c.mu.Lock()
		err = c.connectLocked()
		c.mu.Unlock()
		if err == nil {
			go c.flushLoop()
			return c, nil
		}
	}
	return nil, fmt.Errorf("client: dial %s: %w", addr, err)
}

var errNoAddr = errors.New("client: no address to dial")

// newClient builds an unconnected client over the comma-separated list addr.
func newClient(addr string, opt Options) *Client {
	opt.defaults()
	var addrs []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return &Client{
		addrs: addrs, opt: opt,
		pending: make(map[uint64]chan any),
		subs:    make(map[uint64]*Subscription),
		kick:    make(chan struct{}, 1),
		flushed: make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// FollowSpec is the follower's side of a replication stream. The client
// calls After and Adopt holding its own lock: they must not call into it,
// and nothing holding a lock they take may either.
type FollowSpec struct {
	// After is the follower's tail: every connection subscribes after it,
	// and every WalAck reports it.
	After func() uint64
	// Apply folds one WalBatch in; an error ends the attachment.
	Apply func(rtwire.WalBatch) error
	// Adopt sees every epoch the primary announces (Welcome, Heartbeat,
	// PromoteInfo) before the client's own fencing check, and refuses a
	// stale one with false: the follower's persisted epoch is the floor of
	// the client's fencing watermark.
	Adopt func(epoch uint64) bool
	// Retry is told of every re-subscribe attempt after a lost stream.
	Retry func()
}

// Follow opens a replication stream to the primary at addr and returns at
// once. It dials in the background, and every connection's first frame is
// Subscribe{After()}. Any loss — a dead or silent link, a stale epoch, a
// Bye, an Err, a refused Apply — re-subscribes after a jittered pause, until
// Close. Acks share socket writes through the flusher. A follower makes no
// calls and issues no queries, so CallTimeout, RetryAttempts and
// ChrononDuration go unused; 3 HeartbeatIntervals bound the silence.
func Follow(addr string, opt Options, spec FollowSpec) *Client {
	c := newClient(addr, opt)
	c.follow, c.lost = &spec, make(chan struct{}, 1)
	go c.flushLoop()
	go c.followLoop()
	return c
}

// followLoop keeps the stream attached: connect and flush (connectOneLocked
// queues the Subscribe) on the re-attach walk, wait for the loss, pause.
func (c *Client) followLoop() {
	bo := c.backoff()
	for lost := false; ; lost = true {
		if lost && !c.sleep(bo.Next()) {
			return
		}
		err := c.rejoin(bo, -1, func() error {
			if lost {
				c.follow.Retry()
			}
			return c.send(nil, true, true)
		})
		if err != nil {
			return // closed
		}
		select {
		case <-c.lost:
		case <-c.done:
			return
		}
	}
}

// connectLocked establishes a connection, walking the whole address ring
// once: a dead or stale node rotates to the next address within the same
// attempt, so one attempt fails only when every address does. Caller
// holds mu.
func (c *Client) connectLocked() error {
	err := errNoAddr
	for range c.addrs {
		if err = c.connectOneLocked(); err == nil {
			return nil
		}
	}
	return err
}

// connectOneLocked dials the current address and handshakes; any failure
// rotates to the next address so the following try goes elsewhere. Caller
// holds mu.
func (c *Client) connectOneLocked() error {
	addr := c.addrs[c.cur]
	fail := func(conn net.Conn, err error) error {
		if conn != nil {
			conn.Close()
		}
		c.cur = (c.cur + 1) % len(c.addrs)
		return err
	}
	conn, err := c.opt.Dialer.DialTimeout("tcp", addr, c.opt.DialTimeout)
	if err != nil {
		return fail(nil, err)
	}
	m, br, err := handshake(conn, c.opt.Name, c.opt.WriteTimeout, c.opt.DialTimeout)
	if err != nil {
		return fail(conn, err)
	}
	if c.staleLocked(m.Epoch) {
		// A deposed primary still answering on its old address: its
		// epoch predates one we have already seen. Refuse it.
		c.Stats.StaleRejected.Add(1)
		return fail(conn, fmt.Errorf("%w: %s announced epoch %d, newest seen is %d",
			ErrStale, addr, m.Epoch, c.epoch))
	}
	c.role = m.Role
	c.Session = m.Session
	c.shard, c.shards = m.Shard, m.Shards
	if c.shards == 0 {
		c.shards = 1
	}
	_ = conn.SetReadDeadline(time.Time{})
	c.conn = conn
	if c.lastAddr != "" && c.lastAddr != addr {
		c.Stats.FailedOver.Add(1)
		// The node we land on next must carry everything the old one
		// acknowledged up to the last sequence we heard from it.
		if w := c.Stats.MaxPrimarySeq.Load(); w > c.Stats.SeqWatermark.Load() {
			c.Stats.SeqWatermark.Store(w)
		}
	}
	c.lastAddr = addr
	if c.follow != nil {
		// The connection's first frame: out is empty, dropLocked saw to it.
		c.out = rtwire.Subscribe{AfterSeq: c.follow.After(), Follower: c.opt.Name}.AppendTo(c.out)
	}
	c.gen++
	gen := c.gen
	c.lastRead.Store(time.Now().UnixNano())
	go c.readLoop(conn, br, gen)
	if c.opt.HeartbeatInterval > 0 {
		go c.heartbeatLoop(conn, gen)
	}
	return nil
}

// handshake sends Hello under writeTimeout and reads the Welcome under
// readTimeout, returning it with the reader the connection goes on through;
// a refusal comes back as its rtwire.Err.
func handshake(conn net.Conn, name string, writeTimeout, readTimeout time.Duration) (w rtwire.Welcome, br *bufio.Reader, err error) {
	_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := conn.Write(rtwire.Hello{Client: name}.Encode()); err != nil {
		return w, nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(readTimeout))
	br = bufio.NewReader(conn)
	f, err := rtwire.ReadFrame(br)
	if err != nil {
		return w, nil, fmt.Errorf("handshake read: %w", err)
	}
	msg, err := rtwire.Decode(f)
	if err != nil {
		return w, nil, fmt.Errorf("handshake decode: %w", err)
	}
	switch m := msg.(type) {
	case rtwire.Welcome:
		return m, br, nil
	case rtwire.Err:
		return w, nil, m
	}
	return w, nil, fmt.Errorf("handshake: unexpected %s frame", f.Kind)
}

// heartbeatLoop is the liveness watchdog for one connection generation: it
// beacons a Heartbeat every interval and cuts the connection after 3
// intervals of inbound silence — a silently dead peer (a half-open socket
// behind a one-way partition) costs bounded time, not a CallTimeout. The
// ticker runs at a quarter interval so the silence check is fine-grained
// enough to cut at ~3 intervals instead of quantizing up to 4; beacons
// stay paced at the full interval.
func (c *Client) heartbeatLoop(conn net.Conn, gen int) {
	iv := c.opt.HeartbeatInterval
	t := time.NewTicker(max(iv/4, time.Millisecond))
	defer t.Stop()
	var lastBeacon time.Time
	for {
		select {
		case <-t.C:
		case <-c.done:
			// Close must not strand this goroutine (and its ticker) for up
			// to an interval; exit the moment the client goes away.
			return
		}
		c.mu.Lock()
		stale := c.closed || c.gen != gen
		c.mu.Unlock()
		if stale {
			return
		}
		if c.Silence() >= 3*iv {
			c.Stats.HeartbeatTimeouts.Add(1)
			conn.Close() // the read loop unblocks and fails the pending calls
			c.advance()  // and the next redial tries a different node first
			return
		}
		if now := time.Now(); now.Sub(lastBeacon) >= iv {
			lastBeacon = now
			// The beacon's write deadline is clamped to one interval: a
			// stalled socket must not pin this goroutine for the full
			// WriteTimeout while the watchdog is trying to detect it.
			_ = c.sendTimeout(rtwire.Heartbeat{}.AppendTo, false, true, min(iv, c.opt.WriteTimeout))
		}
	}
}

// Silence is how long the peer has said nothing — zero until the first
// connection.
func (c *Client) Silence() time.Duration {
	if last := c.lastRead.Load(); last != 0 {
		return time.Since(time.Unix(0, last))
	}
	return 0
}

// staleLocked folds a peer-announced epoch into the fencing watermark; true
// means the peer is stale: older than the newest epoch seen or, on a follow
// stream, refused by Adopt. Caller holds mu.
func (c *Client) staleLocked(e uint64) bool {
	if c.follow != nil && !c.follow.Adopt(e) || e < c.epoch {
		return true
	}
	c.epoch = e
	return false
}

// noteEpoch is staleLocked for a frame the read loop took; a PromoteInfo's
// epoch (promoted) that is not stale also marks the node primary.
func (c *Client) noteEpoch(e uint64, promoted bool) (stale bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if stale = c.staleLocked(e); promoted && !stale {
		c.role = rtwire.RolePrimary
	}
	return stale
}

// rotate abandons the current connection and advances to the next address;
// the next send redials there.
func (c *Client) rotate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked()
	c.cur = (c.cur + 1) % len(c.addrs)
}

// advance rotates the dial cursor without touching the live connection —
// the heartbeat watchdog uses it after closing a half-open socket, so the
// redial starts at a different node instead of the one that went silent.
func (c *Client) advance() {
	c.mu.Lock()
	c.cur = (c.cur + 1) % len(c.addrs)
	c.mu.Unlock()
}

// Role returns the role announced by the node the client is (last)
// connected to.
func (c *Client) Role() rtwire.Role {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.role
}

// Epoch returns the highest fencing epoch the client has seen.
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Shard returns the shard index announced by the connected listener (0
// when unsharded).
func (c *Client) Shard() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shard
}

// Shards returns the deployment width announced by the connected listener
// (1 when unsharded).
func (c *Client) Shards() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shards
}

// ShardFor computes the owning shard of an object under the deployment
// width the connected listener announced — the client-side half of the
// placement contract: rtwire.ShardOf is part of the on-disk format, so a
// client can route each object to its shard's listener without asking.
func (c *Client) ShardFor(object string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shards <= 1 {
		return 0
	}
	return uint64(rtwire.ShardOf(object, int(c.shards)))
}

// readLoop dispatches incoming frames to waiting callers until the
// connection dies.
func (c *Client) readLoop(conn net.Conn, br *bufio.Reader, gen int) {
	defer c.failPending(gen)
	// One payload buffer for the connection's lifetime; Decode copies the
	// field strings out before the next frame overwrites it.
	var rbuf []byte
	for {
		f, err := rtwire.ReadFrameBuf(br, &rbuf)
		if err != nil {
			if rtwire.IsCorruptFrame(err) {
				// Byte damage on the wire: the CRC (or framing) caught it.
				// Frame boundaries are unrecoverable — count it and let the
				// connection die; a redial resynchronizes from a handshake.
				c.Stats.CorruptFrames.Add(1)
				conn.Close()
			}
			return
		}
		c.lastRead.Store(time.Now().UnixNano())
		if f.Kind == rtwire.KindPush {
			// The one kind that arrives in bulk decodes into a stack value;
			// every other message is boxed for its waiting caller anyway.
			if m, err := rtwire.DecodePush(f); err == nil {
				c.dispatchPush(m)
			}
			continue
		}
		msg, err := rtwire.Decode(f)
		if err != nil {
			continue
		}
		// Replies reach deliver as the interface Decode already boxed.
		switch m := msg.(type) {
		case rtwire.Result:
			c.deliver(m.ID, msg)
		case rtwire.AsOfResult:
			c.deliver(m.ID, msg)
		case rtwire.Metrics:
			c.deliver(m.ID, msg)
		case rtwire.Flushed:
			c.deliver(m.ID, msg)
		case rtwire.SubAck:
			c.deliver(m.ID, msg)
		case rtwire.WalBatch:
			if c.follow == nil || c.follow.Apply(m) != nil {
				conn.Close() // unasked for, or refused: a follower re-subscribes
				return
			}
			// Time spent applying (fsync, replay) is not the primary's silence.
			c.lastRead.Store(time.Now().UnixNano())
			_ = c.send(func(b []byte) []byte { return rtwire.WalAck{Seq: c.follow.After()}.AppendTo(b) }, false, false)
		case rtwire.Err:
			if !c.deliver(m.ID, msg) {
				if c.follow != nil {
					// A refusal ends the attachment: a follower never sits
					// connected and unfed.
					conn.Close()
					return
				}
				switch m.Code {
				case rtwire.CodeBackpressure:
					// A bounced fire-and-forget sample.
					c.Stats.Backpressure.Add(1)
				case rtwire.CodeReadOnly:
					// A sample refused by a standby.
					c.Stats.ReadOnlyRejects.Add(1)
				}
			}
		case rtwire.Heartbeat:
			if c.noteEpoch(m.Epoch, false) {
				// A heartbeat from a deposed primary: cut the link.
				conn.Close()
				return
			}
			for {
				old := c.Stats.MaxPrimarySeq.Load()
				if m.Seq <= old || c.Stats.MaxPrimarySeq.CompareAndSwap(old, m.Seq) {
					break
				}
			}
		case rtwire.PromoteInfo:
			c.noteEpoch(m.Epoch, true)
		case rtwire.Bye:
			return
		}
	}
}

// deliver hands a response to its waiting caller.
func (c *Client) deliver(id uint64, msg any) bool {
	c.pmu.Lock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.pmu.Unlock()
	if ok {
		ch <- msg
	}
	return ok
}

// failPending wakes every caller of the dead connection generation.
func (c *Client) failPending(gen int) {
	c.mu.Lock()
	current := c.gen == gen
	if current {
		c.dropLocked()
	}
	c.mu.Unlock()
	if !current {
		return
	}
	c.pmu.Lock()
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- error(ErrConnDown)
	}
	c.pmu.Unlock()
	c.resumeSubs()
}

// dropLocked abandons the live connection, and with it the frames accepted
// for it that never reached the socket; the next send redials. Caller holds
// mu.
func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.out = c.out[:0]
}

// send accepts one frame for the connection. encode appends the frame to
// the buffer it is given (a message's AppendTo; nil: no frame, the follow
// stream's connect-and-flush). redial controls whether a dead connection is
// re-established first; wait says the caller waits on this frame, so it —
// and everything accepted ahead of it — is handed to the socket before send
// returns.
func (c *Client) send(encode func([]byte) []byte, redial, wait bool) error {
	return c.sendTimeout(encode, redial, wait, c.opt.WriteTimeout)
}

// sendTimeout is send with an explicit write deadline; the heartbeat
// beacon clamps it to one interval.
func (c *Client) sendTimeout(encode func([]byte) []byte, redial, wait bool, wt time.Duration) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.conn == nil {
		if !redial {
			c.mu.Unlock()
			return ErrConnDown
		}
		if err := c.connectLocked(); err != nil {
			c.mu.Unlock()
			return fmt.Errorf("%w: %v", ErrConnDown, err)
		}
		c.Stats.Redials.Add(1)
	}
	if encode != nil {
		c.out = encode(c.out)
	}
	gen, full := c.gen, len(c.out) >= outHigh
	c.mu.Unlock()
	if wait || full {
		return c.flush(gen, wt)
	}
	select {
	case c.kick <- struct{}{}:
	default: // a token is already waiting; the flusher will find this frame too
	}
	return nil
}

// flush hands everything accepted so far to the socket in one write, under
// a write deadline armed here — where the bytes leave — and not per frame.
// gen is the connection generation the caller's frame was accepted on (0:
// no frame in particular); if that connection is gone the frame went with
// it and the caller hears ErrConnDown, exactly as if its own write had
// failed. A failed write drops the connection, so the next send redials.
func (c *Client) flush(gen int, wt time.Duration) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	conn, buf, cur := c.conn, c.out, c.gen
	c.out = c.spare[:0]
	c.mu.Unlock()
	c.spare = buf
	if len(buf) > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(wt))
		if _, err := conn.Write(buf); err != nil {
			c.mu.Lock()
			if c.conn == conn {
				c.dropLocked()
			}
			c.mu.Unlock()
			return fmt.Errorf("%w: %v", ErrConnDown, err)
		}
	}
	if gen != 0 && (conn == nil || cur != gen) {
		return ErrConnDown
	}
	return nil
}

// flushLoop is the connection's flusher: a frame nobody waits on is not
// flushed by its caller, it is flushed here, one goroutine wake-up after
// the first of a burst was accepted — so a lone sample leaves at once and a
// tight loop of them, outrunning the wake-up, shares a socket write. There
// is no timer to tune. It never redials: a failed write drops the
// connection and the next send finds out.
func (c *Client) flushLoop() {
	defer close(c.flushed)
	for {
		select {
		case <-c.kick:
			_ = c.flush(0, c.opt.WriteTimeout)
		case <-c.done:
			return
		}
	}
}

// call sends an id-carrying frame and waits for its response.
func (c *Client) call(id uint64, encode func([]byte) []byte) (any, error) {
	ch := make(chan any, 1)
	c.pmu.Lock()
	c.pending[id] = ch
	c.pmu.Unlock()
	if err := c.send(encode, true, true); err != nil {
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		return nil, err
	}
	timer := time.NewTimer(c.opt.CallTimeout)
	defer timer.Stop()
	select {
	case msg := <-ch:
		if err, ok := msg.(error); ok {
			if we, isWire := msg.(rtwire.Err); !isWire || we.Code != rtwire.CodeBackpressure {
				return nil, err
			}
			return nil, fmt.Errorf("%w: %v", ErrBackpressure, msg)
		}
		return msg, nil
	case <-timer.C:
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		return nil, ErrTimeout
	}
}

// nextID allocates a request id (never 0; 0 marks connection-level Errs).
func (c *Client) nextID() uint64 { return c.ids.Add(1) }

// Query issues one aperiodic query. The deadline budget starts now; every
// retry re-stamps the consumed chronons, so time lost to redials shrinks
// the server-side remainder instead of resetting it.
func (c *Client) Query(q Query) (Result, error) {
	issue := time.Now()
	// Each call walks its own jittered backoff; the golden-ratio multiplier
	// spreads concurrent calls of one client apart as well.
	bo := NewBackoff(c.opt.Seed+c.boSeq.Add(1)*0x9e3779b97f4a7c15,
		c.opt.RetryBackoff, c.opt.RetryBackoffMax)
	var lastErr error
	for attempt := 0; attempt <= c.opt.RetryAttempts; attempt++ {
		if attempt > 0 {
			if !c.sleep(bo.Next()) {
				return Result{}, ErrClosed
			}
		}
		id := c.nextID()
		wq := rtwire.Query{
			ID: id, Query: q.Query, Candidate: q.Candidate,
			Kind: q.Kind, Deadline: q.Deadline,
			Elapsed:   timeseq.Time(time.Since(issue) / c.opt.ChrononDuration),
			MinUseful: q.MinUseful, Decay: q.Decay,
		}
		msg, err := c.call(id, wq.AppendTo)
		if err != nil {
			lastErr = err
			if errors.Is(err, ErrConnDown) {
				continue // redial consumed budget; try again with new Elapsed
			}
			var we rtwire.Err
			if errors.As(err, &we) && we.Code == rtwire.CodeReadOnly {
				// A standby refused the firm query; rotate onward in
				// search of the primary and retry on the shrunken budget.
				c.Stats.ReadOnlyRejects.Add(1)
				c.rotate()
				lastErr = fmt.Errorf("%w: %v", ErrReadOnly, err)
				continue
			}
			if errors.Is(err, ErrBackpressure) {
				// The server accounted the rejection; report it like the
				// in-process session API does.
				return Result{Missed: q.Kind != deadline.None}, err
			}
			return Result{}, err
		}
		r, ok := msg.(rtwire.Result)
		if !ok {
			return Result{}, fmt.Errorf("client: unexpected response %T", msg)
		}
		if c.Role() == rtwire.RoleStandby {
			c.Stats.Degraded.Add(1)
		}
		return Result{
			Answers: r.Answers, Match: r.Match, Useful: r.Useful,
			Missed: r.Missed, Evaluated: r.Evaluated,
			ExpiredOnArrival: r.ExpiredOnArrival,
			Issue:            r.Issue, Served: r.Served,
		}, nil
	}
	return Result{}, lastErr
}

// InjectSample submits one timed sensor sample, fire-and-forget. nil means
// the sample was accepted into the connection's buffer — it never meant
// applied. The sample leaves with the next frame a caller waits on (Query,
// Flush, AsOf, Metrics, a subscription frame, the heartbeat), when the
// buffer fills, or as soon as the connection's flusher runs — one goroutine
// wake-up — whichever is first, always in program order; Flush is the
// barrier that says everything before it was applied. A connection that
// dies takes its unflushed samples with it (Stats.Redials moves on the next
// send). A burst larger than the session's QueueDepth reaches the queue at
// wire speed: a server-side rejection arrives asynchronously and is counted
// in Stats.Backpressure, as before.
func (c *Client) InjectSample(image, value string) error {
	return c.send(rtwire.Sample{ID: c.nextID(), Image: image, Value: value}.AppendTo, true, false)
}

// AsOf reads an image object's value as of server chronon at, served from
// the published history snapshot. The returned horizon is the chronon
// through which as-of reads are current.
func (c *Client) AsOf(image string, at timeseq.Time) (value string, ok bool, horizon timeseq.Time, err error) {
	id := c.nextID()
	msg, err := c.call(id, rtwire.AsOf{ID: id, Image: image, At: at}.AppendTo)
	if err != nil {
		return "", false, 0, err
	}
	r, isR := msg.(rtwire.AsOfResult)
	if !isR {
		return "", false, 0, fmt.Errorf("client: unexpected response %T", msg)
	}
	return r.Value, r.OK, r.Horizon, nil
}

// Metrics fetches the server's metrics snapshot as ordered name/value
// pairs (server rows first, then the net_* wire rows).
func (c *Client) Metrics() (rtwire.Metrics, error) {
	id := c.nextID()
	msg, err := c.call(id, rtwire.MetricsReq{ID: id}.AppendTo)
	if err != nil {
		return rtwire.Metrics{}, err
	}
	m, ok := msg.(rtwire.Metrics)
	if !ok {
		return rtwire.Metrics{}, fmt.Errorf("client: unexpected response %T", msg)
	}
	return m, nil
}

// Flush blocks until everything this connection submitted before it has
// been applied by the server.
func (c *Client) Flush() error {
	id := c.nextID()
	msg, err := c.call(id, rtwire.Flush{ID: id}.AppendTo)
	if err != nil {
		return err
	}
	if _, ok := msg.(rtwire.Flushed); !ok {
		return fmt.Errorf("client: unexpected response %T", msg)
	}
	return nil
}

// sleep pauses for d; false means Close was called mid-pause. Backoff
// waits use it so a closing client abandons its retry ladder immediately
// instead of finishing the nap first.
func (c *Client) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.done:
		return false
	}
}

// Close announces an orderly close and tears the connection down: what was
// accepted and is still buffered goes out first, then Bye, through the same
// flush as every other frame.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	if c.conn != nil {
		// closed is set, so no send can put a frame behind this one.
		c.out = rtwire.Bye{Reason: "close"}.AppendTo(c.out)
	}
	c.mu.Unlock()
	// Every subscription ends here: consumers see their channels close and
	// Err() report the client shutdown.
	c.smu.Lock()
	subs := make([]*Subscription, 0, len(c.subs))
	for id, s := range c.subs {
		delete(c.subs, id)
		subs = append(subs, s)
	}
	c.smu.Unlock()
	for _, s := range subs {
		s.finish(ErrClosed)
	}
	<-c.flushed
	_ = c.flush(0, c.opt.WriteTimeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn, c.out = nil, nil
		return err
	}
	return nil
}
