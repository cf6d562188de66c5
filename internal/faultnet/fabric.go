package faultnet

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"sync"
	"time"
)

// FaultKind names one injected network fault.
type FaultKind uint8

const (
	FaultNone      FaultKind = iota
	FaultCut                 // seeded strict prefix delivered, then both directions reset
	FaultDrop                // seeded strict prefix of one write vanishes (Fault.Span bounds it); the suffix still flows
	FaultCorrupt             // one seeded byte of one write flipped
	FaultStall               // the firing endpoint's writes block until Heal
	FaultPartition           // matching directions blackholed until Heal (socket held open)
)

var faultNames = map[FaultKind]string{
	FaultNone: "none", FaultCut: "cut", FaultDrop: "drop",
	FaultCorrupt: "corrupt", FaultStall: "stall", FaultPartition: "partition",
}

func (k FaultKind) String() string {
	if n, ok := faultNames[k]; ok {
		return n
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// Direction is one blackholed flow, matched against endpoint labels; "*"
// matches any label. {From: "client", To: "primary:1"} blackholes only
// client→server bytes — the one-way partition heartbeats must catch.
type Direction struct{ From, To string }

// Fault is what ArmAt fires when the write-op counter reaches the armed
// point. Dirs applies to FaultPartition only, Span to FaultDrop only.
type Fault struct {
	Kind FaultKind
	Dirs []Direction
	// Span, when > 0, keeps the vanished prefix shorter than Span bytes. A
	// writer that coalesces records into one write arms it with its record
	// header size, so the damage always lands inside the first header: an
	// unbounded draw can end exactly on a record boundary and elide whole
	// records from a stream that stays well-formed — acks-and-omits, which
	// no network does. 0 draws from the whole write.
	Span int
}

// streamBuf bounds one direction's in-flight bytes (the "kernel buffer");
// writers block when it is full, which is what lets write deadlines and
// stall eviction be exercised.
const streamBuf = 256 << 10

// tapBudget bounds the malformed-stream capture after a damaging fault.
const tapBudget = 2048

// Fabric is an in-memory switched network: endpoints are labeled, dials
// route to listeners by address string, and every connection is a pair of
// deterministic streams the fabric can cut, stall, corrupt, or blackhole.
// One fault is armed at a time (per the sweep discipline: one fault point
// per run); ongoing conditions (partitions, stalls) persist until Heal.
type Fabric struct {
	mu        sync.Mutex
	rng       *rand.Rand
	listeners map[string]*listener
	conns     map[*Conn]struct{}

	ops   uint64 // fabric-wide write-op counter
	dials uint64

	armAt   uint64
	armed   Fault
	fired   bool
	firedOp uint64

	parts []Direction
	tap   *tap

	// chaos shaping: seeded write splitting and latency jitter.
	chaosChunk int
	chaosDelay time.Duration

	quit   chan struct{}
	closed bool
}

// NewFabric builds an empty fabric. The seed drives every fault
// materialization (cut prefixes, corrupted byte positions, chaos shaping):
// same seed + same armed point → same fault.
func NewFabric(seed uint64) *Fabric {
	return &Fabric{
		rng:       rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		listeners: make(map[string]*listener),
		conns:     make(map[*Conn]struct{}),
		tap:       &tap{budget: tapBudget},
		quit:      make(chan struct{}),
	}
}

// ArmAt arms one fault to fire on the at-th fabric write op (1-based).
// Re-arming replaces the previous fault and clears the fired latch.
func (f *Fabric) ArmAt(at uint64, fault Fault) {
	f.mu.Lock()
	f.armAt, f.armed, f.fired, f.firedOp = at, fault, false, 0
	f.mu.Unlock()
}

// Chaos enables seeded write shaping on every connection: writes split
// into chunks of at most maxChunk bytes with up to maxDelay of jitter
// before each write — short reads and split frames for race hammers.
func (f *Fabric) Chaos(maxChunk int, maxDelay time.Duration) {
	f.mu.Lock()
	f.chaosChunk, f.chaosDelay = maxChunk, maxDelay
	f.mu.Unlock()
}

// Ops returns the fabric-wide write-op count — the probe run's total is
// the sweep range.
func (f *Fabric) Ops() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Fired reports whether the armed fault has fired, and on which op.
func (f *Fabric) Fired() (bool, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired, f.firedOp
}

// MalformedStream returns the reader-visible bytes captured after a
// byte-damaging fault (cut prefix, post-drop desync, corrupted frame) —
// seed material for the rtwire frame fuzzer. Empty when no damaging fault
// fired.
func (f *Fabric) MalformedStream() []byte { return f.tap.bytes() }

// PartitionNow blackholes the given directions immediately (the explicit
// counterpart of an armed FaultPartition).
func (f *Fabric) PartitionNow(dirs ...Direction) {
	f.mu.Lock()
	f.parts = append(f.parts, dirs...)
	f.mu.Unlock()
}

// StallAll stalls writes on every live connection matching from→to.
func (f *Fabric) StallAll(from, to string) {
	for _, c := range f.matching(from, to) {
		c.wr.stall()
	}
}

// CutAll hard-resets every live connection matching from→to (either
// endpoint may be given first; both directions die, as a RST would).
func (f *Fabric) CutAll(from, to string) {
	for _, c := range f.matching(from, to) {
		c.hardCut()
	}
}

// Heal lifts every partition and stall: held bytes are delivered (TCP
// retransmission once the blackhole lifts) and stalled writers resume.
func (f *Fabric) Heal() {
	f.mu.Lock()
	f.parts = nil
	conns := make([]*Conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	for _, c := range conns {
		c.wr.heal()
	}
}

// Close tears the fabric down: listeners stop accepting and pending dials
// abort. Existing connections keep working (teardown order mirrors
// production: sockets outlive the listener).
func (f *Fabric) Close() {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		close(f.quit)
	}
	f.mu.Unlock()
}

func match(pattern, label string) bool { return pattern == "*" || pattern == label }

func (f *Fabric) partitionedLocked(from, to string) bool {
	for _, d := range f.parts {
		if match(d.From, from) && match(d.To, to) {
			return true
		}
	}
	return false
}

// matching snapshots live conns whose (label, peer) matches from→to in
// either orientation.
func (f *Fabric) matching(from, to string) []*Conn {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []*Conn
	for c := range f.conns {
		if (match(from, c.label) && match(to, c.peerLabel)) ||
			(match(from, c.peerLabel) && match(to, c.label)) {
			out = append(out, c)
		}
	}
	return out
}

func (f *Fabric) forget(c *Conn) {
	f.mu.Lock()
	delete(f.conns, c)
	f.mu.Unlock()
}

// connWrite is the fault-injection write path shared by every fabric
// connection: charge one op, fire the armed fault if reached, then route
// the bytes under the live conditions.
func (f *Fabric) connWrite(c *Conn, p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	f.mu.Lock()
	f.ops++
	op := f.ops
	kind := FaultNone
	if !f.fired && f.armAt > 0 && op >= f.armAt {
		f.fired, f.firedOp = true, op
		kind = f.armed.Kind
		if kind == FaultPartition {
			f.parts = append(f.parts, f.armed.Dirs...)
		}
	}
	var cutPrefix, dropPrefix, flipAt int
	var flipBits byte
	switch kind {
	case FaultCut:
		cutPrefix = f.rng.IntN(len(p)) // strict prefix: mid-frame truncation
	case FaultDrop:
		span := len(p)
		if f.armed.Span > 0 {
			span = min(span, f.armed.Span)
		}
		dropPrefix = 1
		if span >= 2 {
			dropPrefix = 1 + f.rng.IntN(span-1)
		}
	case FaultCorrupt:
		flipAt, flipBits = f.rng.IntN(len(p)), byte(1+f.rng.IntN(255))
	}
	var chunk int
	var delay time.Duration
	if f.chaosChunk > 0 {
		chunk = 1 + f.rng.IntN(f.chaosChunk)
		if f.chaosDelay > 0 {
			delay = time.Duration(f.rng.Int64N(int64(f.chaosDelay) + 1))
		}
	}
	blackhole := f.partitionedLocked(c.label, c.peerLabel)
	f.mu.Unlock()

	switch kind {
	case FaultStall:
		c.wr.stall()
	case FaultDrop:
		// The writer believes every byte is on the wire, but a strict
		// prefix vanishes and the suffix keeps flowing: the reader's next
		// frame boundary lands mid-frame, a desync its framing checks must
		// catch. (A clean whole-frame elision would model a transport no
		// real network has — TCP never acks-and-omits while the connection
		// keeps delivering; Fault.Span rules it out for multi-frame writes.)
		c.wr.setTap(f.tap)
		if dropPrefix < len(p) {
			_, _ = c.wr.write(p[dropPrefix:])
		}
		return len(p), nil
	case FaultCut:
		c.wr.setTap(f.tap)
		if cutPrefix > 0 {
			_, _ = c.wr.write(p[:cutPrefix])
		}
		c.hardCut()
		return 0, ErrInjectedReset
	case FaultCorrupt:
		q := make([]byte, len(p))
		copy(q, p)
		q[flipAt] ^= flipBits
		p = q
		c.wr.setTap(f.tap)
	}

	if blackhole {
		c.wr.hold(p)
		return len(p), nil
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if chunk > 0 {
		total := 0
		for len(p) > 0 {
			n := min(chunk, len(p))
			w, err := c.wr.write(p[:n])
			total += w
			if err != nil {
				return total, err
			}
			p = p[n:]
		}
		return total, nil
	}
	return c.wr.write(p)
}

// Dialer returns the labeled dial surface for one fabric endpoint —
// drop-in for client.Options.Dialer / replica.Config.Dialer.
func (f *Fabric) Dialer(label string) Dialer { return fabricDialer{f: f, label: label} }

type fabricDialer struct {
	f     *Fabric
	label string
}

func (d fabricDialer) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	return d.f.dial(d.label, address, timeout)
}

func (f *Fabric) dial(label, address string, timeout time.Duration) (net.Conn, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, net.ErrClosed
	}
	f.dials++
	ln := f.listeners[address]
	// A partition in either direction kills the handshake (SYN or SYN-ACK
	// blackholed): the dial hangs until its timeout, like real TCP.
	blocked := f.partitionedLocked(label, address) || f.partitionedLocked(address, label)
	f.mu.Unlock()
	if ln == nil {
		return nil, &net.OpError{Op: "dial", Net: "faultnet", Addr: fabricAddr(address),
			Err: errors.New("connection refused: no listener")}
	}
	if blocked {
		select {
		case <-time.After(timeout):
		case <-f.quit:
			return nil, net.ErrClosed
		}
		return nil, &net.OpError{Op: "dial", Net: "faultnet", Addr: fabricAddr(address),
			Err: os.ErrDeadlineExceeded}
	}

	d2l := newStream(streamBuf) // dialer → listener
	l2d := newStream(streamBuf)
	dc := &Conn{fab: f, label: label, peerLabel: address, rd: l2d, wr: d2l}
	ac := &Conn{fab: f, label: address, peerLabel: label, rd: d2l, wr: l2d}
	dc.peer, ac.peer = ac, dc
	f.mu.Lock()
	f.conns[dc] = struct{}{}
	f.conns[ac] = struct{}{}
	f.mu.Unlock()
	select {
	case ln.ch <- ac:
		return dc, nil
	case <-ln.done:
	case <-f.quit:
	case <-time.After(timeout):
	}
	f.forget(dc)
	f.forget(ac)
	return nil, &net.OpError{Op: "dial", Net: "faultnet", Addr: fabricAddr(address),
		Err: errors.New("connection refused: listener gone")}
}

// Listen binds a fabric listener at the given address label (e.g.
// "primary:1") — drop-in for net.Listen, served by netserve.Serve or the
// replica's standby surface.
func (f *Fabric) Listen(address string) (net.Listener, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, net.ErrClosed
	}
	if _, dup := f.listeners[address]; dup {
		return nil, fmt.Errorf("faultnet: address %s already bound", address)
	}
	ln := &listener{f: f, name: address, ch: make(chan *Conn, 64), done: make(chan struct{})}
	f.listeners[address] = ln
	return ln, nil
}

type listener struct {
	f    *Fabric
	name string
	ch   chan *Conn
	done chan struct{}
	once sync.Once
}

var _ net.Listener = (*listener)(nil)

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
	case <-l.f.quit:
	}
	return nil, net.ErrClosed
}

func (l *listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.f.mu.Lock()
		delete(l.f.listeners, l.name)
		l.f.mu.Unlock()
	})
	return nil
}

func (l *listener) Addr() net.Addr { return fabricAddr(l.name) }
