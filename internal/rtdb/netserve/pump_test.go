package netserve

import (
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultnet"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// expectSubAck reads frames until a SubAck arrives, collecting the pushes
// that precede it.
func expectSubAck(t *testing.T, rc *rawConn, pushes *[]rtwire.Push) rtwire.SubAck {
	t.Helper()
	for {
		switch m := rc.read().(type) {
		case rtwire.Push:
			if pushes != nil {
				*pushes = append(*pushes, m)
			}
		case rtwire.SubAck:
			return m
		default:
			t.Fatalf("waiting for SubAck, got %T: %+v", m, m)
		}
	}
}

// These tests pin the writer-as-pump: the connection's one writer drains
// every subscription attached to it. None of them measures time; they count
// frames, socket writes, goroutines and the server's books.

// matured is how many pushes the server has handed (or will hand) to the
// transports: final once a Flush issued after the last sample is answered.
func matured(s *server.Server) uint64 {
	m := s.Metrics.Snapshot()
	return m.PushScheduled - m.PushDropped - m.PushExpired
}

// openSubs opens n subscriptions on status_q (ids 1..n, one evaluation
// group) and waits for every admitting ack.
func openSubs(t *testing.T, rc *rawConn, n int, depth uint64) {
	t.Helper()
	for id := 1; id <= n; id++ {
		rc.write(rtwire.SubOpen{
			ID: uint64(id), Query: "status_q", Period: 2,
			Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1, Depth: depth,
		}.Encode())
		if a := expectSubAck(t, rc, nil); a.ID != uint64(id) || a.State != rtwire.SubAdmitted {
			t.Fatalf("open ack %d: %+v", id, a)
		}
	}
}

// feed injects n samples through c and returns once they are applied, so
// every tick they matured is scheduled.
func feed(t *testing.T, c *client.Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.InjectSample("temp", "20"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestPumpFanoutOrderAndAccounting: with 8 members of one group on one raw
// connection, every tick's 8 Push frames arrive with strictly increasing
// per-subscription cursors, and at quiescence the per-frame counters equal
// what the client counted off the socket — coalescing frames into one write
// must not coalesce their accounting.
func TestPumpFanoutOrderAndAccounting(t *testing.T) {
	const members = 8
	cfg := testConfig()
	cfg.Sessions = 2
	s, ns, addr := startNet(t, cfg, Options{}, nil)
	rc := dialRaw(t, addr)

	var frames, bytes, pushes uint64
	read := func() any {
		_ = rc.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := rtwire.ReadFrame(rc.nc)
		if err != nil {
			t.Fatal(err)
		}
		frames++
		bytes += uint64(rtwire.HeaderSize + len(f.Payload))
		msg, err := rtwire.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	rc.write(rtwire.Hello{Client: "raw"}.Encode())
	if _, ok := read().(rtwire.Welcome); !ok {
		t.Fatal("no welcome")
	}
	for id := 1; id <= members; id++ {
		rc.write(rtwire.SubOpen{ID: uint64(id), Query: "status_q", Period: 2, Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1, Depth: 64}.Encode())
		if a, ok := read().(rtwire.SubAck); !ok || a.State != rtwire.SubAdmitted {
			t.Fatalf("open ack %d: %+v", id, a)
		}
	}

	last := make([]uint64, members+1)
	flushed := false
	for round := 0; round < 12; round++ {
		for i := 0; i < 4; i++ {
			rc.write(rtwire.Sample{ID: uint64(100 + i), Image: "temp", Value: "20"}.Encode())
		}
		rc.write(rtwire.Flush{ID: 99}.Encode())
		// The round is over when the Flushed has arrived (the target is
		// final from then on) and every matured push has too.
		for flushed = false; !flushed || pushes < matured(s); {
			switch m := read().(type) {
			case rtwire.Push:
				pushes++
				if m.ID == 0 || m.ID > members {
					t.Fatalf("push for unknown subscription: %+v", m)
				}
				if m.Cursor != last[m.ID]+1 || m.Dropped != 0 || m.Expired != 0 {
					t.Fatalf("sub %d: cursor %d after %d (dropped %d expired %d)", m.ID, m.Cursor, last[m.ID], m.Dropped, m.Expired)
				}
				last[m.ID] = m.Cursor
			case rtwire.Flushed:
				flushed = true
			default:
				t.Fatalf("unexpected frame %T: %+v", m, m)
			}
		}
	}
	if pushes == 0 || pushes%members != 0 {
		t.Fatalf("%d pushes over %d members: not whole ticks", pushes, members)
	}
	for id := 2; id <= members; id++ {
		if last[id] != last[1] {
			t.Fatalf("members of one group disagree on the tick count: %v", last[1:])
		}
	}
	w := ns.Wire.Snapshot()
	if w.FramesOut != frames || w.BytesOut != bytes || w.PushesOut != pushes {
		t.Errorf("wire counters frames/bytes/pushes = %d/%d/%d, the client read %d/%d/%d",
			w.FramesOut, w.BytesOut, w.PushesOut, frames, bytes, pushes)
	}
}

// countingListener wraps every accepted connection so a test can count the
// socket writes and the write- and read-deadline updates the server issues on
// it, and see a write that has not returned.
type countingListener struct {
	net.Listener
	conns chan *countingConn
}

type countingConn struct {
	net.Conn
	writes, deadlines, returned atomic.Int64
	readDeadlines               atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: nc}
	l.conns <- cc
	return cc, nil
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	defer c.returned.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) SetWriteDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

func (c *countingConn) SetReadDeadline(t time.Time) error {
	c.readDeadlines.Add(1)
	return c.Conn.SetReadDeadline(t)
}

// inWrite reports a server write on this connection that has not returned.
func (c *countingConn) inWrite() bool { return c.writes.Load() > c.returned.Load() }

// serveCounting serves the test server on ln through a countingListener;
// accepted connections arrive on the returned channel in accept order.
func serveCounting(t *testing.T, ln net.Listener) (*server.Server, *Server, <-chan *countingConn) {
	t.Helper()
	cfg := testConfig()
	cfg.Sessions = 2
	cl := countingListener{Listener: ln, conns: make(chan *countingConn, cfg.Sessions)}
	s, ns, _ := startNet(t, cfg, Options{}, cl)
	return s, ns, cl.conns
}

// TestPumpOneWritePerTick: a tick fanned out to 32 subscriptions on one
// connection costs at most two server socket writes and two write-deadline
// updates (one of each when the writer wakes after the apply loop has put
// the whole tick; a second when it overtook the apply loop mid-tick) — not
// one per Push frame.
func TestPumpOneWritePerTick(t *testing.T) {
	const members = 32
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, _, conns := serveCounting(t, ln)

	rc := dialRaw(t, ln.Addr().String())
	subConn := <-conns
	rc.handshake()
	openSubs(t, rc, members, 64)
	feeder, err := client.Dial(ln.Addr().String(), client.Options{Name: "feeder"})
	if err != nil {
		t.Fatal(err)
	}
	defer feeder.Close()

	var got uint64
	collect := func() {
		for got < matured(s) {
			if _, ok := rc.read().(rtwire.Push); !ok {
				t.Fatal("expected only pushes on the subscriber connection")
			}
			got++
		}
	}
	feed(t, feeder, 4) // warm up: first ticks, buffers grown
	collect()

	writes0, deadlines0, got0 := subConn.writes.Load(), subConn.deadlines.Load(), got
	for round := 0; round < 50; round++ {
		feed(t, feeder, 2)
		collect()
	}
	ticks := int64(got-got0) / members
	writes, deadlines := subConn.writes.Load()-writes0, subConn.deadlines.Load()-deadlines0
	t.Logf("%d ticks × %d members: %d socket writes, %d deadline updates", ticks, members, writes, deadlines)
	if ticks < 50 {
		t.Fatalf("only %d ticks matured over 50 rounds", ticks)
	}
	if writes > 2*ticks || deadlines > 2*ticks {
		t.Errorf("%d ticks cost %d socket writes and %d SetWriteDeadline calls; want at most %d of each",
			ticks, writes, deadlines, 2*ticks)
	}
}

// TestPumpNoGoroutinePerSubscription: attaching 32 subscriptions to a live
// connection starts no goroutine — the connection's writer is their pump.
func TestPumpNoGoroutinePerSubscription(t *testing.T) {
	_, _, addr := startNet(t, testConfig(), Options{}, nil)
	rc := dialRaw(t, addr)
	rc.handshake()
	// One subscription first, so whatever the first attach could start
	// lazily is already running when the baseline is taken.
	openSubs(t, rc, 1, 16)
	before := runtime.NumGoroutine()
	for id := 2; id <= 33; id++ {
		rc.write(rtwire.SubOpen{ID: uint64(id), Query: "status_q", Period: 2, Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1, Depth: 16}.Encode())
		if a := expectSubAck(t, rc, nil); a.State != rtwire.SubAdmitted {
			t.Fatalf("open ack %d: %+v", id, a)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("32 more subscriptions grew the process from %d to %d goroutines", before, after)
	}
}

// stallMembers is how many subscriptions the stalled subscriber holds, each
// with a delivery queue of stallDepth.
const (
	stallMembers = 8
	stallDepth   = 4
)

// stalledSubscriber stands up a server on a fabric, attaches stallMembers
// subscriptions over a connection whose server→client stream then stalls
// (the client has stopped reading and the socket buffers are full), and
// feeds ticks through a second connection until the subscriber's writer sits
// in a socket write that cannot return and every one of its delivery queues
// has filled up and started dropping oldest. From then on nothing is popped:
// the queues hold exactly stallMembers × stallDepth pushes.
func stalledSubscriber(t *testing.T, fab *faultnet.Fabric) (*server.Server, *Server, *client.Client) {
	t.Helper()
	ln, err := fab.Listen("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	s, ns, conns := serveCounting(t, ln)
	nc, err := fab.Dialer("stalled").DialTimeout("tcp", "srv:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	subConn := <-conns
	rc := &rawConn{t: t, nc: nc}
	rc.handshake()
	openSubs(t, rc, stallMembers, stallDepth)
	fab.StallAll("srv:1", "stalled")

	feeder := fabricClient(t, fab, "feeder", "srv:1", -1)
	for batch := 0; !subConn.inWrite(); batch++ {
		if batch == 1000 {
			t.Fatalf("the subscriber's writer never reached the socket: %+v", s.Metrics.Snapshot())
		}
		// Every Flush answered is the apply loop having served the batch —
		// it never waits for the stalled subscriber.
		feed(t, feeder, 8)
	}
	// The writer is parked; 32 samples are at least stallDepth+1 more ticks.
	dropped := s.Metrics.PushDropped.Load()
	feed(t, feeder, 32)
	if s.Metrics.PushDropped.Load() == dropped {
		t.Fatalf("full queues did not drop oldest: %+v", s.Metrics.Snapshot())
	}
	return s, ns, feeder
}

// TestSubTeardownAccountsQueued: a connection with 8 subscriptions that ends
// with pushes still parked in their delivery queues — the client's socket is
// cut with no Bye and no cancel, or the listener drains — leaves the push
// books balanced: handle cancels what is still attached after the read loop
// and every queued push is accounted dropped.
func TestSubTeardownAccountsQueued(t *testing.T) {
	for _, mode := range []string{"socket cut", "server drain"} {
		t.Run(mode, func(t *testing.T) {
			fab := faultnet.NewFabric(7)
			defer fab.Close()
			s, ns, _ := stalledSubscriber(t, fab)
			before := s.Metrics.Snapshot()
			closed := make(chan error, 1)
			if mode == "socket cut" {
				fab.CutAll("stalled", "srv:1")
			} else {
				go func() { closed <- ns.Close() }()
			}
			// The teardown has cancelled every subscription; only then may
			// the parked write go on (the drain waits for its writer).
			for s.Metrics.SubsClosed.Load() < stallMembers {
				runtime.Gosched()
			}
			fab.Heal()
			if mode == "socket cut" {
				closed <- ns.Close()
			}
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
			m := s.Metrics.Snapshot()
			if m.SubsOpened != stallMembers || m.SubsClosed != stallMembers {
				t.Errorf("subs opened/closed = %d/%d, want %d/%d", m.SubsOpened, m.SubsClosed, stallMembers, stallMembers)
			}
			checkBooks(t, s)
			if got := m.PushDropped - before.PushDropped; got != stallMembers*stallDepth || m.Pushed != before.Pushed {
				t.Errorf("teardown accounted %d queued pushes as dropped and %d as pushed; want %d and 0",
					got, m.Pushed-before.Pushed, stallMembers*stallDepth)
			}
		})
	}
}

// TestStalledSubscriberIsolated: a subscriber that stops reading costs only
// its own queues — they drop oldest, counted — while the apply loop keeps
// serving ticks and a query on a second connection still answers.
func TestStalledSubscriberIsolated(t *testing.T) {
	fab := faultnet.NewFabric(8)
	defer fab.Close()
	s, _, feeder := stalledSubscriber(t, fab)

	before := s.Metrics.Snapshot()
	feed(t, feeder, 32)
	after := s.Metrics.Snapshot()
	scheduled := after.PushScheduled - before.PushScheduled
	if scheduled == 0 || scheduled%stallMembers != 0 {
		t.Errorf("%d pushes scheduled beside the stalled subscriber: not whole ticks of %d", scheduled, stallMembers)
	}
	// Every queue is full: each new push displaces the oldest, none leaves.
	if after.PushDropped-before.PushDropped != scheduled || after.Pushed != before.Pushed {
		t.Errorf("of %d pushes scheduled, %d were dropped and %d popped; want all dropped",
			scheduled, after.PushDropped-before.PushDropped, after.Pushed-before.Pushed)
	}
	r, err := feeder.Query(client.Query{Query: "status_q", Candidate: "ok", Kind: deadline.Firm, Deadline: 1 << 20, MinUseful: 1})
	if err != nil || !r.Evaluated || r.Missed {
		t.Fatalf("query beside a stalled subscriber: %+v, %v", r, err)
	}
}

// TestSubCancelRacingDrain: a SubCancel that lands while the writer is
// draining ticks. The queue is closed before the closing SubAck is queued
// and the writer puts every push on the wire as it pops it, so pushes before
// the ack carry cursors at or below the ack's, in order, and none follows
// it.
func TestSubCancelRacingDrain(t *testing.T) {
	cfg := testConfig()
	cfg.Sessions = 2
	s, _, addr := startNet(t, cfg, Options{}, nil)
	rc := dialRaw(t, addr)
	rc.handshake()
	feeder, err := client.Dial(addr, client.Options{Name: "feeder"})
	if err != nil {
		t.Fatal(err)
	}
	defer feeder.Close()

	for round := 0; round < 20; round++ {
		id := uint64(round + 1)
		rc.write(rtwire.SubOpen{ID: id, Query: "status_q", Period: 2, Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1, Depth: 64}.Encode())
		if a := expectSubAck(t, rc, nil); a.State != rtwire.SubAdmitted {
			t.Fatalf("open ack: %+v", a)
		}
		// Ticks flow from another connection while this one cancels.
		scheduled := s.Metrics.PushScheduled.Load()
		fed := make(chan struct{})
		go func() {
			defer close(fed)
			for i := 0; i < 64; i++ {
				if feeder.InjectSample("temp", "20") != nil {
					return
				}
			}
			_ = feeder.Flush()
		}()
		for s.Metrics.PushScheduled.Load() == scheduled {
			runtime.Gosched()
		}
		rc.write(rtwire.SubCancel{ID: id}.Encode())
		var before []rtwire.Push
		ack := expectSubAck(t, rc, &before)
		if ack.ID != id || ack.State != rtwire.SubClosed {
			t.Fatalf("close ack: %+v", ack)
		}
		var lastCursor uint64
		for _, p := range before {
			if p.ID != id || p.Cursor <= lastCursor || p.Cursor > ack.Cursor {
				t.Fatalf("push %+v before close ack %+v (previous cursor %d)", p, ack, lastCursor)
			}
			lastCursor = p.Cursor
		}
		<-fed
		// Anything that trailed the ack is on the wire ahead of this reply.
		rc.write(rtwire.Flush{ID: 99}.Encode())
		for {
			m := rc.read()
			if _, ok := m.(rtwire.Flushed); ok {
				break
			}
			t.Fatalf("frame after the closing ack of subscription %d: %T %+v", id, m, m)
		}
	}
	checkBooks(t, s)
}

// TestReadDeadlinePerSocketRead: the inbound-silence bound is armed where the
// server waits for bytes, not once per frame. 64 samples and a Flush that
// arrive in one segment cost one SetReadDeadline for the read that delivers
// them and one for the read that waits behind them (the bound: one more, for
// a read armed before the count starts) — one per frame is 66.
func TestReadDeadlinePerSocketRead(t *testing.T) {
	fab := faultnet.NewFabric(1) // one write is one read: the segment cannot split
	defer fab.Close()
	ln, err := fab.Listen("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	_, ns, conns := serveCounting(t, ln)
	nc, err := fab.Dialer("burst").DialTimeout("tcp", "srv:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rc := &rawConn{t: t, nc: nc}
	cc := <-conns
	rc.handshake()
	base := cc.readDeadlines.Load()

	const flushID = 1000
	var burst []byte
	for i := uint64(1); i <= 64; i++ {
		burst = rtwire.Sample{ID: i, Image: "temp", Value: "21"}.AppendTo(burst)
	}
	rc.write(rtwire.Flush{ID: flushID}.AppendTo(burst))
	for answered := false; !answered; {
		switch m := rc.read().(type) {
		case rtwire.Flushed:
			answered = m.ID == flushID
		case rtwire.Err: // a sample (or the flush) bounced off the session queue
			answered = m.ID == flushID
		}
	}
	if got := ns.Wire.SamplesIn.Load(); got != 64 {
		t.Fatalf("server decoded %d samples of the burst, want 64", got)
	}
	if got := cc.readDeadlines.Load() - base; got > 3 {
		t.Errorf("65 frames in one segment cost %d SetReadDeadline calls, want at most 3", got)
	}
}

// gatedConn is a server-side connection whose writes, once shut, park until
// fail closes and then error — a socket that stopped draining, whose write
// timed out. parked counts the writes waiting at the gate.
type gatedConn struct {
	net.Conn
	shut   atomic.Bool
	fail   chan struct{}
	parked atomic.Int64
}

func (c *gatedConn) Write(p []byte) (int, error) {
	if c.shut.Load() {
		c.parked.Add(1)
		<-c.fail
		return 0, os.ErrDeadlineExceeded
	}
	return c.Conn.Write(p)
}

type gatedListener struct {
	net.Listener
	conns chan *gatedConn
}

func (l gatedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	gc := &gatedConn{Conn: nc, fail: make(chan struct{})}
	l.conns <- gc
	return gc, nil
}

// TestWriterFailureEndsParkedReader: a writer that fails while the read loop
// is parked on a full inflight semaphore — not in a socket read — must still
// end the connection, within a few write timeouts. The read loop's next read
// re-arms the silence bound after the writer's interrupt has landed, so it
// has to see the interrupt some other way; when it does not, the dead
// connection lingers for the whole bound (two minutes here).
func TestWriterFailureEndsParkedReader(t *testing.T) {
	const wt = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gl := gatedListener{Listener: ln, conns: make(chan *gatedConn, 1)}
	s, ns, _ := startNet(t, testConfig(), Options{MaxInflight: 1, WriteQueue: 1, WriteTimeout: wt, HeartbeatInterval: time.Minute}, gl)
	rc := dialRaw(t, ln.Addr().String())
	gc := <-gl.conns
	rc.handshake()

	// Of the queries in one segment, the first answers park the writer at
	// the gate, the next fills the write queue, the next one's handler
	// blocks on the queue holding the one inflight slot, and the read loop,
	// with one more decoded, waits for that slot.
	gc.shut.Store(true)
	var burst []byte
	for id := uint64(1); id <= 16; id++ {
		burst = rtwire.Query{ID: id, Query: "status_q"}.AppendTo(burst)
	}
	rc.write(burst)
	parked := func() bool {
		ns.mu.Lock()
		defer ns.mu.Unlock()
		for c := range ns.conns {
			return gc.parked.Load() > 0 && len(c.writeq) == cap(c.writeq) && len(c.sem) == cap(c.sem) &&
				ns.Wire.QueriesIn.Load() == s.Metrics.NoDeadline.Load()+1
		}
		return false
	}
	for !parked() {
		runtime.Gosched()
	}

	close(gc.fail)
	start := time.Now()
	for ns.Wire.ConnsClosed.Load() == 0 {
		if time.Since(start) > 20*wt {
			t.Fatalf("connection still open %v after its writer failed", time.Since(start))
		}
		time.Sleep(time.Millisecond)
	}
	if got := ns.Wire.WriteTimeouts.Load(); got != 1 {
		t.Errorf("net_write_timeouts = %d, want 1", got)
	}
}
