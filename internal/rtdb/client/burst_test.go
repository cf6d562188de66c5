package client_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rtc/internal/encoding"
	"rtc/internal/faultnet"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// None of these tests sleeps or counts on the flusher winning or losing a
// race: each holds the socket write it cares about on a gate, or waits on an
// event the code under test produces, so every run takes one of the orders
// the contract allows and the assertions hold on all of them.

// tapDialer dials real TCP and wraps every connection in a tapConn.
type tapDialer struct {
	// gate, when non-nil, parks the first data write of every connection
	// until it is closed.
	gate chan struct{}

	mu    sync.Mutex
	conns []*tapConn
}

func (d *tapDialer) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	nc, err := faultnet.OS{}.DialTimeout(network, address, timeout)
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: nc, gate: d.gate, wrote: make(chan struct{}, 1), failed: make(chan struct{}, 1)}
	d.mu.Lock()
	d.conns = append(d.conns, tc)
	d.mu.Unlock()
	return tc, nil
}

func (d *tapDialer) conn(i int) *tapConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.conns[i]
}

// tapConn counts and records the client's data writes — every socket write
// after the handshake's Hello — and can park the first of them or fail all of
// them on demand.
type tapConn struct {
	net.Conn
	gate   chan struct{}
	wrote  chan struct{} // one token per data write that reached the socket
	failed chan struct{} // one token per write refused by fail

	mu     sync.Mutex
	calls  int // Write calls, Hello included
	writes int // data writes
	wire   bytes.Buffer
	fail   bool
}

var errTapWrite = errors.New("tap: injected write failure")

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.calls++
	call, fail := c.calls, c.fail
	c.mu.Unlock()
	if call == 1 {
		return c.Conn.Write(p) // Hello
	}
	if fail {
		notify(c.failed)
		return 0, errTapWrite
	}
	if call == 2 && c.gate != nil {
		<-c.gate
	}
	c.mu.Lock()
	c.writes++
	c.wire.Write(p)
	c.mu.Unlock()
	n, err := c.Conn.Write(p)
	notify(c.wrote)
	return n, err
}

func notify(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func (c *tapConn) failWrites() {
	c.mu.Lock()
	c.fail = true
	c.mu.Unlock()
}

// sent returns the data-write count and the decoded frames written so far.
func (c *tapConn) sent(t *testing.T) (writes int, frames []any) {
	t.Helper()
	c.mu.Lock()
	writes = c.writes
	b := append([]byte(nil), c.wire.Bytes()...)
	c.mu.Unlock()
	for len(b) > 0 {
		f, n, err := rtwire.DecodeFrame(b)
		if err != nil {
			t.Fatalf("client wrote an undecodable stream: %v", err)
		}
		msg, err := rtwire.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, msg)
		b = b[n:]
	}
	return writes, frames
}

// waitApplied waits on the server until it has applied n samples.
func waitApplied(t *testing.T, s *server.Server, n uint64) {
	t.Helper()
	for dl := time.Now().Add(10 * time.Second); s.Metrics.SamplesApplied.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(dl) {
			t.Fatalf("server applied %d samples, want %d", s.Metrics.SamplesApplied.Load(), n)
		}
	}
}

// injectAll runs n InjectSample calls (values 0..n-1) and fails the test if
// they do not all return while a socket write is parked on gate: accepting a
// sample must not wait on the socket.
func injectAll(t *testing.T, c *client.Client, n int, gate chan struct{}) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := c.InjectSample("temp", strconv.Itoa(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(gate)
		t.Fatalf("InjectSample blocked behind a parked socket write")
	}
}

// wantSamples checks that frames starts with n samples valued 0..n-1 in
// order, and returns the rest.
func wantSamples(t *testing.T, frames []any, n int) []any {
	t.Helper()
	if len(frames) < n {
		t.Fatalf("%d frames on the wire, want at least %d samples", len(frames), n)
	}
	for i := 0; i < n; i++ {
		m, ok := frames[i].(rtwire.Sample)
		if !ok || m.Value != strconv.Itoa(i) {
			t.Fatalf("frame %d on the wire is %+v, want sample %d", i, frames[i], i)
		}
	}
	return frames[n:]
}

// TestBurstSharesAWrite: 64 samples accepted while the connection's first
// data write is parked, then a Flush, reach the server in at most three
// socket writes — the parked one, one for what queued behind it, one for the
// Flush — in submit order, all applied. One write per frame is 65.
func TestBurstSharesAWrite(t *testing.T) {
	s, addr := startServer(t, nil, "")
	d := &tapDialer{gate: make(chan struct{})}
	c, err := client.Dial(addr, client.Options{Dialer: d, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	injectAll(t, c, 64, d.gate)
	close(d.gate)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	writes, frames := d.conn(0).sent(t)
	rest := wantSamples(t, frames, 64)
	if len(rest) != 1 {
		t.Fatalf("%d frames after the samples, want the one Flush", len(rest))
	}
	if _, ok := rest[0].(rtwire.Flush); !ok {
		t.Fatalf("last frame is %+v, want Flush", rest[0])
	}
	if writes > 3 {
		t.Errorf("64 samples + Flush took %d socket writes, want at most 3", writes)
	}
	if got := s.Metrics.SamplesApplied.Load(); got != 64 {
		t.Errorf("server applied %d samples behind the acked Flush, want 64", got)
	}
}

// TestLoneSampleLeaves: one InjectSample and no further client call — the
// flusher alone must carry it to the server.
func TestLoneSampleLeaves(t *testing.T) {
	s, addr := startServer(t, nil, "")
	c, err := client.Dial(addr, client.Options{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.InjectSample("temp", "25"); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, s, 1)
}

// TestOrderAcrossKinds: samples nobody waits on and queries that are waited
// on, interleaved on one connection, reach the wire in program order.
func TestOrderAcrossKinds(t *testing.T) {
	_, addr := startServer(t, nil, "")
	d := &tapDialer{}
	c, err := client.Dial(addr, client.Options{Dialer: d, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var want []string
	for round := 0; round < 20; round++ {
		for i := 0; i <= round%3; i++ {
			if err := c.InjectSample("temp", "21"); err != nil {
				t.Fatal(err)
			}
			want = append(want, "sample")
		}
		if _, err := c.Query(client.Query{Query: "status_q"}); err != nil {
			t.Fatal(err)
		}
		want = append(want, "query")
	}
	_, frames := d.conn(0).sent(t)
	if len(frames) != len(want) {
		t.Fatalf("%d frames on the wire, want %d", len(frames), len(want))
	}
	var last uint64
	for i, f := range frames {
		var kind string
		var id uint64
		switch m := f.(type) {
		case rtwire.Sample:
			kind, id = "sample", m.ID
		case rtwire.Query:
			kind, id = "query", m.ID
		}
		// Ids are handed out in call order, so increasing ids are program order.
		if kind != want[i] || id <= last {
			t.Fatalf("frame %d is %s id %d after id %d, want %s in program order", i, kind, id, last, want[i])
		}
		last = id
	}
}

// TestCloseLosesNothingAccepted: samples accepted behind a parked write are
// on the wire, in order, before Close's Bye — and nothing follows it.
func TestCloseLosesNothingAccepted(t *testing.T) {
	s, addr := startServer(t, nil, "")
	d := &tapDialer{gate: make(chan struct{})}
	c, err := client.Dial(addr, client.Options{Dialer: d, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	injectAll(t, c, 64, d.gate)
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	close(d.gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	_, frames := d.conn(0).sent(t)
	rest := wantSamples(t, frames, 64)
	if len(rest) != 1 {
		t.Fatalf("%d frames after the samples, want the one Bye", len(rest))
	}
	if _, ok := rest[0].(rtwire.Bye); !ok {
		t.Fatalf("last frame is %+v, want Bye", rest[0])
	}
	waitApplied(t, s, 64)
}

// TestFlusherFindsDeadSocket: the socket starts refusing writes while a
// sample sits in the buffer and a call is pending. Only the flusher touches
// the socket, so it is the flusher's failure that must clear the connection:
// the pending call fails instead of hanging, and the next send redials.
func TestFlusherFindsDeadSocket(t *testing.T) {
	addr := fakeNode(t, 1, true, 2) // handshakes, then never answers
	d := &tapDialer{}
	c, err := client.Dial(addr, client.Options{
		Dialer: d, HeartbeatInterval: -1, RetryAttempts: -1, CallTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tc := d.conn(0)
	pending := make(chan error, 1)
	go func() { pending <- c.Flush() }()
	<-tc.wrote // the Flush frame is out; its caller now waits on a reply
	tc.failWrites()
	if err := c.InjectSample("temp", "20"); err != nil {
		t.Fatalf("InjectSample into the buffer of a socket not yet known dead: %v", err)
	}
	<-tc.failed // the flusher tried the socket
	select {
	case err := <-pending:
		if !errors.Is(err, client.ErrConnDown) {
			t.Fatalf("pending Flush returned %v, want ErrConnDown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pending Flush still hangs after the flusher's write failed")
	}
	if got := c.Stats.Redials.Load(); got != 0 {
		t.Fatalf("Redials = %d before any send followed the failure", got)
	}
	if err := c.InjectSample("temp", "21"); err != nil {
		t.Fatalf("InjectSample after the connection was cleared: %v", err)
	}
	if got := c.Stats.Redials.Load(); got != 1 {
		t.Fatalf("Redials = %d after the next send, want 1", got)
	}
	<-d.conn(1).wrote // and the sample leaves on the new connection
	if _, frames := d.conn(1).sent(t); len(frames) != 1 {
		t.Fatalf("new connection carries %d frames, want only the sample sent on it", len(frames))
	}
}

// TestSendAllocGates pins the client's hot paths beside rtwire's
// TestAllocGates, with counts, which repeat where clocks do not: a warm
// InjectSample allocates nothing, a warm Flush round trip at most 1, and a
// warm Query round trip whose Result carries one answer at most 2 — the
// answers slice and its string, which the caller keeps. The peer allocates
// nothing itself (allocFreeNode), so every count is the client's.
func TestSendAllocGates(t *testing.T) {
	c, err := client.Dial(allocFreeNode(t, "21"), client.Options{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := client.Query{Query: "status_q", Candidate: "ok", Deadline: 8, MinUseful: 1}
	for _, g := range []struct {
		name string
		max  float64
		call func() error
	}{
		{"InjectSample", 0, func() error { return c.InjectSample("temp", "21") }},
		{"Flush", 1, c.Flush},
		{"Query", 2, func() error {
			r, err := c.Query(q)
			if err == nil && (len(r.Answers) != 1 || r.Answers[0] != "21") {
				err = fmt.Errorf("answers %q, want [21]", r.Answers)
			}
			return err
		}},
	} {
		var err error
		// AllocsPerRun warms up with one call of its own.
		if allocs := testing.AllocsPerRun(200, func() {
			if e := g.call(); e != nil {
				err = e
			}
		}); allocs > g.max {
			t.Errorf("%s: %v allocs per call, budget %v", g.name, allocs, g.max)
		}
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
	}

	// A warm push whose answers equal a recent set is delivered in that
	// set: decoding it and handing it to the consumer allocate nothing.
	s, err := c.Subscribe(client.SubSpec{Query: "status_q", Period: 8})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if e := c.InjectSample("temp", "21"); e != nil {
			err = e
		} else if p := <-s.Pushes(); len(p.Answers) != 1 || p.Answers[0] != "21" {
			err = fmt.Errorf("answers %q, want [21]", p.Answers)
		}
	}); allocs > 0 {
		t.Errorf("Push: %v allocs per push, budget 0", allocs)
	}
	if err != nil {
		t.Fatalf("Push: %v", err)
	}
}

// TestPushAnswersShared: the pushes of one tick to two subscriptions on one
// connection arrive in one answers slice, which both consumers read at
// once, and a tick whose answers change arrives with its own answers — never
// a recent set of the same length or a prefix of it.
func TestPushAnswersShared(t *testing.T) {
	c, err := client.Dial(allocFreeNode(t, "21"), client.Options{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := client.SubSpec{Query: "status_q", Period: 8, Buffer: 64}
	subs := make([]*client.Subscription, 2)
	for i := range subs {
		if subs[i], err = c.Subscribe(spec); err != nil {
			t.Fatal(err)
		}
	}
	// Six distinct sets, more than the client keeps.
	ticks := []string{"ok", "ok", "high", "ok", "ok,high", "ok,low", "ok", "low", "low", "ok,low,x"}
	for _, v := range ticks {
		if err := c.InjectSample("temp", v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([][][]string, len(subs))
	var wg sync.WaitGroup
	for i, s := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range ticks {
				select {
				case p := <-s.Pushes():
					got[i] = append(got[i], p.Answers)
					_ = strings.Join(p.Answers, ",") // read while the other consumer reads
				case <-time.After(10 * time.Second):
					t.Errorf("subscription %d: %d of %d pushes", i, len(got[i]), len(ticks))
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k, v := range ticks {
		a, b := got[0][k], got[1][k]
		if strings.Join(a, ",") != v || strings.Join(b, ",") != v {
			t.Fatalf("tick %d: answers %q and %q, want %q", k, a, b, v)
		}
		if &a[0] != &b[0] {
			t.Errorf("tick %d: the two pushes hold separate slices, want one shared", k)
		}
	}
}

// allocFreeNode is a one-connection peer that allocates nothing once it has
// handshaken: it reads every frame into one buffer with ReadFrameBuf, takes
// the request id from the payload's first field, and answers a Query with a
// Result carrying answer and a Flush with a Flushed, each encoded into one
// reused buffer. A SubOpen it admits, and a Sample is a tick: one Push to
// every admitted subscription, whose answers are the sample's value split at
// commas — built anew only when the value changes. Any other frame it drops.
func allocFreeNode(t *testing.T, answer string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := rtwire.ReadFrame(br); err != nil {
			return
		}
		if _, err := conn.Write(rtwire.Welcome{Epoch: 1, Role: rtwire.RolePrimary}.Encode()); err != nil {
			return
		}
		answers := []string{answer}
		var rbuf, out []byte
		var subs []uint64
		var ticks uint64
		var value string
		var tick []string
		for {
			f, err := rtwire.ReadFrameBuf(br, &rbuf)
			if err != nil {
				return
			}
			sc := encoding.Scan(f.Payload)
			raw, _, _ := sc.Next()
			id, _ := encoding.ParseUint(raw)
			switch f.Kind {
			case rtwire.KindQuery:
				out = rtwire.Result{ID: id, Match: true, Evaluated: true, Answers: answers}.AppendTo(out[:0])
			case rtwire.KindFlush:
				out = rtwire.Flushed{ID: id}.AppendTo(out[:0])
			case rtwire.KindSubOpen:
				subs = append(subs, id)
				out = rtwire.SubAck{ID: id, State: rtwire.SubAdmitted}.AppendTo(out[:0])
			case rtwire.KindSample:
				if len(subs) == 0 {
					continue
				}
				sc.Next() // the image
				if raw, _, _ = sc.Next(); string(raw) != value {
					value = string(raw)
					tick = strings.Split(value, ",")
				}
				ticks++
				out = out[:0]
				for _, sub := range subs {
					out = rtwire.Push{ID: sub, Cursor: ticks, Useful: 1, Evaluated: true, Answers: tick}.AppendTo(out)
				}
			default:
				continue
			}
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}
