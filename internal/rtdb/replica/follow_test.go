package replica

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtc/internal/faultfs"
	"rtc/internal/faultnet"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
)

// stubPrimary is a scripted primary on loopback. Every connection it accepts
// is answered with a Welcome at epoch; the follower's Subscribe is answered
// with whatever onSubscribe returns, and its WalAcks are recorded. A
// connection the follower ends counts as a cut.
type stubPrimary struct {
	ln          net.Listener
	epoch       uint64
	onSubscribe func(rtwire.Subscribe) [][]byte

	subscribes, cuts atomic.Int64
	lastAck          atomic.Uint64
	closed           atomic.Bool

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newStubPrimary(t *testing.T, epoch uint64, onSubscribe func(rtwire.Subscribe) [][]byte) *stubPrimary {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stubPrimary{ln: ln, epoch: epoch, onSubscribe: onSubscribe}
	t.Cleanup(p.close)
	p.wg.Add(1)
	go p.accept()
	return p
}

func (p *stubPrimary) addr() string { return p.ln.Addr().String() }

func (p *stubPrimary) accept() {
	defer p.wg.Done()
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		p.conns = append(p.conns, nc)
		p.mu.Unlock()
		p.wg.Add(1)
		go p.serve(nc)
	}
}

func (p *stubPrimary) serve(nc net.Conn) {
	defer p.wg.Done()
	defer nc.Close()
	br := bufio.NewReader(nc)
	if _, err := readMsg(br); err != nil { // Hello
		return
	}
	welcome := rtwire.Welcome{Epoch: p.epoch, Role: rtwire.RolePrimary, Shards: 1}
	if _, err := nc.Write(welcome.Encode()); err != nil {
		return
	}
	for {
		msg, err := readMsg(br)
		if err != nil {
			if !p.closed.Load() {
				p.cuts.Add(1)
			}
			return
		}
		switch m := msg.(type) {
		case rtwire.Subscribe:
			p.subscribes.Add(1)
			for _, f := range p.onSubscribe(m) {
				if _, err := nc.Write(f); err != nil {
					return
				}
			}
		case rtwire.WalAck:
			p.lastAck.Store(m.Seq)
		}
	}
}

func (p *stubPrimary) close() {
	p.closed.Store(true)
	p.ln.Close()
	p.mu.Lock()
	for _, nc := range p.conns {
		nc.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// openStubFollower opens a follower of addr over walOpt, dialling through d
// (nil: real TCP), with a fast redial walk and a silence bound that never
// fires within a test. It is closed at cleanup, before the stub primary.
func openStubFollower(t *testing.T, addr string, walOpt wal.Options, d faultnet.Dialer) *Replica {
	t.Helper()
	r, err := Open(Config{
		Primary: addr, WAL: walOpt, Client: client.Options{Name: "stub-follower",
			RetryBackoff: time.Millisecond, RetryBackoffMax: 20 * time.Millisecond,
			Seed: 5, HeartbeatInterval: 5 * time.Second / 3, Dialer: d,
		},
	}, testServer())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// waitFor polls cond for up to 10 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// batchOf is one WalBatch carrying events [first, first+n) of testEvents.
func batchOf(epoch, first uint64, n int) []byte {
	ev := testEvents(int(first) + n)
	b := rtwire.WalBatch{Epoch: epoch, FirstSeq: first}
	for _, e := range ev[first-1 : int(first-1)+n] {
		b.Events = append(b.Events, string(e.Payload()))
	}
	return b.Encode()
}

// TestFollowerProtocol pins what a follower does with each thing its primary
// can say about fencing and refusal, against a scripted primary:
//
//	(a) a Welcome at an epoch older than the persisted one is refused and
//	    counted, and nothing is applied;
//	(b) a Heartbeat at an older epoch mid-stream cuts the stream, counted;
//	(c) a newer Welcome epoch is persisted with no batch behind it, so a
//	    promotion goes past it;
//	(d) a Subscribe answered with Err{CodeStale} ends the attachment: the
//	    follower re-subscribes on the jittered walk, never sits connected
//	    and unfed, and closes promptly.
func TestFollowerProtocol(t *testing.T) {
	cases := []struct {
		name        string
		persisted   uint64 // the follower's epoch before it dials (0: fresh)
		welcome     uint64
		onSubscribe func(rtwire.Subscribe) [][]byte
		check       func(t *testing.T, p *stubPrimary, r *Replica)
	}{
		{
			name: "a/stale-welcome", persisted: 5, welcome: 3,
			onSubscribe: func(s rtwire.Subscribe) [][]byte { return [][]byte{batchOf(3, s.AfterSeq+1, 2)} },
			check: func(t *testing.T, p *stubPrimary, r *Replica) {
				waitFor(t, "a stale Welcome refused", func() bool { return r.srv.Repl.StaleBatches.Load() >= 1 })
				if r.Seq() != 0 || r.srv.Repl.EventsApplied.Load() != 0 {
					t.Fatalf("stale primary's events applied: seq %d", r.Seq())
				}
				if got := r.Epoch(); got != 5 {
					t.Fatalf("Epoch() = %d after a stale Welcome, want 5", got)
				}
			},
		},
		{
			name: "b/stale-heartbeat", welcome: 4,
			onSubscribe: func(s rtwire.Subscribe) [][]byte {
				out := [][]byte{rtwire.Heartbeat{Epoch: 2, Seq: 2}.Encode()}
				if s.AfterSeq == 0 {
					out = append([][]byte{batchOf(4, 1, 2)}, out...)
				}
				return out
			},
			check: func(t *testing.T, p *stubPrimary, r *Replica) {
				waitFor(t, "the stream cut", func() bool { return p.cuts.Load() >= 1 })
				waitFor(t, "the cut counted", func() bool { return r.srv.Repl.StaleBatches.Load() >= 1 })
				if r.Seq() != 2 || r.Epoch() != 4 {
					t.Fatalf("seq %d epoch %d, want 2/4", r.Seq(), r.Epoch())
				}
			},
		},
		{
			name: "c/newer-welcome-no-batch", welcome: 9,
			onSubscribe: func(rtwire.Subscribe) [][]byte { return nil },
			check: func(t *testing.T, p *stubPrimary, r *Replica) {
				waitFor(t, "the Welcome epoch persisted", func() bool { return r.Epoch() == 9 })
				epoch, err := r.Promote()
				if err != nil {
					t.Fatal(err)
				}
				if epoch != 10 {
					t.Fatalf("Promote = %d after adopting epoch 9, want 10", epoch)
				}
			},
		},
		{
			name: "d/stale-err", welcome: 1,
			onSubscribe: func(rtwire.Subscribe) [][]byte {
				return [][]byte{rtwire.Err{Code: rtwire.CodeStale, Msg: "follower is ahead of this log"}.Encode()}
			},
			check: func(t *testing.T, p *stubPrimary, r *Replica) {
				waitFor(t, "three re-subscribes", func() bool {
					return r.srv.Repl.Reconnects.Load() >= 3 && p.subscribes.Load() >= 3 && p.cuts.Load() >= 3
				})
				if r.Seq() != 0 {
					t.Fatalf("refused stream applied events: seq %d", r.Seq())
				}
				done := make(chan struct{})
				go func() { r.Close(); close(done) }()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("Close hung on a follower its primary refuses")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			walOpt := wal.Options{Dir: "rwal", FS: faultfs.NewMem(6)}
			if tc.persisted > 0 {
				l, err := wal.Open(walOpt)
				if err != nil {
					t.Fatal(err)
				}
				if err := l.AdoptEpoch(tc.persisted); err != nil {
					t.Fatal(err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			p := newStubPrimary(t, tc.welcome, tc.onSubscribe)
			r := openStubFollower(t, p.addr(), walOpt, nil)
			r.Start()
			tc.check(t, p, r)
		})
	}
}

// ackTap dials real TCP and parks the first socket write that carries a
// WalAck until gate closes, counting every write that carries one.
type ackTap struct {
	gate   chan struct{}
	parked chan struct{} // closed when the first ack write is parked

	mu        sync.Mutex
	ackWrites int
}

func (d *ackTap) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	nc, err := faultnet.OS{}.DialTimeout(network, address, timeout)
	if err != nil {
		return nil, err
	}
	return &ackTapConn{Conn: nc, tap: d}, nil
}

type ackTapConn struct {
	net.Conn
	tap *ackTap
}

func (c *ackTapConn) Write(p []byte) (int, error) {
	if carriesAck(p) {
		d := c.tap
		d.mu.Lock()
		d.ackWrites++
		first := d.ackWrites == 1
		d.mu.Unlock()
		if first {
			close(d.parked)
			<-d.gate
		}
	}
	return c.Conn.Write(p)
}

func carriesAck(p []byte) bool {
	for len(p) > 0 {
		f, n, err := rtwire.DecodeFrame(p)
		if err != nil {
			return false
		}
		if f.Kind == rtwire.KindWalAck {
			return true
		}
		p = p[n:]
	}
	return false
}

// TestAcksCoalesce: a follower whose first WalAck write is held keeps
// applying, and the acks that pile up behind it leave together once the
// write is released — not one socket write per batch — the last of them
// reporting the follower's tail.
func TestAcksCoalesce(t *testing.T) {
	const batches = 16
	p := newStubPrimary(t, 1, func(s rtwire.Subscribe) [][]byte {
		var out [][]byte
		for i := s.AfterSeq + 1; i <= batches; i++ {
			out = append(out, batchOf(1, i, 1))
		}
		return out
	})
	tap := &ackTap{gate: make(chan struct{}), parked: make(chan struct{})}
	r := openStubFollower(t, p.addr(), wal.Options{Dir: "rwal", FS: faultfs.NewMem(8)}, tap)
	r.Start()
	select {
	case <-tap.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the follower never acked")
	}
	r.WaitSeq(batches, 3*time.Second) // the batches arrive while the ack is held
	close(tap.gate)
	waitFor(t, "the final ack", func() bool { return p.lastAck.Load() == batches })
	tap.mu.Lock()
	writes := tap.ackWrites
	tap.mu.Unlock()
	if writes > 3 {
		t.Fatalf("%d acks took %d socket writes, want ≤ 3", batches, writes)
	}
	if got := r.Seq(); got != batches || p.lastAck.Load() != got {
		t.Fatalf("last ack %d, tail %d, want both %d", p.lastAck.Load(), got, batches)
	}
}
