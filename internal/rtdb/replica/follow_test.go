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

// payloadsOf renders events as the record payloads a primary ships.
func payloadsOf(events []wal.Event) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = string(e.Payload())
	}
	return out
}

// stateOf is the log state events replay into.
func stateOf(t *testing.T, events []wal.Event) *wal.State {
	t.Helper()
	st := wal.NewState()
	for _, e := range events {
		if err := st.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// diffLog compares the replica's log state with want, under the replica's
// lock so no batch lands mid-compare.
func diffLog(r *Replica, want *wal.State) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return want.Diff(r.log.State())
}

// undecodable is a shipped payload no log accepts: its time is not decimal.
const undecodable = "$S@soon@temp@21$"

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
//	    and unfed, and closes promptly;
//	(e) a live batch with an undecodable payload in the middle lands its
//	    prefix durable, the server absorbs exactly that prefix, and the
//	    batch fails;
//	(f) a state-dump batch (Snap set), which no primary sends, is refused
//	    before the log is touched: the follower keeps its Seq, content,
//	    log and epoch, whatever epoch the batch carries.
func TestFollowerProtocol(t *testing.T) {
	cases := []struct {
		name        string
		persisted   uint64 // the follower's epoch before it dials (0: fresh)
		sync        bool   // the follower's WAL fsyncs its appends
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
		{
			name: "e/undecodable-live-payload", sync: true, welcome: 1,
			onSubscribe: func(s rtwire.Subscribe) [][]byte {
				if s.AfterSeq > 0 {
					return nil
				}
				ev := payloadsOf(testEvents(1))
				return [][]byte{rtwire.WalBatch{Epoch: 1, FirstSeq: 1, Events: []string{ev[0], ev[1], undecodable, ev[3]}}.Encode()}
			},
			check: func(t *testing.T, p *stubPrimary, r *Replica) {
				waitFor(t, "the failed batch cut and re-subscribed", func() bool { return p.cuts.Load() >= 1 && p.subscribes.Load() >= 2 })
				if seq, ds := r.Seq(), r.Log().DurableSeq(); seq != 2 || ds != seq {
					t.Fatalf("seq %d durable %d, want the prefix 2 durable", seq, ds)
				}
				if got := r.srv.Repl.EventsApplied.Load(); got != 2 {
					t.Fatalf("repl_events_applied %d, want the prefix 2", got)
				}
				if got := r.srv.Repl.BatchesIn.Load(); got != 0 {
					t.Fatalf("repl_batches_in %d: the batch must fail", got)
				}
				if d := diffLog(r, stateOf(t, testEvents(1)[:2])); d != "" {
					t.Fatalf("prefix state: %s", d)
				}
			},
		},
		{
			name: "f/snap-batch-refused", welcome: 1,
			onSubscribe: func(s rtwire.Subscribe) [][]byte {
				if s.AfterSeq == 0 { // the history to keep, then a cut
					return [][]byte{batchOf(1, 1, 5), rtwire.Err{Code: rtwire.CodeClosed, Msg: "cut"}.Encode()}
				}
				return [][]byte{rtwire.WalBatch{Epoch: 7, Snap: rtwire.SnapPart, Events: payloadsOf(testEvents(8))}.Encode()}
			},
			check: func(t *testing.T, p *stubPrimary, r *Replica) {
				waitFor(t, "two refused Snap batches", func() bool { return p.subscribes.Load() >= 3 && p.cuts.Load() >= 3 })
				if seq, appends, epoch := r.Seq(), r.Log().Stats().Appends, r.Epoch(); seq != 5 || appends != 5 || epoch != 1 {
					t.Fatalf("after Snap batches at epoch 7: seq %d, %d appends, epoch %d; want the log untouched at 5, 5, 1", seq, appends, epoch)
				}
				if d := diffLog(r, stateOf(t, testEvents(1))); d != "" {
					t.Fatalf("content after a refused Snap batch: %s", d)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			walOpt := wal.Options{Dir: "rwal", FS: faultfs.NewMem(6), Sync: tc.sync}
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

// TestFollowerLogIsPrimaryBytes: a follower's log reads back a payload
// another encoder framed, with a %-pair this encoder never writes, byte for
// byte — decoding and re-encoding would have rewritten it.
func TestFollowerLogIsPrimaryBytes(t *testing.T) {
	t.Run("b/foreign-encoding", func(t *testing.T) {
		const sample = "$%S@7@temp@21$" // the tag S, escaped
		if e, ok := wal.DecodeEvent(sample); !ok || string(e.Payload()) == sample {
			t.Fatalf("precondition: %q must decode (ok %v) and re-encode differently", sample, ok)
		}
		shipped := []string{string(wal.Image("temp", 5).Payload()), sample}
		p := newStubPrimary(t, 1, func(s rtwire.Subscribe) [][]byte {
			if s.AfterSeq > 0 {
				return nil
			}
			return [][]byte{rtwire.WalBatch{Epoch: 1, FirstSeq: 1, Events: shipped}.Encode()}
		})
		r := openStubFollower(t, p.addr(), wal.Options{Dir: "rwal", FS: faultfs.NewMem(10)}, nil)
		r.Start()
		if !r.WaitSeq(2, 10*time.Second) {
			t.Fatalf("follower stuck at seq %d, want 2", r.Seq())
		}
		got, err := r.Log().ReadFrom(&wal.ReadPos{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != shipped[0] || got[1] != shipped[1] {
			t.Fatalf("follower's segment holds %q, want the shipped %q", got, shipped)
		}
	})
}
