package netserve

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// TestNetRaceHammer throws 32 concurrent clients at one loopback listener
// — samples, firm and soft queries, as-of reads, metrics fetches, flushes,
// all interleaved — and then checks that the conservation laws survived
// the trip over TCP: every query submission accounted exactly once, every
// accepted sample applied, every accepted connection closed. Run it under
// -race; that is its whole point.
func TestNetRaceHammer(t *testing.T) {
	const (
		clients = 32
		opsPer  = 40
	)
	cfg := testConfig()
	cfg.Sessions = clients
	cfg.QueueDepth = 16
	s, ns, addr := startNet(t, cfg, Options{}, nil)

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{Name: fmt.Sprintf("hammer-%d", id)})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for op := 0; op < opsPer; op++ {
				switch op % 8 {
				case 0, 1, 2:
					if err := c.InjectSample("temp", fmt.Sprint(15+op%10)); err != nil &&
						!errors.Is(err, client.ErrBackpressure) {
						errs <- err
						return
					}
				case 3, 4:
					_, err := c.Query(client.Query{
						Query: "status_q", Candidate: "ok",
						Kind: deadline.Firm, Deadline: 1 << 20, MinUseful: 1,
					})
					if err != nil && !errors.Is(err, client.ErrBackpressure) {
						errs <- err
						return
					}
				case 5:
					_, err := c.Query(client.Query{
						Query: "temp_q", Kind: deadline.Soft, Deadline: 1 << 20,
						MinUseful: 1, Decay: rtwire.Decay{ID: rtwire.DecayHyperbolic, Max: 8},
					})
					if err != nil && !errors.Is(err, client.ErrBackpressure) {
						errs <- err
						return
					}
				case 6:
					if _, _, _, err := c.AsOf("temp", 1); err != nil {
						errs <- err
						return
					}
				case 7:
					if _, err := c.Metrics(); err != nil {
						errs <- err
						return
					}
				}
			}
			if err := c.Flush(); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	checkBooks(t, s, ns)
	w := ns.Wire.Snapshot()
	if w.QueriesIn == 0 || w.SamplesIn == 0 {
		t.Errorf("hammer did no work: %+v", w)
	}
	if w.DecodeErrors != 0 {
		t.Errorf("decode errors on a clean loopback: %d", w.DecodeErrors)
	}
}

// TestDrainMidFlight closes the listener while 8 clients are mid-hammer.
// The drain contract: in-flight requests finish or are cleanly refused,
// every session is flushed before its id returns to the pool, the laws
// still hold, and a dial after Close fails.
func TestDrainMidFlight(t *testing.T) {
	const clients = 8
	cfg := testConfig()
	cfg.Sessions = clients
	s, ns, addr := startNet(t, cfg, Options{}, nil)

	var wg sync.WaitGroup
	started := make(chan struct{}, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{
				Name:          fmt.Sprintf("drain-%d", id),
				RetryAttempts: -1, CallTimeout: 5 * time.Second,
			})
			if err != nil {
				return // raced the close; fine
			}
			defer c.Close()
			started <- struct{}{}
			for op := 0; ; op++ {
				if err := c.InjectSample("temp", fmt.Sprint(op%30)); err != nil {
					return // connection drained out from under us
				}
				if _, err := c.Query(client.Query{
					Query: "status_q", Kind: deadline.Firm, Deadline: 1 << 20, MinUseful: 1,
				}); err != nil && !errors.Is(err, client.ErrBackpressure) {
					return
				}
			}
		}(i)
	}

	// Let every client get at least one op in, then pull the plug.
	for i := 0; i < clients; i++ {
		<-started
	}
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Post-drain the laws hold: Close flushed each session before
	// returning, so every accepted sample is applied.
	checkBooks(t, s, ns)

	// The drained listener accepts no one.
	if _, err := client.Dial(addr, client.Options{
		RetryAttempts: -1, DialTimeout: 500 * time.Millisecond,
	}); err == nil {
		t.Error("dial after Close succeeded")
	}
}

// TestSubChurnHammer attaches and cancels subscriptions from 8 goroutines on
// ONE connection while a second connection keeps ticks flowing: the read
// loop edits the connection's subscription list, the writer sweeps it, and
// the apply loop fills the queues, all at once. Each worker checks cursor
// order on what it receives; at the end the push books balance and every
// subscription opened is closed. Run it under -race; that is its whole
// point.
func TestSubChurnHammer(t *testing.T) {
	const (
		workers = 8
		cycles  = 12
	)
	cfg := testConfig()
	cfg.Sessions = 2
	s, ns, addr := startNet(t, cfg, Options{}, nil)
	subConn, err := client.Dial(addr, client.Options{Name: "churn-subs"})
	if err != nil {
		t.Fatal(err)
	}
	defer subConn.Close()
	feeder, err := client.Dial(addr, client.Options{Name: "churn-feeder"})
	if err != nil {
		t.Fatal(err)
	}
	defer feeder.Close()

	stop := make(chan struct{})
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for op := 0; ; op++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := feeder.InjectSample("temp", fmt.Sprint(15+op%10)); err != nil &&
				!errors.Is(err, client.ErrBackpressure) {
				t.Error(err)
				return
			}
			if op%8 == 7 {
				if err := feeder.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for cycle := 0; cycle < cycles; cycle++ {
				sub, err := subConn.Subscribe(client.SubSpec{
					// Three evaluation groups; each tick costs one chronon,
					// so 1/4 + 1/6 + 1/8 keeps the virtual clock feasible.
					Query: "status_q", Period: timeseq.Time(4 + 2*((w+cycle)%3)),
					Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1, Depth: 8,
				})
				if err != nil {
					t.Errorf("worker %d cycle %d: %v", w, cycle, err)
					return
				}
				var last uint64
				for n := 0; n < 1+cycle%4; n++ {
					p, ok := <-sub.Pushes()
					if !ok {
						t.Errorf("worker %d cycle %d: subscription ended: %v", w, cycle, sub.Err())
						return
					}
					if p.Cursor <= last {
						t.Errorf("worker %d cycle %d: cursor %d after %d", w, cycle, p.Cursor, last)
					}
					last = p.Cursor
				}
				if err := sub.Close(); err != nil {
					t.Errorf("worker %d cycle %d: close: %v", w, cycle, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-fed

	_ = subConn.Close()
	_ = feeder.Close()
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics.Snapshot()
	if m.SubsOpened != workers*cycles || m.PushScheduled == 0 {
		t.Errorf("subs opened %d, want %d; pushes scheduled %d", m.SubsOpened, workers*cycles, m.PushScheduled)
	}
	checkBooks(t, s)
	if w := ns.Wire.Snapshot(); w.DecodeErrors != 0 || w.WriteDrops != 0 {
		t.Errorf("churn on a clean loopback: %+v", w)
	}
}

// TestServeCloseChurn races Close against a Serve that is still accepting,
// with clients dialing and hanging up throughout. Serve's wg.Add for a
// just-accepted socket must be ordered against Close's wg.Wait, a Close that
// wins the race to the listener must still stop Serve, and the connection
// books must balance however the race falls. Run it under -race.
func TestServeCloseChurn(t *testing.T) {
	s, err := server.New(server.Config{Sessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	for i := 0; i < 300; i++ {
		ns := New(s, Options{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		served := make(chan error, 1)
		go func() { served <- ns.Serve(ln) }()
		var dialers sync.WaitGroup
		for d := 0; d < 2; d++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				for k := 0; k < 4; k++ {
					if c, err := net.Dial("tcp", addr); err == nil {
						c.Close()
					}
				}
			}()
		}
		if i%2 == 0 {
			runtime.Gosched() // let some iterations reach Accept first
		}
		ns.Close()
		dialers.Wait()
		select {
		case err := <-served:
			if err != ErrServerClosed {
				t.Fatalf("iteration %d: Serve returned %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: Serve still accepting after Close", i)
		}
		if _, err := server.Audit(fmt.Sprintf("iteration %d: ", i), Books(), ns.Wire.Snapshot().Pairs()); err != nil {
			t.Fatal(err)
		}
	}
}
