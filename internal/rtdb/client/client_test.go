package client_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rtc/internal/faultnet"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

func statusDerive(src map[string]rtdb.Value) rtdb.Value {
	t, _ := strconv.Atoi(src["temp"])
	l, _ := strconv.Atoi(src["limit"])
	if t > l {
		return "high"
	}
	return "ok"
}

func testServerConfig() server.Config {
	return server.Config{
		Spec: rtdb.Spec{
			Invariants: map[string]rtdb.Value{"limit": "22"},
			Derived: []*rtdb.DerivedObject{{
				Name: "status", Sources: []string{"temp", "limit"}, Derive: statusDerive,
			}},
			Images: []*rtdb.ImageObject{{Name: "temp", Period: 5}},
		},
		Catalog: rtdb.Catalog{
			"status_q": func(v *rtdb.View) []rtdb.Value {
				if s, ok := v.DeriveNow("status"); ok {
					return []rtdb.Value{s}
				}
				return nil
			},
		},
		Registry: rtdb.DeriveRegistry{"status": statusDerive},
		Sessions: 4,
	}
}

// startServer stands up a started server behind a loopback listener — or,
// given a fabric, behind its listener at addr with the short beacon and write
// deadlines the teardown tests blackhole, reset and stall — and hands back
// the server, so a test can wait on what it has applied, and the address.
func startServer(t *testing.T, fab *faultnet.Fabric, addr string) (*server.Server, string) {
	t.Helper()
	cfg := testServerConfig()
	cfg.QueueDepth = 256 // a 64-sample burst arriving at wire speed fits
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	opt, ln := netserve.Options{}, net.Listener(nil)
	if fab == nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	} else {
		opt = netserve.Options{HeartbeatInterval: 50 * time.Millisecond, WriteTimeout: 100 * time.Millisecond}
		ln, err = fab.Listen(addr)
	}
	if err != nil {
		s.Stop()
		t.Fatal(err)
	}
	ns := netserve.New(s, opt)
	go func() { _ = ns.Serve(ln) }()
	t.Cleanup(func() {
		_ = ns.Close()
		s.Stop()
	})
	return s, ln.Addr().String()
}

// TestDialFailureIsFast: with retries disabled a dial against a dead port
// fails promptly instead of hanging through a backoff ladder.
func TestDialFailureIsFast(t *testing.T) {
	start := time.Now()
	_, err := client.Dial("127.0.0.1:1", client.Options{
		RetryAttempts: -1, DialTimeout: 500 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("dial of a dead port succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("dial failure took %v", d)
	}
}

// TestClientEndToEnd drives the whole public client surface against a
// live loopback server.
func TestClientEndToEnd(t *testing.T) {
	_, addr := startServer(t, nil, "")
	c, err := client.Dial(addr, client.Options{Name: "e2e"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.InjectSample("temp", "25"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := c.Query(client.Query{Query: "status_q", Candidate: "high"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Match || !r.Evaluated {
		t.Fatalf("derived query: %+v", r)
	}

	// Temporal read: learn the horizon with a throwaway read, then read a
	// chronon the snapshot definitely covers.
	_, _, horizon, err := c.AsOf("temp", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, _, err := c.AsOf("temp", horizon/2); err != nil {
		t.Fatal(err)
	} else if ok && v == "" {
		t.Fatal("as-of returned ok with empty value")
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Map()["queries_in"] != 1 {
		t.Fatalf("queries_in = %d, want 1", m.Map()["queries_in"])
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The client is closed: further calls fail with ErrClosed.
	if _, err := c.Query(client.Query{Query: "status_q"}); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("query after close: %v", err)
	}
}

// TestLateReplyNeverReachesNextCall: a call's waiter is reused once the call
// is done with it, so a reply that arrives after its call gave up must find
// nobody waiting under its id — never the next call, on the reused waiter.
// First, the peer holds each "held" query's Result until the next query
// arrives, well after the held call's CallTimeout, then writes the stale
// Result and the fresh one back to back: the fresh call must get its own
// answer. The held call puts its waiter back when it times out, so from the
// first round on a waiter is certainly reused. Then the peer answers each
// "racing" query within half a millisecond of its timeout, so the reply races
// the timer, while four goroutines call at once: every call must get its own
// answer or an ErrTimeout that waited the whole timeout — never another
// call's answer, nor the tick of a timer that fired for an earlier call.
func TestLateReplyNeverReachesNextCall(t *testing.T) {
	const timeout = 30 * time.Millisecond
	addr := lateNode(t, timeout)
	c, err := client.Dial(addr, client.Options{HeartbeatInterval: -1, CallTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// ask returns the call's error, or one naming the answer of another call.
	ask := func(candidate string) error {
		r, err := c.Query(client.Query{Query: "q", Candidate: candidate})
		if err == nil && (len(r.Answers) != 1 || r.Answers[0] != candidate) {
			err = fmt.Errorf("got the answers %q", r.Answers)
		}
		return err
	}
	for round := 0; round < 10; round++ {
		k := strconv.Itoa(round)
		if err := ask("held-" + k); !errors.Is(err, client.ErrTimeout) {
			t.Fatalf("held call %d: err = %v, want ErrTimeout", round, err)
		}
		if c.IdleWaiters() == 0 {
			t.Fatalf("round %d: the timed-out call's waiter is not back for the next call", round)
		}
		if err := ask("fresh-" + k); err != nil {
			t.Fatalf("fresh call %d: %v", round, err)
		}
	}
	// Four callers at once, so waiters also pass between goroutines.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				k := strconv.Itoa(g) + "-" + strconv.Itoa(round)
				start := time.Now()
				if err := ask("racing-" + k); err != nil && (!errors.Is(err, client.ErrTimeout) || time.Since(start) < timeout) {
					t.Errorf("racing call %s: %v after %v", k, err, time.Since(start))
					return
				}
				if err := ask("fresh-" + k); err != nil {
					t.Errorf("fresh call after racing call %s: %v", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// lateNode is a one-connection peer that answers each Query with a Result
// whose one answer is the query's Candidate. A "held-" query's Result waits
// for the next query and is written just ahead of that one's; the i-th
// "racing-" query's Result is written timeout + (i mod 21 − 10)·50µs after it
// arrived; every other query is answered at once.
func lateNode(t *testing.T, timeout time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var late sync.WaitGroup // racing replies not yet written
	t.Cleanup(func() {
		_ = ln.Close()
		late.Wait()
	})
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
		var mu sync.Mutex // racing replies write from their own goroutines
		write := func(b []byte) {
			mu.Lock()
			_, _ = conn.Write(b)
			mu.Unlock()
		}
		write(rtwire.Welcome{Epoch: 1, Role: rtwire.RolePrimary}.Encode())
		var held []byte
		for racing := 0; ; {
			f, err := rtwire.ReadFrame(br)
			if err != nil {
				return
			}
			q, err := rtwire.DecodeQuery(f)
			if err != nil {
				continue
			}
			res := rtwire.Result{ID: q.ID, Evaluated: true, Answers: []string{q.Candidate}}.Encode()
			switch {
			case strings.HasPrefix(q.Candidate, "held-"):
				held = res
			case strings.HasPrefix(q.Candidate, "racing-"):
				late.Add(1)
				time.AfterFunc(timeout+time.Duration(racing%21-10)*50*time.Microsecond, func() {
					defer late.Done()
					write(res)
				})
				racing++
			default:
				write(append(held, res...))
				held = nil
			}
		}
	}()
	return ln.Addr().String()
}
