package client_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"rtc/internal/faultnet"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
)

// waitGoroutines polls until the goroutine count sinks back to at most
// base+slack or the deadline passes, returning the final count. Counting
// (instead of a hard equality) keeps the check robust against runtime
// housekeeping goroutines while still catching real leaks, which hold the
// count elevated for minutes, not milliseconds.
func waitGoroutines(t *testing.T, base int, slack int) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+slack || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// noFlusher fails the test if any client's flusher goroutine is still alive.
// Close waits for the flusher, so this holds the moment Close has returned —
// no slack, unlike the goroutine count, which one stray flusher would slip
// under.
func noFlusher(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	if bytes.Contains(buf, []byte("client.(*Client).flushLoop")) {
		t.Errorf("a flusher goroutine outlived Close:\n%s", buf)
	}
}

// TestCloseLeaksNoGoroutines: a client with a live connection, a beacon
// ticker, and an active subscription must shed every goroutine and timer on
// Close — a heartbeat goroutine shaped `for range ticker.C` once kept
// itself (and its ticker) alive for up to a full interval after Close,
// which this test pins at a long interval to make such a leak loud.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	_, addr := startServer(t, nil, "")
	base := runtime.NumGoroutine()

	c, err := client.Dial(addr, client.Options{
		Name: "leak", HeartbeatInterval: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InjectSample("temp", "20"); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(client.SubSpec{Query: "status_q", Period: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	noFlusher(t)

	// Close ended the subscription too: the channel closes and Err reports
	// the shutdown.
	select {
	case _, ok := <-sub.Pushes():
		if ok {
			// Pushes delivered before the close are fine; drain to the close.
			for range sub.Pushes() {
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription channel never closed after client Close")
	}
	if !errors.Is(sub.Err(), client.ErrClosed) {
		t.Fatalf("sub.Err() = %v, want ErrClosed", sub.Err())
	}

	if n := waitGoroutines(t, base, 2); n > base+2 {
		t.Fatalf("goroutines after Close: %d, baseline %d — leak", n, base)
	}
}

// TestCloseUnblocksRetryBackoff: a Query stuck in its retry-backoff pause
// (the server is gone, the ladder is long) must abort the moment Close is
// called instead of sleeping the pause out — the old uninterruptible
// time.Sleep held both the goroutine and the caller hostage.
func TestCloseUnblocksRetryBackoff(t *testing.T) {
	s, err := server.New(server.Config{Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	ns := netserve.New(s, netserve.Options{})
	addr, err := ns.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial(addr.String(), client.Options{
		Name:          "backoff-leak",
		RetryAttempts: 100,
		RetryBackoff:  30 * time.Second, // one pause outlasts the whole test
		DialTimeout:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the server: the connection dies, redials are refused, and the
	// next Query enters the retry ladder — each rung a 30s pause.
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(client.Query{Query: "anything"})
		done <- err
	}()
	// Let the query fail its first attempt and enter the backoff pause.
	time.Sleep(300 * time.Millisecond)

	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	noFlusher(t)
	select {
	case err := <-done:
		if !errors.Is(err, client.ErrClosed) && !errors.Is(err, client.ErrConnDown) {
			t.Fatalf("interrupted query returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Query still blocked 5s after Close; backoff pause not interruptible")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close-to-unblock took %v", d)
	}
}

// fabricLeakOptions are the client options every fabric teardown test
// uses: live beacons and the read's silence bound (the only detector for a
// blackholed flow), short write deadlines, and a fast retry ladder — all
// the machinery whose goroutines must die with Close.
func fabricLeakOptions(fab *faultnet.Fabric, label string) client.Options {
	return client.Options{
		Name: label, Dialer: fab.Dialer(label),
		DialTimeout: 150 * time.Millisecond, CallTimeout: time.Second,
		WriteTimeout:  100 * time.Millisecond,
		RetryAttempts: 4, RetryBackoff: time.Millisecond,
		RetryBackoffMax:   5 * time.Millisecond,
		HeartbeatInterval: 30 * time.Millisecond, Seed: 1,
	}
}

// TestCloseAfterPartitionCutLeaksNoGoroutines: a client whose connection
// is first blackholed (the half-open socket: writes "succeed", nothing
// arrives, so the silence bound trips into a redial loop whose dials hang
// in the partition) and then hard-reset must still shed every goroutine the
// moment Close is called — the beacon ticker, the redial ladder, the
// reader, and the subscription drainer all included.
func TestCloseAfterPartitionCutLeaksNoGoroutines(t *testing.T) {
	fab := faultnet.NewFabric(31)
	defer fab.Close()
	startServer(t, fab, "leak:1")
	base := runtime.NumGoroutine()

	c, err := client.Dial("leak:1", fabricLeakOptions(fab, "part-cut"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InjectSample("temp", "20"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(client.SubSpec{Query: "status_q", Period: 3, Buffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub.Pushes() {
		}
	}()

	// Blackhole both directions, give the silence bound time to cut and start
	// redialing into the partition, then RST what is left of the old
	// connection.
	fab.PartitionNow(
		faultnet.Direction{From: "part-cut", To: "leak:1"},
		faultnet.Direction{From: "leak:1", To: "part-cut"},
	)
	time.Sleep(120 * time.Millisecond) // ≥ 3 heartbeat intervals
	fab.CutAll("part-cut", "leak:1")

	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Close took %v with a partitioned redial in flight", d)
	}
	noFlusher(t)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("subscription channel never closed after Close under partition")
	}
	fab.Heal()
	if n := waitGoroutines(t, base, 2); n > base+2 {
		t.Fatalf("goroutines after partition-cut Close: %d, baseline %d — leak", n, base)
	}
}

// TestCloseDuringSlowLorisLeaksNoGoroutines: a peer that accepts the
// connection but absorbs no bytes — every write stalls, on every
// connection the client makes — must not pin client goroutines. Write
// deadlines bound each stalled attempt, the retry ladder stays
// interruptible, and Close reaps the rest even while a write is blocked
// inside the stall.
func TestCloseDuringSlowLorisLeaksNoGoroutines(t *testing.T) {
	fab := faultnet.NewFabric(32)
	defer fab.Close()
	startServer(t, fab, "loris:1")
	base := runtime.NumGoroutine()

	c, err := client.Dial("loris:1", fabricLeakOptions(fab, "slow"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InjectSample("temp", "20"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// The loris: keep re-stalling so every redial lands on a connection
	// that goes silent too — StallAll only reaches conns alive at call
	// time, and the client keeps making new ones.
	stop := make(chan struct{})
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		for {
			select {
			case <-stop:
				return
			default:
				fab.StallAll("slow", "loris:1")
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	// Pump samples at the stalled socket: the flusher's write blocks until
	// its write deadline, errors and drops the connection, and the next
	// send walks the retry ladder into the next stall.
	for i := 0; i < 3; i++ {
		_ = c.InjectSample("temp", "21")
	}
	flushDone := make(chan struct{})
	go func() {
		defer close(flushDone)
		_, _ = c.Query(client.Query{Query: "status_q"})
	}()
	time.Sleep(50 * time.Millisecond) // let the query wedge in a stalled write

	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Close took %v with writes wedged in the stall", d)
	}
	noFlusher(t)
	select {
	case <-flushDone:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight query still blocked 5s after Close under slow-loris")
	}
	close(stop)
	<-stalled
	fab.Heal()
	if n := waitGoroutines(t, base, 2); n > base+2 {
		t.Fatalf("goroutines after slow-loris Close: %d, baseline %d — leak", n, base)
	}
}

// TestClientSubscribeEndToEnd: the full client subscription surface over a
// real connection — admitted subscribe, cursored pushes as samples advance
// the server clock, clean Close.
func TestClientSubscribeEndToEnd(t *testing.T) {
	_, addr := startServer(t, nil, "")
	c, err := client.Dial(addr, client.Options{Name: "sub-e2e"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sub, err := c.Subscribe(client.SubSpec{Query: "status_q", Period: 2, Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Refusals surface as errors, not dead subscriptions.
	if _, err := c.Subscribe(client.SubSpec{Query: "no_such_q", Period: 2}); !errors.Is(err, client.ErrSubRefused) {
		t.Fatalf("unknown query: err = %v, want ErrSubRefused", err)
	}

	for i := 0; i < 8; i++ {
		if err := c.InjectSample("temp", "25"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	var last uint64
	var got int
collect:
	for {
		select {
		case p, ok := <-sub.Pushes():
			if !ok {
				t.Fatal("push channel closed mid-test")
			}
			if p.Cursor <= last {
				t.Fatalf("cursor not increasing: %d after %d", p.Cursor, last)
			}
			if len(p.Answers) != 1 || p.Answers[0] != "high" {
				t.Fatalf("push answers: %v", p.Answers)
			}
			last = p.Cursor
			got++
			if got >= 3 {
				break collect
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d pushes after 5s", got)
		}
	}
	if sub.Cursor() < last || sub.Received() < uint64(got) {
		t.Fatalf("bookkeeping: cursor %d received %d, saw %d/%d", sub.Cursor(), sub.Received(), last, got)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	for range sub.Pushes() {
	} // drains to close
	if sub.Err() != nil {
		t.Fatalf("clean close left err %v", sub.Err())
	}
}
