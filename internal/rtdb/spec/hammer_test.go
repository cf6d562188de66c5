package spec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/netserve"
)

// TestSubHammer throws 32 subscribers and 4 writers at one loopback listener
// under the race detector, drains the listener mid-flight (taking every
// connection down with subscriptions attached and pushes in the queues),
// restores it, and lets the client package's automatic resume carry every
// surviving subscription across the seam. Eight subscriptions are cancelled
// under fire just before the drain so teardown and resume interleave.
//
// What must hold at the end: every consumer saw strictly increasing cursors
// across the drain (no duplicate, no regression), every surviving
// subscription resumed, and the server's push conservation law closed —
// every scheduled tick pushed, dropped, or expired, nothing lost in the
// teardown of either the cancelled or the drained attachments.
func TestSubHammer(t *testing.T) {
	const (
		writers     = 4
		subscribers = 32
		cancelEarly = 8 // cancelled mid-flight, before the drain
		opsPerPhase = 150
	)
	tg := newTCP(t, setup{sessions: writers + subscribers + 4, noWAL: true})

	copt := client.Options{
		RetryAttempts: 200, RetryBackoff: 2 * time.Millisecond,
		RetryBackoffMax: 50 * time.Millisecond, DialTimeout: 2 * time.Second,
	}

	// Subscribers: one client and one standing query each, with a consumer
	// goroutine asserting cursor monotonicity until its channel closes.
	subClients := make([]*client.Client, subscribers)
	subs := make([]*client.Subscription, subscribers)
	violations := make(chan string, subscribers)
	var received atomic.Uint64
	var consumers sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		copt.Name = fmt.Sprintf("sub-%d", i)
		c, err := client.Dial(tg.addr, copt)
		must(t, err)
		subClients[i] = c
		s, err := c.Subscribe(client.SubSpec{
			Query: "status_q", Period: 1,
			Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1,
			Depth: 8, Buffer: 8,
		})
		must(t, err)
		subs[i] = s
		consumers.Add(1)
		go func(id int, s *client.Subscription) {
			defer consumers.Done()
			var last uint64
			for p := range s.Pushes() {
				if p.Cursor <= last {
					select {
					case violations <- fmt.Sprintf("sub %d: cursor %d after %d", id, p.Cursor, last):
					default:
					}
				}
				last = p.Cursor
				received.Add(1)
			}
		}(i, s)
	}
	defer func() {
		for _, c := range subClients {
			_ = c.Close()
		}
	}()

	// Writers: two phases of sample injection with the drain between them.
	// Errors during the down-window are expected and retried by the client;
	// a writer only reports one if its whole budget of attempts runs out.
	gate := make(chan struct{})
	var phase1, phase2 sync.WaitGroup
	werrs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		phase1.Add(1)
		phase2.Add(1)
		go func(w int) {
			defer phase2.Done()
			o := copt
			o.Name = fmt.Sprintf("writer-%d", w)
			c, err := client.Dial(tg.addr, o)
			if err != nil {
				phase1.Done()
				werrs <- err
				return
			}
			defer c.Close()
			pump := func(n int) bool {
				for i := 0; i < n; i++ {
					for attempt := 0; ; attempt++ {
						if err := c.InjectSample("temp", fmt.Sprint(20+i%20)); err == nil {
							break
						} else if attempt > 500 {
							werrs <- fmt.Errorf("writer %d gave up: %w", w, err)
							return false
						}
						time.Sleep(2 * time.Millisecond)
					}
				}
				return true
			}
			ok := pump(opsPerPhase)
			phase1.Done()
			if !ok {
				return
			}
			<-gate
			pump(opsPerPhase)
			_ = c.Flush()
		}(w)
	}
	phase1.Wait()

	// Cancel a quarter of the field under fire, then pull the plug.
	for i := 0; i < cancelEarly; i++ {
		must(t, subs[i].Close())
	}
	must(t, tg.ns.Close())
	tg.serve(t, tg.srv, tcpListener(t, tg.addr), netserve.Options{})

	await(t, "every surviving subscription resumed on the restored listener", func() bool {
		var resumed uint64
		for _, c := range subClients[cancelEarly:] {
			resumed += c.Stats.Resubscribes.Load()
		}
		return resumed >= subscribers-cancelEarly
	})
	close(gate)
	phase2.Wait()
	close(werrs)
	for err := range werrs {
		t.Error(err)
	}

	// Quiesce: let the pumps flush what the flushed samples scheduled, then
	// tear everything down in serving order.
	time.Sleep(300 * time.Millisecond)
	for _, s := range subs[cancelEarly:] {
		must(t, s.Close())
	}
	for _, c := range subClients {
		must(t, c.Close())
	}
	consumers.Wait()
	close(violations)
	for v := range violations {
		t.Error(v)
	}
	tg.finish(t)
	if received.Load() == 0 || tg.srv.Metrics.Pushed.Load() == 0 {
		t.Fatal("hammer delivered nothing")
	}
}
