package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/rtdb/client"
	"rtc/internal/stats"
	"rtc/internal/timeseq"
)

// Fan-out mode: W writer connections drive the clock with samples while S
// standing-query subscriptions watch the same catalog query — the
// one-write-many-watchers workload the subscription subsystem exists for.
// Every subscriber audits its own delivery stream with the cursor
// arithmetic (received == cursor − dropped − expired − locally-shed), every
// push's cursor must be strictly increasing even across a resume, and at
// the end the server's own books are fetched over the wire and the push
// conservation law push_scheduled == pushed + push_dropped + push_expired
// is checked remotely. With -addr a failover ring, killing the primary
// mid-run exercises resume-after-promotion: the run then reports
// resubscribes and still requires monotone cursors — no acknowledged push
// replayed, no skip uncounted.

// subTally aggregates one subscription's consumer-side view.
type subTally struct {
	received uint64
	hits     uint64
	lateness []float64 // served − issue, chronons
	lastCur  uint64
	violated string
}

func runFanout(addr string, subscribers, writers, ops int, deadln, period uint64, chronon time.Duration) error {
	if subscribers < 1 || writers < 1 {
		return fmt.Errorf("fanout needs at least 1 subscriber and 1 writer (have %d × %d)", subscribers, writers)
	}
	spec := client.SubSpec{
		Query: "status_q", Period: timeseq.Time(period),
		Kind: deadline.Soft, Deadline: timeseq.Time(deadln), MinUseful: 1,
		Depth: 32, Buffer: 64,
	}

	// Subscriptions share client connections: the subsystem multiplexes any
	// number of standing queries per connection, so the fleet needs far
	// fewer sockets than subscribers.
	nconn := subscribers
	if nconn > 16 {
		nconn = 16
	}
	subClients := make([]*client.Client, nconn)
	for i := range subClients {
		c, err := client.Dial(addr, client.Options{
			Name:              fmt.Sprintf("fan-sub-%d", i),
			ChrononDuration:   chronon,
			RetryAttempts:     -1, // failover: exhaust the address list
			HeartbeatInterval: 100 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		defer c.Close()
		subClients[i] = c
	}

	subs := make([]*client.Subscription, subscribers)
	tallies := make([]*subTally, subscribers)
	var consumers sync.WaitGroup
	start := time.Now()
	for i := 0; i < subscribers; i++ {
		s, err := subClients[i%nconn].Subscribe(spec)
		if err != nil {
			return fmt.Errorf("subscribe %d: %w", i, err)
		}
		subs[i] = s
		tl := &subTally{}
		tallies[i] = tl
		consumers.Add(1)
		go func(s *client.Subscription, tl *subTally) {
			defer consumers.Done()
			for p := range s.Pushes() {
				if p.Cursor <= tl.lastCur && tl.violated == "" {
					tl.violated = fmt.Sprintf("cursor %d after %d", p.Cursor, tl.lastCur)
				}
				tl.lastCur = p.Cursor
				tl.received++
				if !p.Missed {
					tl.hits++
				}
				tl.lateness = append(tl.lateness, float64(p.Served-p.Issue))
			}
		}(s, tl)
	}

	// Writers: closed-loop sample injection; every acked write advances the
	// server clock one chronon and so matures standing-query ticks.
	var (
		wg    sync.WaitGroup
		acked atomic.Uint64
		werrs = make(chan error, writers)
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{
				Name:              fmt.Sprintf("fan-writer-%d", w),
				ChrononDuration:   chronon,
				RetryAttempts:     -1,
				HeartbeatInterval: 100 * time.Millisecond,
			})
			if err != nil {
				werrs <- err
				return
			}
			defer c.Close()
			// Each op is retried through outages: during a failover window
			// writes bounce off the standby read-only until promotion, and
			// the run's job is to still be writing when the successor comes
			// up — not to burn its budget on fast failures.
			for op := 0; op < ops; op++ {
				for attempt := 0; ; attempt++ {
					if c.InjectSample("temp", fmt.Sprint(18+(w*7+op)%12)) == nil {
						acked.Add(1)
						break
					}
					if attempt > 2000 {
						werrs <- fmt.Errorf("writer %d: outage outlasted the retry budget", w)
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			var ferr error
			for attempt := 0; attempt < 100; attempt++ {
				if ferr = c.Flush(); ferr == nil {
					break
				}
				time.Sleep(50 * time.Millisecond)
			}
			if ferr != nil {
				werrs <- ferr
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-werrs:
		return err
	default:
	}

	// Quiesce: the flushed samples have scheduled every tick they imply;
	// give the pumps a moment to deliver, then cancel and join.
	time.Sleep(500 * time.Millisecond)
	elapsed := time.Since(start)

	var resubs uint64
	for _, c := range subClients {
		resubs += c.Stats.Resubscribes.Load()
	}
	var auditErr error
	audited := 0
	for i, s := range subs {
		// Read the audit coordinates before Close tears the stream down.
		cursor, receivedC := s.Cursor(), s.Received()
		dropped, expired := s.Tallies()
		local := s.LocalDrops()
		if err := s.Close(); err != nil {
			return err
		}
		// The exact arithmetic holds per attachment; a resumed subscription
		// restarts its tallies, so only monotonicity is checked then.
		if resubs == 0 && receivedC+dropped+expired+local != cursor && auditErr == nil {
			auditErr = fmt.Errorf("sub %d audit open: received %d + dropped %d + expired %d + local %d != cursor %d",
				i, receivedC, dropped, expired, local, cursor)
		}
		if resubs == 0 {
			audited++
		}
	}
	for _, c := range subClients {
		if err := c.Close(); err != nil {
			return err
		}
	}
	consumers.Wait()
	if auditErr != nil {
		return auditErr
	}

	var (
		received, hits uint64
		hitRates       []float64
		lateAll        []float64
	)
	for i, tl := range tallies {
		if tl.violated != "" {
			return fmt.Errorf("sub %d cursor regression: %s", i, tl.violated)
		}
		received += tl.received
		hits += tl.hits
		if tl.received > 0 {
			hitRates = append(hitRates, 100*float64(tl.hits)/float64(tl.received))
		}
		lateAll = append(lateAll, tl.lateness...)
	}
	if received == 0 {
		return fmt.Errorf("fan-out delivered nothing: %d writers × %d ops scheduled no pushes", writers, ops)
	}

	fmt.Printf("fanout: %d writers × %d subscribers (period %d, soft deadline %d) in %v\n",
		writers, subscribers, period, deadln, elapsed.Round(time.Millisecond))
	fmt.Printf("writes: %d acked (%.0f/s)  pushes: %d received, %d hit (%.1f%%), %d resubscribes\n",
		acked.Load(), float64(acked.Load())/elapsed.Seconds(),
		received, hits, 100*float64(hits)/float64(received), resubs)
	if len(hitRates) > 0 {
		fmt.Printf("per-subscription deadline-hit %%: p50 %.1f  p90 %.1f  p99 %.1f  min %.1f\n",
			stats.Percentile(hitRates, 50), stats.Percentile(hitRates, 90),
			stats.Percentile(hitRates, 99), stats.Percentile(hitRates, 0))
	}
	if len(lateAll) > 0 {
		fmt.Printf("push service time (served−issue chronons): p50 %.0f  p90 %.0f  p99 %.0f  max %.0f\n",
			stats.Percentile(lateAll, 50), stats.Percentile(lateAll, 90),
			stats.Percentile(lateAll, 99), stats.Percentile(lateAll, 100))
	}
	if resubs == 0 {
		fmt.Printf("delivery audit: %d/%d subscriptions closed exactly (received == cursor − dropped − expired − local) ✓\n",
			audited, subscribers)
	} else {
		fmt.Printf("delivery audit: %d resubscribes — per-attachment arithmetic skipped, cursor monotonicity held across every resume ✓\n", resubs)
	}

	// The server's own books, fetched over the wire: the push conservation
	// law must close no matter what the clients saw.
	c, err := client.Dial(addr, client.Options{Name: "fan-metrics", RetryAttempts: -1})
	if err != nil {
		return err
	}
	defer c.Close()
	m, err := c.Metrics()
	if err != nil {
		return err
	}
	mm := m.Map()
	scheduled := mm["push_scheduled"]
	accounted := mm["pushed"] + mm["push_dropped"] + mm["push_expired"]
	if scheduled != accounted {
		return fmt.Errorf("push conservation violated on server: %d scheduled, %d accounted (pushed %d dropped %d expired %d)",
			scheduled, accounted, mm["pushed"], mm["push_dropped"], mm["push_expired"])
	}
	fmt.Printf("conservation (server books): %d push_scheduled == %d pushed + %d dropped + %d expired ✓\n",
		scheduled, mm["pushed"], mm["push_dropped"], mm["push_expired"])
	if mm["subs_opened"] != mm["subs_closed"] {
		return fmt.Errorf("subscription books open: %d opened, %d closed", mm["subs_opened"], mm["subs_closed"])
	}
	fmt.Printf("subscriptions: %d opened == %d closed ✓\n", mm["subs_opened"], mm["subs_closed"])
	return nil
}
