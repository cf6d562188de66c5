// Command rtdbload is a closed-loop, multi-connection load generator for a
// running rtdbd server: each connection dials the rtwire port, drives a
// deterministic mix of timed samples, firm- and soft-deadline queries, and
// no-deadline reads, waits for every response before the next operation
// (closed loop — offered load tracks service rate), and at the end prints
// the client-side latency/outcome summary plus the server's own metrics
// table fetched over the wire, with its books balanced remotely.
//
// Two-terminal example:
//
//	go run ./cmd/rtdbd -listen 127.0.0.1:7677 -sessions 32
//	go run ./cmd/rtdbload -addr 127.0.0.1:7677 -conns 8 -ops 500
//
// The mixed load always runs through client-side placement: every connection
// holds one client per shard listener, routes each sample with rtwire.ShardOf
// (the Welcome-announced deployment width), and the report breaks throughput
// and the wal_seq durability watermark out per shard. -shard-addrs lists a
// rtdbd -shards deployment's listeners; a lone -addr (itself possibly a
// failover list) is the one-shard case of the same path.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
	"rtc/internal/stats"
	"rtc/internal/timeseq"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7677", "rtdbd rtwire address, or a comma-separated failover list (primary first)")
		conns   = flag.Int("conns", 8, "concurrent connections")
		ops     = flag.Int("ops", 200, "operations per connection")
		deadln  = flag.Uint64("deadline", 40, "relative firm deadline (client chronons)")
		chronon = flag.Duration("chronon", time.Millisecond, "wall-clock length of one client chronon")

		soak       = flag.Int("soak", 0, "age the server by this many injected samples and assert flat serving latency (0: run the mixed load)")
		soakFactor = flag.Float64("soak-factor", 8, "soak mode: max allowed late-run/early-run p99 ratio")

		fanout  = flag.Int("fanout", 0, "standing-query fan-out mode: this many push subscribers watching status_q (0: run the mixed load)")
		writers = flag.Int("writers", 4, "fanout mode: writer connections driving the clock")
		period  = flag.Uint64("period", 2, "fanout mode: subscription period (chronons)")

		shardAddrs = flag.String("shard-addrs", "", "comma-separated per-shard rtwire addresses (shard 0 first): route the mixed load by client-side placement and report per-shard throughput")
	)
	flag.Parse()
	var err error
	switch {
	case *shardAddrs != "":
		err = run(strings.Split(*shardAddrs, ","), *conns, *ops, *deadln, *chronon)
	case *soak > 0:
		err = runSoak(*addr, *soak, *soakFactor, *chronon)
	case *fanout > 0:
		err = runFanout(*addr, *fanout, *writers, *ops, *deadln, *period, *chronon)
	default:
		err = run([]string{*addr}, *conns, *ops, *deadln, *chronon)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtdbload:", err)
		os.Exit(1)
	}
}

// tally is the run's closed-loop outcome count, over all connections.
type tally struct {
	queries, hits, misses, noDeadline, expired, backpressure atomic.Uint64

	// Failover accounting across all connections.
	readOnly, opFailed                 atomic.Uint64
	failedOver, degraded, stale, hbCut atomic.Uint64
}

// shardTally is what the run knows about one shard: the samples it saw
// acknowledged there and the highest replication-confirmed sequence any
// connection heard from it before failing over (max client SeqWatermark).
type shardTally struct {
	ackedWrites, seqWatermark atomic.Uint64
}

// sensorName mirrors rtdbd's demo bank: 16 sensors spread over the shards by
// the placement hash.
func sensorName(i int) string { return fmt.Sprintf("sensor-%02d", i%16) }

// run drives the mixed load. addrs[i] is shard i's listener, or a
// comma-separated failover list for it (primary first).
func run(addrs []string, conns, ops int, deadln uint64, chronon time.Duration) error {
	shards := len(addrs)
	var (
		wg        sync.WaitGroup
		t         tally
		perShard  = make([]shardTally, shards)
		latMu     sync.Mutex
		latencies []float64 // microseconds, query round trips
		errs      = make(chan error, conns)
	)
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cs := make([]*client.Client, shards)
			for s, addr := range addrs {
				c, err := client.Dial(addr, client.Options{
					Name:              fmt.Sprintf("load-%d-%d", id, s),
					ChrononDuration:   chronon,
					RetryAttempts:     -1, // failover: exhaust the address list
					HeartbeatInterval: 100 * time.Millisecond,
				})
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				if got := c.Shards(); got != uint64(shards) {
					errs <- fmt.Errorf("listener %s announces %d shards, %d listed", addr, got, shards)
					return
				}
				if got := c.Shard(); got != uint64(s) {
					errs <- fmt.Errorf("listener %s is shard %d, listed at position %d (order -shard-addrs shard 0 first)", addr, got, s)
					return
				}
				cs[s] = c
				defer func(s int) {
					t.failedOver.Add(c.Stats.FailedOver.Load())
					t.degraded.Add(c.Stats.Degraded.Load())
					t.stale.Add(c.Stats.StaleRejected.Load())
					t.hbCut.Add(c.Stats.HeartbeatTimeouts.Load())
					t.readOnly.Add(c.Stats.ReadOnlyRejects.Load())
					for {
						w, old := c.Stats.SeqWatermark.Load(), perShard[s].seqWatermark.Load()
						if w <= old || perShard[s].seqWatermark.CompareAndSwap(old, w) {
							break
						}
					}
				}(s)
			}
			inject := func(object, value string) {
				s := cs[0].ShardFor(object)
				if cs[s].InjectSample(object, value) == nil {
					perShard[s].ackedWrites.Add(1)
				}
			}
			var local []float64
			for op := 0; op < ops; op++ {
				switch op % 5 {
				case 0:
					inject("temp", strconv.Itoa(18+(id*7+op)%12))
				case 1:
					inject(sensorName(id+op), strconv.Itoa(op%100))
				case 2:
					inject("pressure", strconv.Itoa(99+(id+op)%4))
				case 3, 4:
					q := client.Query{
						Query: "status_q", Candidate: "ok",
						Kind: deadline.Firm, Deadline: timeseq.Time(deadln), MinUseful: 1,
					}
					switch op % 10 {
					case 4:
						q = client.Query{
							Query: "temp_q",
							Kind:  deadline.Soft, Deadline: timeseq.Time(deadln),
							MinUseful: 2,
							Decay:     rtwire.Decay{ID: rtwire.DecayHyperbolic, Max: 10},
						}
					case 9:
						q = client.Query{Query: "temp_q"}
					}
					timed := q.Kind != deadline.None
					qs := time.Now()
					// Both demo queries read temp's shard.
					res, err := cs[cs[0].ShardFor("temp")].Query(q)
					t.queries.Add(1)
					switch {
					case errors.Is(err, client.ErrBackpressure):
						// The server booked it rejected; only a query that
						// carried a deadline missed one.
						t.backpressure.Add(1)
						if timed {
							t.misses.Add(1)
						}
					case errors.Is(err, client.ErrReadOnly):
						// Mid-failover: a firm query landed on a standby.
						t.misses.Add(1)
					case err != nil:
						// An outage longer than the retry budget: the op
						// failed; the run keeps going and reports it.
						t.opFailed.Add(1)
						if timed {
							t.misses.Add(1)
						}
					case !timed:
						t.noDeadline.Add(1)
					case res.ExpiredOnArrival:
						t.expired.Add(1)
						t.misses.Add(1)
					case res.Missed:
						t.misses.Add(1)
					default:
						t.hits.Add(1)
					}
					local = append(local, float64(time.Since(qs).Microseconds()))
				}
			}
			for _, c := range cs {
				if err := c.Flush(); err != nil {
					errs <- err
					return
				}
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			latMu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return err
	default:
	}

	totalOps := uint64(conns * ops)
	fmt.Printf("%d conns × %d ops over %d shards in %v (%.0f ops/s closed-loop)\n",
		conns, ops, shards, elapsed.Round(time.Millisecond),
		float64(totalOps)/elapsed.Seconds())
	fmt.Printf("queries: %d  hit %d  miss %d  no-deadline %d (expired-on-arrival %d, backpressure %d)\n",
		t.queries.Load(), t.hits.Load(), t.misses.Load(), t.noDeadline.Load(), t.expired.Load(), t.backpressure.Load())
	if len(latencies) > 0 {
		s := stats.Summarize(latencies)
		fmt.Printf("query rtt µs: mean %.0f  median %.0f  min %.0f  max %.0f\n",
			s.Mean, s.Median, s.Lo, s.Hi)
	}

	// Fetch every shard's own books over the wire, render the same metrics
	// table rtdbd prints, and balance each shard's books (audit), then with
	// more than one shard their sums. The durability bar, per shard: the node
	// it ended on carries every write the lost primary acknowledged up to the
	// last replication sequence any connection heard from it.
	var acked uint64
	var replies [][]rtwire.MetricPair
	var open []error // the open books
	for s, addr := range addrs {
		c, err := client.Dial(addr, client.Options{Name: "load-metrics"})
		if err != nil {
			return err
		}
		m, err := c.Metrics()
		c.Close()
		if err != nil {
			return err
		}
		mm := m.Map()
		tab := stats.NewTable("metric", "value")
		for _, p := range m.Pairs {
			tab.Row(p.Name, p.Value)
		}
		fmt.Println()
		fmt.Print(tab.String())
		a := perShard[s].ackedWrites.Load()
		fmt.Printf("shard %d: %6d acked samples (%7.0f/s)  applied %6d  wal_seq %d\n",
			s, a, float64(a)/elapsed.Seconds(), mm["samples_applied"], mm["wal_seq"])
		acked += a
		open, replies = append(open, audit(fmt.Sprintf("shard %d: ", s), m.Pairs)), append(replies, m.Pairs)
		if w := perShard[s].seqWatermark.Load(); w > 0 {
			seq, ok := mm["wal_seq"]
			if !ok {
				return fmt.Errorf("failed over past seq %d but the final node reports no wal_seq", w)
			}
			if seq < w {
				return fmt.Errorf("LOST ACKED WRITES: final node at wal_seq %d < pre-failover watermark %d (%d missing)",
					seq, w, w-seq)
			}
			fmt.Printf("failover durability: final wal_seq %d >= pre-failover watermark %d — zero lost acked writes ✓\n", seq, w)
		}
	}
	if shards > 1 {
		open = append(open, audit("cross-shard ", replies...))
	}

	// Failover accounting: how often connections changed nodes and how many
	// queries were served degraded by a standby.
	fmt.Printf("failover: %d acked writes, %d failed-over, %d degraded, %d read-only rejects, %d failed ops, %d stale-fenced, %d heartbeat cuts\n",
		acked, t.failedOver.Load(), t.degraded.Load(), t.readOnly.Load(), t.opFailed.Load(), t.stale.Load(), t.hbCut.Load())
	return errors.Join(open...)
}

// audit prints each book of the server's that closes on a running node (all
// but the quiescent) balanced over the rows of one or more metrics replies,
// after label, and returns the open ones. The node's clients must be idle,
// as this tool's are once its load is done.
func audit(label string, rows ...[]rtwire.MetricPair) error {
	books := slices.DeleteFunc(server.Books(), func(b server.Book) bool { return b.Quiescent })
	report, err := server.Audit(label, books, rows...)
	fmt.Println(report)
	return err
}
