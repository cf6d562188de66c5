package replica

import (
	"fmt"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultfs"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/server"
	"rtc/internal/timeseq"
)

// BenchmarkReplicaCatchup measures a cold follower catching up on an
// existing history over loopback: dial, subscribe from zero, stream every
// segment, ack — per event. The 40k size spans a full 1 MiB segment of the
// primary: per-event cost there is what says the catch-up read is linear
// in the history (it is the d-algorithm of §4.2 — it must outrun appends).
func BenchmarkReplicaCatchup(b *testing.B) {
	for _, n := range []int{512, 40_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			lp, _, addr := newTestPrimary(b, 1<<20, 1<<30)
			for _, e := range testEvents(n) {
				if err := lp.Append(e); err != nil {
					b.Fatal(err)
				}
			}
			total := lp.Seq()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := Open(Config{
					Primary: addr,
					WAL:     wal.Options{Dir: "rwal", FS: faultfs.NewMem(uint64(i))},
					Client:  client.Options{RetryBackoff: time.Millisecond, RetryBackoffMax: 20 * time.Millisecond, Seed: 1},
				}, server.Config{})
				if err != nil {
					b.Fatal(err)
				}
				r.Start()
				if !r.WaitSeq(total, 30*time.Second) {
					b.Fatalf("catch-up stuck at %d/%d", r.Seq(), total)
				}
				if err := r.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/event")
		})
	}
}

// BenchmarkFailover measures the promotion path: a synced standby loses its
// primary, fences the epoch, and logs its first write as the new primary.
// Setup (primary, stream, sync) is excluded from the timing.
func BenchmarkFailover(b *testing.B) {
	const n = 64
	events := testEvents(n)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lp, stop, addr := newTestPrimary(b, 1<<20, 1<<30)
		for _, e := range events {
			if err := lp.Append(e); err != nil {
				b.Fatal(err)
			}
		}
		r, err := Open(Config{
			Primary: addr,
			WAL:     wal.Options{Dir: "rwal", FS: faultfs.NewMem(uint64(i))},
			Client:  client.Options{RetryBackoff: time.Millisecond, RetryBackoffMax: 20 * time.Millisecond, Seed: 1},
		}, testServer())
		if err != nil {
			b.Fatal(err)
		}
		r.Start()
		if !r.WaitSeq(lp.Seq(), 30*time.Second) {
			b.Fatalf("sync stuck at %d", r.Seq())
		}
		stop() // the primary is gone
		b.StartTimer()

		if _, err := r.Promote(); err != nil {
			b.Fatal(err)
		}
		sess := r.Server().Session(0)
		if err := sess.InjectSample("temp", "post"); err != nil {
			b.Fatal(err)
		}
		if err := sess.Flush(); err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// The standby benchmarks below are black-box — client package in, frames out,
// over loopback — so they measure whatever serves the standby's listener.
// rtbench has no standby workload; these are reported, not gated.

// benchStandby is a replica caught up with a short history (horizon 1), its
// standby listener on loopback, and a client connected to it.
func benchStandby(b *testing.B) (*wal.Log, *Replica, *client.Client) {
	b.Helper()
	lp, _, addr := newTestPrimary(b, 1<<20, 1<<30)
	r := newTestReplica(b, addr)
	b.Cleanup(func() { r.Close() })
	r.Start()
	for _, e := range append(testEvents(0), wal.Sample(1, "temp", "30")) {
		if err := lp.Append(e); err != nil {
			b.Fatal(err)
		}
	}
	if !r.WaitSeq(lp.Seq(), 10*time.Second) {
		b.Fatalf("replica stuck at %d", r.Seq())
	}
	la := listenStandby(b, r)
	c, err := client.Dial(la, client.Options{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return lp, r, c
}

// BenchmarkStandbyQuery: one soft query answered degraded by the follower
// server, round trip.
func BenchmarkStandbyQuery(b *testing.B) {
	_, _, c := benchStandby(b)
	q := client.Query{Query: "status_q", Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := c.Query(q); err != nil || !res.Evaluated {
			b.Fatalf("standby query: %+v, %v", res, err)
		}
	}
}

// BenchmarkStandbyAsOf: one temporal point read from the replicated history,
// round trip.
func BenchmarkStandbyAsOf(b *testing.B) {
	_, _, c := benchStandby(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _, err := c.AsOf("temp", 1); err != nil || !ok {
			b.Fatalf("standby as-of: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkStandbyFanout: 8 standing queries of period 1 on one connection;
// every sample the primary appends moves the standby's horizon one chronon
// and makes one tick of each due. One op is one delivered push, so ns/op and
// allocs/op carry an eighth of a replication hop each.
func BenchmarkStandbyFanout(b *testing.B) {
	b.Run("8subs", func(b *testing.B) {
		const subs = 8
		lp, _, c := benchStandby(b)
		got := make(chan struct{}, 4*subs)
		for i := 0; i < subs; i++ {
			s, err := c.Subscribe(client.SubSpec{
				Query: "status_q", Period: 1,
				Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1,
				Depth: 64, Buffer: 64,
			})
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				for range s.Pushes() {
					got <- struct{}{}
				}
			}()
		}
		b.ReportAllocs()
		b.ResetTimer()
		at := timeseq.Time(1)
		for delivered := 0; delivered < b.N; delivered += subs {
			at++
			if err := lp.Append(wal.Sample(at, "temp", "30")); err != nil {
				b.Fatal(err)
			}
			for k := 0; k < subs; k++ {
				select {
				case <-got:
				case <-time.After(10 * time.Second):
					b.Fatalf("push %d of tick %d never delivered", k, at)
				}
			}
		}
	})
}
