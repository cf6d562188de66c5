package replica

import (
	"testing"
	"time"

	"rtc/internal/faultfs"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
)

// TestBatchedShippingWatermark pins the replicated durability contract
// under group commit:
//
//   - a follower never sees an event before its covering fsync on the
//     primary (the one read replication ships from stops at the durable tail),
//   - whole commit batches ship as batches, so the follower's fsync
//     cadence tracks the shipped-batch count, not the event count,
//   - the follower-acked repl_durable watermark still converges to the
//     primary's tail once the batches land.
func TestBatchedShippingWatermark(t *testing.T) {
	memP := faultfs.NewMem(21)
	lp, err := wal.Open(wal.Options{
		Dir: "wal", FS: memP, SegmentSize: 1 << 20, SnapshotEvery: 1 << 20,
		Sync: true, GroupWindow: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Log: lp})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ns := netserve.New(srv, netserve.Options{
		HeartbeatInterval: testBeacon,
		ReplBatch:         4, ReplWindow: 16,
	})
	addr, err := ns.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Stop(); ns.Close() })

	memR := faultfs.NewMem(22)
	r, err := Open(Config{
		Primary: addr.String(),
		WAL: wal.Options{
			Dir: "rwal", FS: memR, SegmentSize: 1 << 20, SnapshotEvery: 1 << 20,
			Sync: true,
		},
		Client: client.Options{Name: "gc-follower",
			RetryBackoff: time.Millisecond, RetryBackoffMax: 20 * time.Millisecond,
			Seed: 9, HeartbeatInterval: testBeacon,
		},
	}, testServer())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start()

	// Append a workload into the open (hour-long) window: everything is
	// written and applied on the primary but nothing is durable yet.
	events := testEvents(40)
	tickets := make([]*wal.Ticket, 0, len(events))
	for _, e := range events {
		tk, err := lp.AppendTicket(e, false)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	// The follower must not apply any of it: undurable events are invisible
	// to the sender's read.
	time.Sleep(100 * time.Millisecond)
	if got := r.Seq(); got != 0 {
		t.Fatalf("follower applied %d events before the primary's fsync", got)
	}

	baseSyncs := memR.Syncs()
	if err := lp.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	if !r.WaitSeq(uint64(len(events)), 10*time.Second) {
		t.Fatalf("follower stuck at seq %d, want %d", r.Seq(), len(events))
	}

	// Watermark regression: the follower-acked repl_durable must converge
	// to the primary's tail under batched shipping.
	deadline := time.Now().Add(5 * time.Second)
	for ns.ReplDurable() != uint64(len(events)) {
		if time.Now().After(deadline) {
			t.Fatalf("repl_durable stuck at %d, want %d", ns.ReplDurable(), len(events))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Fsync cadence: the batch release shipped the events in WalBatches and
	// the follower paid one fsync per batch (AppendBatch), not per event.
	batches := r.srv.Repl.BatchesIn.Load()
	syncs := memR.Syncs() - baseSyncs
	if batches == 0 || batches >= uint64(len(events)) {
		t.Fatalf("shipping was not batched: %d batches for %d events", batches, len(events))
	}
	if syncs > batches+2 {
		t.Fatalf("follower paid %d fsyncs for %d shipped batches: per-event cadence leaked back in", syncs, batches)
	}

	// And the replicated state is exact.
	r.mu.Lock()
	d := lp.State().Diff(r.log.State())
	r.mu.Unlock()
	if d != "" {
		t.Fatalf("replicated state diverged: %s", d)
	}
}
