package torture

import (
	"errors"
	"fmt"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultfs"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/replica"
	"rtc/internal/rtdb/server"
)

// ModeFailover kills the primary at every WAL fault point with a live
// replica attached, then promotes the replica and checks the replicated
// recovery invariant.
const ModeFailover Mode = "failover"

// replDir is the replica's own WAL directory (on its own filesystem — the
// primary's power cut must not touch it).
const replDir = "rwal"

func failoverCatalog() rtdb.Catalog {
	return rtdb.Catalog{
		"status_q": func(v *rtdb.View) []rtdb.Value {
			if s, ok := v.DeriveNow("status"); ok {
				return []rtdb.Value{s}
			}
			return nil
		},
	}
}

// FailoverSweep runs the replicated variant of the crash sweep: a primary
// WAL behind a live rtwire replication stream, a replica acking every
// event, and a power cut armed at every Stride-th mutating operation of
// the primary's filesystem. At each kill point the sweep then:
//
//   - reads from the hot standby during the outage (a soft query must be
//     served degraded, a firm query refused read-only) and checks the
//     standby's conservation law QueriesIn == QueriesAccounted,
//   - promotes the replica and requires the fencing epoch to advance,
//   - asserts the replicated durability invariant acked ≤ n ≤ acked+1
//     (with per-event acks the replica can never trail an acked write,
//     and double-apply would push n past acked+1),
//   - deep-compares the promoted state against the reference prefix, and
//   - appends past the failover to prove the promoted log is live.
func (c Config) FailoverSweep() *Report {
	c.defaults()
	events := Workload(c.Seed, c.Events)
	rep := &Report{}
	start, stride := uint64(1), uint64(c.Stride)
	if c.At > 0 {
		start, stride = c.At, 0
	}
	for at := start; ; at += stride {
		done, fail := c.failoverPoint(events, at)
		if done {
			break
		}
		rep.Points++
		if fail != nil {
			rep.Failures = append(rep.Failures, *fail)
		} else {
			rep.Recoveries++
		}
		if c.At > 0 {
			break
		}
	}
	if c.Logf != nil {
		c.Logf("failover sweep: seed=%d points=%d recoveries=%d failures=%d",
			c.Seed, rep.Points, rep.Recoveries, len(rep.Failures))
	}
	return rep
}

// failoverPoint runs one workload with a primary power cut armed at
// mutating op `at` and a replica streaming the WAL. done reports that `at`
// lies beyond the workload (sweep complete).
func (c Config) failoverPoint(events []wal.Event, at uint64) (done bool, fail *Failure) {
	memP := faultfs.NewMem(pointSeed(c.Seed, at))
	mkFail := func(format string, args ...any) *Failure {
		return &Failure{
			Mode: ModeFailover, Seed: c.Seed, At: at, Events: c.Events,
			Detail: fmt.Sprintf(format, args...), Segments: dumpSegments(memP),
		}
	}

	lp, err := wal.Open(c.walOptions(memP))
	if err != nil {
		return false, mkFail("primary Open: %v", err)
	}
	// The server is only the replication sender's shell here: the workload
	// is appended directly to the WAL so the kill point is deterministic in
	// filesystem ops, exactly as in the crash sweep.
	srv, err := server.New(server.Config{Log: lp})
	if err != nil {
		lp.Close()
		return false, mkFail("primary server shell: %v", err)
	}
	nopt := netserve.Options{
		HeartbeatInterval: 50 * time.Millisecond,
		ReplBatch:         8, ReplWindow: 32, TailBuffer: 256,
	}
	if c.Shards > 0 {
		// Sharded rerun: the primary poses as one listener of an N-wide
		// deployment. The replica must ignore the placement announcement
		// and fail over exactly as in the unsharded sweep.
		nopt.Shard, nopt.Shards = c.Victim%c.Shards, c.Shards
	}
	ns := netserve.New(srv, nopt)
	addr, err := ns.Listen("127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return false, mkFail("primary listen: %v", err)
	}

	memR := faultfs.NewMem(pointSeed(c.Seed, at) ^ 0x5bd1e995)
	rp, err := replica.Open(replica.Config{
		Primary: addr.String(),
		WAL: wal.Options{
			Dir: replDir, FS: memR, SegmentSize: c.SegmentSize,
			SnapshotEvery: c.SnapshotEvery, Sync: true,
			GroupWindow: c.GroupWindow,
		},
		Name:     "torture-follower",
		Catalog:  failoverCatalog(),
		Registry: rtdb.DeriveRegistry{"status": chaosDerive},
		Seed:     pointSeed(c.Seed, at),

		RetryBackoff: time.Millisecond, RetryBackoffMax: 20 * time.Millisecond,
		HeartbeatTimeout: 5 * time.Second,
	})
	if err != nil {
		srv.Stop()
		ns.Close()
		return false, mkFail("replica Open: %v", err)
	}
	rp.Start()
	standbyAddr, err := rp.Listen("127.0.0.1:0", nopt)
	if err != nil {
		srv.Stop()
		ns.Close()
		_ = rp.Close()
		return false, mkFail("standby listen: %v", err)
	}

	// Drive the workload, waiting for the replica's ack after every
	// successful append: the sweep's `acked` therefore equals the replica's
	// sequence at every step, making the kill-point outcome deterministic.
	memP.CrashAt(at)
	acked := 0
	for _, e := range events {
		if err := lp.Append(e); err != nil {
			break
		}
		acked++
		if !rp.WaitSeq(uint64(acked), 10*time.Second) {
			srv.Stop()
			ns.Close()
			_ = rp.Close()
			return false, mkFail("replica never reached acked seq %d (stuck at %d)", acked, rp.Seq())
		}
	}
	if !memP.Dead() {
		// The fault point lies beyond the workload's op count.
		srv.Stop()
		ns.Close()
		_ = rp.Close()
		lp.Close()
		return true, nil
	}
	memP.Crash()
	srv.Stop()
	ns.Close()

	// The outage window: the standby must serve degraded reads and refuse
	// firm ones, with its conservation law intact.
	cl, err := client.Dial(standbyAddr.String(), client.Options{
		RetryAttempts: -1, HeartbeatInterval: -1, Seed: pointSeed(c.Seed, at),
	})
	if err != nil {
		_ = rp.Close()
		return false, mkFail("standby dial during outage: %v", err)
	}
	if _, err := cl.Query(client.Query{
		Query: "status_q", Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1,
	}); err != nil {
		cl.Close()
		_ = rp.Close()
		return false, mkFail("standby refused a soft query: %v", err)
	}
	if _, err := cl.Query(client.Query{
		Query: "status_q", Kind: deadline.Firm, Deadline: 1 << 20, MinUseful: 1,
	}); !errors.Is(err, client.ErrReadOnly) {
		cl.Close()
		_ = rp.Close()
		return false, mkFail("standby served a firm query during outage (err=%v)", err)
	}
	cl.Close()
	ms := rp.Metrics.Snapshot()
	if ms.QueriesIn != ms.QueriesAccounted() {
		_ = rp.Close()
		return false, mkFail("standby conservation broken: in=%d accounted=%d", ms.QueriesIn, ms.QueriesAccounted())
	}
	if ms.Degraded == 0 {
		_ = rp.Close()
		return false, mkFail("soft query was served but not counted degraded")
	}

	// Failover: promote, fence, and check the replicated recovery invariant.
	epoch, err := rp.Promote()
	if err != nil {
		_ = rp.Close()
		return false, mkFail("promote: %v", err)
	}
	if epoch < 2 {
		_ = rp.Close()
		return false, mkFail("promotion left epoch at %d", epoch)
	}
	n := int(rp.Seq())
	switch {
	case n < acked:
		_ = rp.Close()
		return false, mkFail("replica has %d events but %d were acked (lost acked writes)", n, acked)
	case n > acked+1:
		_ = rp.Close()
		return false, mkFail("replica has %d events but only %d were issued (double apply)", n, acked+1)
	}
	nl := rp.Log()
	want := Reference(events[:n])
	if d := want.Diff(nl.State()); d != "" {
		_ = rp.Close()
		return false, mkFail("promoted state != reference prefix %d: %s", n, d)
	}

	// The promoted log is live: an append past the failover lands.
	if n >= 2 { // catalog prologue replicated, image exists
		post := wal.Sample(want.LastAt+1, "temp", "post-failover")
		if err := nl.Append(post); err != nil {
			_ = rp.Close()
			return false, mkFail("append after promotion: %v", err)
		}
	}
	_ = rp.Close() // promoted: leaves the log to us
	if err := nl.Close(); err != nil {
		return false, mkFail("close promoted log: %v", err)
	}

	// Fencing durability: the bumped epoch survives a restart of the node.
	l2, err := wal.Open(wal.Options{
		Dir: replDir, FS: memR, SegmentSize: c.SegmentSize,
		SnapshotEvery: c.SnapshotEvery, Sync: true,
		GroupWindow: c.GroupWindow,
	})
	if err != nil {
		return false, mkFail("reopen promoted log: %v", err)
	}
	defer l2.Close()
	if got := l2.Epoch(); got != epoch {
		return false, mkFail("promoted epoch %d not persisted (reopened as %d)", epoch, got)
	}
	return false, nil
}
