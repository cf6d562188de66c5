package torture

import (
	"testing"
	"time"

	"rtc/internal/faultnet"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/timeseq"
)

// TestFailoverSweepShort is the tier-1 bounded variant: a handful of kill
// points with a live replica and a promotion at each one.
func TestFailoverSweepShort(t *testing.T) {
	rep := Config{Seed: 1, Events: 40, Stride: 17, Logf: t.Logf}.Sweep(ModeFailover)
	report(t, rep)
}

// TestFailoverSweepFull kills the primary at every single WAL fault point of
// the full workload — the ISSUE acceptance bar is ≥ 200 kill points.
func TestFailoverSweepFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full failover sweep is minutes of work; run without -short")
	}
	rep := Config{Seed: 1, Stride: 1, Logf: t.Logf}.Sweep(ModeFailover)
	report(t, rep)
	if rep.Points < 200 {
		t.Fatalf("full sweep exercised only %d kill points, want >= 200", rep.Points)
	}
}

// TestFailoverGroupCommit re-runs the failover sweep with group commit
// enabled on both the primary and the replica WAL. The driver appends one
// event at a time and blocks for the replica's ack, so each append is a
// batch of one — the point is that the grouped code path (tickets, release
// at fsync, the shippable tail moving with durability, AppendBatch on the
// follower) preserves the replicated invariant acked ≤ n ≤ acked+1 at every
// kill point.
func TestFailoverGroupCommit(t *testing.T) {
	rep := Config{Seed: 3, Events: 40, Stride: 23, GroupWindow: 50 * time.Microsecond, Logf: t.Logf}.Sweep(ModeFailover)
	report(t, rep)
}

// TestFailoverSharded re-runs the failover sweep with the primary posing
// as each listener of a 4-wide sharded deployment in turn. The Welcome
// then carries a (shard, shards) placement announcement; the replica must
// ignore it and preserve the replicated invariant acked ≤ n ≤ acked+1 at
// every kill point, exactly as in the unsharded sweep.
func TestFailoverSharded(t *testing.T) {
	for victim := 0; victim < 4; victim++ {
		rep := Config{Seed: 5, Events: 40, Stride: 19, Shards: 4, Victim: victim, Logf: t.Logf}.Sweep(ModeFailover)
		report(t, rep)
		if rep.Points == 0 {
			t.Fatalf("victim %d: sweep exercised no kill points", victim)
		}
	}
}

// TestFailoverPointRepro pins one kill point the way `rttorture -mode
// failover -at K` would replay it.
func TestFailoverPointRepro(t *testing.T) {
	rep := Config{Seed: 1, Events: 40, At: 9}.Sweep(ModeFailover)
	if rep.Points != 1 {
		t.Fatalf("At should pin exactly one point, got %d", rep.Points)
	}
	report(t, rep)
}

// TestStacksHoldIdleLinks: each wire row's stack runs its listeners and its
// follower on one beacon, so a caught-up replication link left idle holds —
// no silence cut, no re-subscribe.
func TestStacksHoldIdleLinks(t *testing.T) {
	c := Config{}
	c.defaults()
	// The failover row's primary is a bare sender over an empty log; the
	// partition row's full server has already logged its catalog.
	samples := []wal.Event{wal.Image("temp", 5)}
	for i := 1; i <= 10; i++ {
		samples = append(samples, wal.Sample(timeseq.Time(i), "temp", "20"))
	}
	rows := []struct {
		name   string
		stack  func(fab *faultnet.Fabric) (*stack, error)
		events []wal.Event
	}{
		{"failover", func(*faultnet.Fabric) (*stack, error) { return c.failoverStack(1) }, samples},
		{"partition", func(fab *faultnet.Fabric) (*stack, error) { return c.fabricStack(fab, 1, 6) }, samples[1:]},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fab := faultnet.NewFabric(1)
			defer fab.Close()
			st, err := row.stack(fab)
			if err != nil {
				t.Fatal(err)
			}
			defer closeStack(t, st)
			for _, e := range row.events {
				if err := st.lp.Append(e); err != nil {
					t.Fatal(err)
				}
			}
			if !st.rp.WaitSeq(st.lp.Seq(), 10*time.Second) {
				t.Fatalf("replica stuck at %d, primary at %d", st.rp.Seq(), st.lp.Seq())
			}
			reconnects := st.rp.Server().Repl.Reconnects.Load()
			time.Sleep(time.Second)
			if got := st.rp.Server().Repl.Reconnects.Load(); got != reconnects {
				t.Errorf("Repl.Reconnects %d → %d while idle, want unchanged", reconnects, got)
			}
			if got := st.ns.Wire.ConnsAccepted.Load(); got != 1 {
				t.Errorf("primary accepted %d connections, want the follower's one", got)
			}
		})
	}
}
