package replica

import (
	"fmt"
	"testing"
	"time"

	"rtc/internal/faultfs"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// TestShardReplication: each listener of a sharded set carries its own
// shard's replication stream — a follower subscribed to shard k replicates
// exactly shard k's WAL, not the union of the deployment.
func TestShardReplication(t *testing.T) {
	const shards = 2
	logs := make([]*wal.Log, shards)
	for i := range logs {
		l, err := wal.Open(wal.Options{Dir: "wal", FS: faultfs.NewMem(uint64(i + 10)), Sync: true})
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l
	}
	sp := rtdb.Spec{Invariants: map[string]rtdb.Value{"limit": "50"}}
	for i := 0; i < 4*shards; i++ {
		sp.Images = append(sp.Images, &rtdb.ImageObject{Name: fmt.Sprintf("obj-%02d", i), Period: 5})
	}
	srvs, err := server.NewShards(server.Config{Spec: sp}, shards, logs)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, shards)
	for i, s := range srvs {
		s.Start()
		ns := netserve.New(s, netserve.Options{
			HeartbeatInterval: 25 * time.Millisecond,
			ReplBatch:         4, ReplWindow: 16,
			Shard: i, Shards: shards,
		})
		t.Cleanup(func() {
			_ = ns.Close()
			s.Stop()
		})
		a, err := ns.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = a.String()
	}

	const followShard = 1
	r, err := Open(Config{
		Primary: addrs[followShard],
		WAL:     wal.Options{Dir: "rwal", FS: faultfs.NewMem(99), Sync: true},
		Client: client.Options{
			Name: "shard-follower",
			Seed: 7,

			RetryBackoff: time.Millisecond, RetryBackoffMax: 20 * time.Millisecond,
			HeartbeatInterval: 5 * time.Second / 3,
		},
	}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start()

	// Drive both shards through their owner sessions; only followShard's
	// stream must reach the replica.
	for i := 0; i < 4*shards; i++ {
		obj := fmt.Sprintf("obj-%02d", i)
		sess := srvs[rtwire.ShardOf(obj, shards)].Session(0)
		if err := sess.InjectSample(obj, "7"); err != nil {
			t.Fatal(err)
		}
	}
	var applied uint64
	for _, s := range srvs {
		if err := s.Session(0).Flush(); err != nil {
			t.Fatal(err)
		}
		applied += s.Metrics.Snapshot().SamplesApplied
	}

	want := logs[followShard].Seq()
	if !r.WaitSeq(want, 10*time.Second) {
		t.Fatalf("replica never reached shard %d's seq %d (stuck at %d)", followShard, want, r.Seq())
	}
	if d := logs[followShard].State().Diff(r.Log().State()); d != "" {
		t.Fatalf("replica state != shard %d state: %s", followShard, d)
	}
	// The stream really was per-shard: the replica must know nothing about
	// the other shard's objects.
	for name := range r.Log().State().Images {
		if sh := rtwire.ShardOf(name, shards); sh != followShard {
			t.Fatalf("replica holds %q, owned by shard %d (followed %d)", name, sh, followShard)
		}
	}
	// And the union view is still whole on the primary side.
	if applied != 4*shards {
		t.Fatalf("sharded deployment applied %d of %d samples", applied, 4*shards)
	}
}
