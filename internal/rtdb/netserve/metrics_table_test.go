package netserve

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"rtc/internal/faultfs"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/server"
)

// The metrics reply's row names, in order, as tooling keyed on them reads
// it: the server's counters, then the wire counters, then the node's
// durability coordinates, which depend on its shape.
var (
	serverRowNames = []string{
		"chronon", "samples_in", "samples_rejected", "samples_applied",
		"queries_in", "queries_rejected", "reject_miss", "deadline_hit",
		"deadline_miss", "no_deadline", "admission_skip", "expired_on_arrival",
		"degraded", "periodic_issued", "periodic_hit", "periodic_miss",
		"subs_opened", "subs_closed", "push_scheduled", "pushed",
		"push_dropped", "push_expired", "asof_reads", "rule_firings",
		"cascade_depth_max", "wal_appends", "wal_errors", "wal_heals",
		"fsync_count", "fsync_total_ns", "fsync_max_ns", "group_commits",
		"grouped_appends",
	}
	wireRowNames = []string{
		"net_conns_accepted", "net_conns_refused", "net_conns_closed",
		"net_frames_in", "net_frames_out", "net_bytes_in", "net_bytes_out",
		"net_samples_in", "net_queries_in", "net_asof_reads", "net_subs_in",
		"net_pushes_out", "net_expired_on_arrival", "net_backpressure_frames",
		"net_write_drops", "net_decode_errors", "net_heartbeats_in",
		"net_repl_batches_out", "net_repl_resyncs", "net_corrupt_frames",
		"net_write_timeouts", "net_repl_stall_evictions",
	}
	followerRowNames = []string{
		"wal_seq", "epoch", "repl_seq", "repl_epoch", "repl_batches_in",
		"repl_events_applied", "repl_dup_skipped", "repl_gap_resubscribes",
		"repl_resyncs", "repl_stale_batches", "repl_reconnects", "repl_promotions",
	}
)

// metricRowNames dials addr and returns the metrics reply's row names in
// order.
func metricRowNames(t *testing.T, addr string) []string {
	t.Helper()
	c, err := client.Dial(addr, client.Options{Name: "rows-probe"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(m.Pairs))
	for i, p := range m.Pairs {
		names[i] = p.Name
	}
	return names
}

// memLog opens a write-ahead log on an in-memory file system.
func memLog(t *testing.T, opt wal.Options) *wal.Log {
	t.Helper()
	opt.Dir, opt.FS = "wal", faultfs.NewMem(1)
	l, err := wal.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l
}

// TestMetricsRowTable pins the complete, ordered row list of a metrics reply
// for each node shape: a WAL-backed primary, a WAL-less primary, a shard
// listener (its identity rows lead) and a follower.
func TestMetricsRowTable(t *testing.T) {
	walCfg := testConfig()
	walCfg.Log = memLog(t, wal.Options{})
	_, _, walAddr := startNet(t, walCfg, Options{})

	_, _, plainAddr := startNet(t, testConfig(), Options{})

	_, shardAddrs := startShardSet(t, 2, nil)

	folCfg := testConfig()
	folCfg.Log = memLog(t, wal.Options{})
	fol := server.NewFollower(folCfg)
	fol.Start()
	folNet := New(fol, Options{})
	folAddr, err := folNet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = folNet.Close()
		fol.Stop()
	})

	for _, tc := range []struct {
		shape, addr string
		want        []string
	}{
		{"wal primary", walAddr, slices.Concat(serverRowNames, wireRowNames,
			[]string{"wal_seq", "wal_durable", "epoch", "repl_durable"})},
		{"wal-less primary", plainAddr, slices.Concat(serverRowNames, wireRowNames,
			[]string{"epoch", "repl_durable"})},
		{"shard listener", shardAddrs[1], slices.Concat([]string{"shard", "shards"},
			serverRowNames, wireRowNames, []string{"epoch", "repl_durable"})},
		{"follower", folAddr.String(), slices.Concat(serverRowNames, wireRowNames, followerRowNames)},
	} {
		if got := metricRowNames(t, tc.addr); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: rows\n got %q\nwant %q", tc.shape, got, tc.want)
		}
	}
}

// TestMetricsLiveFsyncRows: a running primary reports its log's fsync and
// group-commit counters as they stand, not as they stood at the last Stop.
// A WAL-less one reports the same rows, at zero.
func TestMetricsLiveFsyncRows(t *testing.T) {
	const samples = 10
	cfg := testConfig()
	cfg.Sessions = 2 // the load client and the metrics probe
	cfg.Log = memLog(t, wal.Options{Sync: true, GroupWindow: 200 * time.Microsecond})
	_, _, addr := startNet(t, cfg, Options{})
	c, err := client.Dial(addr, client.Options{Name: "fsync"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < samples; i++ {
		if err := c.InjectSample("temp", "20"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	mm := fetchMetricRows(t, addr)
	if mm["wal_appends"] < samples {
		t.Fatalf("wal_appends = %d, want ≥ %d", mm["wal_appends"], samples)
	}
	if mm["fsync_count"] == 0 || mm["group_commits"] == 0 {
		t.Errorf("running primary reports fsync_count %d, group_commits %d; want both > 0",
			mm["fsync_count"], mm["group_commits"])
	}
	if mm["grouped_appends"] != mm["wal_appends"] {
		t.Errorf("grouped_appends %d != wal_appends %d after a Flush", mm["grouped_appends"], mm["wal_appends"])
	}

	_, _, plainAddr := startNet(t, testConfig(), Options{})
	plain := fetchMetricRows(t, plainAddr)
	for _, name := range []string{"fsync_count", "fsync_total_ns", "fsync_max_ns", "group_commits", "grouped_appends"} {
		if v, ok := plain[name]; !ok || v != 0 {
			t.Errorf("WAL-less %s = %d (present %v), want 0", name, v, ok)
		}
	}
}

// TestSnapshotAllocs: both counter blocks snapshot without allocating when
// called from another package, as rtbench calls them: sub_fanout's timed
// round reads Metrics.Snapshot once to learn how many pushes it matured.
func TestSnapshotAllocs(t *testing.T) {
	var m server.Metrics
	var w WireMetrics
	m.PushScheduled.Add(3)
	w.FramesIn.Add(3)
	if n := testing.AllocsPerRun(100, func() { _ = m.Snapshot() }); n != 0 {
		t.Errorf("server.Metrics.Snapshot allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = w.Snapshot() }); n != 0 {
		t.Errorf("WireMetrics.Snapshot allocates %v times", n)
	}
}
