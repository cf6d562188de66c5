package netserve

import (
	"testing"
	"time"

	"rtc/internal/faultfs"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/server"
)

// fetchMetricRows dials addr and returns the metrics table by name.
func fetchMetricRows(t *testing.T, addr string) map[string]uint64 {
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
	return m.Map()
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

// TestMetricsDurabilityRows: the wire metrics of a WAL-backed primary must
// carry the durability coordinates failover tooling reads — wal_seq (the
// durable tail a promoted node is checked against), epoch (the fencing
// coordinate), and repl_durable (the follower-acked watermark). rtdbload's
// zero-lost-acked-writes assertion dereferences these by name; losing a row
// silently turns the durability check into a hard failure after failover.
func TestMetricsDurabilityRows(t *testing.T) {
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), FS: faultfs.OS{}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, _, addr := startNet(t, server.Config{Sessions: 2, Log: l}, Options{}, nil)

	mm := fetchMetricRows(t, addr)
	for _, name := range []string{"wal_seq", "wal_durable", "epoch", "repl_durable"} {
		if _, ok := mm[name]; !ok {
			t.Errorf("WAL-backed primary metrics missing %q (got %d rows)", name, len(mm))
		}
	}
	if got := mm["epoch"]; got != l.Epoch() {
		t.Errorf("epoch row = %d, want %d", got, l.Epoch())
	}
	if got := mm["wal_seq"]; got != l.Seq() {
		t.Errorf("wal_seq row = %d, want %d", got, l.Seq())
	}
	// No window is open (Sync-off log), so the durable tail equals the tail.
	if got := mm["wal_durable"]; got != mm["wal_seq"] {
		t.Errorf("wal_durable row = %d, want wal_seq %d", got, mm["wal_seq"])
	}
}

// TestMetricsFaultPathRows: every wire-hardening drop path reports under a
// pinned row name — corrupt frames reset on CRC damage, write timeouts
// evict dead-weight readers, repl stall evictions cut wedged followers.
// The torture sweeps and dashboards dereference these by name to prove no
// drop path is silent; losing a row un-counts a whole failure family.
func TestMetricsFaultPathRows(t *testing.T) {
	_, _, addr := startNet(t, server.Config{Sessions: 2}, Options{}, nil)

	mm := fetchMetricRows(t, addr)
	for _, name := range []string{
		"net_corrupt_frames", "net_write_timeouts", "net_repl_stall_evictions",
		"net_decode_errors", "net_write_drops",
	} {
		if _, ok := mm[name]; !ok {
			t.Errorf("metrics frame missing pinned fault-path row %q", name)
		}
	}
}

// TestMetricsDurabilityRowsNoWAL: an ephemeral (WAL-less) server still
// reports epoch and repl_durable; wal_seq is rightly absent because there
// is no durable tail to advertise.
func TestMetricsDurabilityRowsNoWAL(t *testing.T) {
	_, _, addr := startNet(t, server.Config{Sessions: 2}, Options{}, nil)

	mm := fetchMetricRows(t, addr)
	for _, name := range []string{"epoch", "repl_durable"} {
		if _, ok := mm[name]; !ok {
			t.Errorf("ephemeral server metrics missing %q", name)
		}
	}
	if _, ok := mm["wal_seq"]; ok {
		t.Error("ephemeral server advertises wal_seq with no WAL behind it")
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
	_, _, addr := startNet(t, cfg, Options{}, nil)
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

	_, _, plainAddr := startNet(t, testConfig(), Options{}, nil)
	plain := fetchMetricRows(t, plainAddr)
	for _, name := range []string{"fsync_count", "fsync_total_ns", "fsync_max_ns", "group_commits", "grouped_appends"} {
		if v, ok := plain[name]; !ok || v != 0 {
			t.Errorf("WAL-less %s = %d (present %v), want 0", name, v, ok)
		}
	}
}
