package netserve

import (
	"fmt"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultfs"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// shardNetSpec builds a sharded-deployment spec: n images, a shared
// invariant, and a per-object point query, with the query-home map the
// router uses for placement.
func shardNetSpec(n int) (server.Config, map[string]string) {
	sp := rtdb.Spec{Invariants: map[string]rtdb.Value{"limit": "50"}}
	cat := rtdb.Catalog{}
	home := map[string]string{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("obj-%02d", i)
		sp.Images = append(sp.Images, &rtdb.ImageObject{Name: name, Period: 5})
		q := "q-" + name
		cat[q] = func(name string) func(*rtdb.View) []rtdb.Value {
			return func(v *rtdb.View) []rtdb.Value {
				if s, ok := v.Latest(name); ok {
					return []rtdb.Value{s.Value}
				}
				return nil
			}
		}(name)
		home[q] = name
	}
	return server.Config{Spec: sp, Catalog: cat}, home
}

// startShardSet stands up a sharded deployment behind one listener per
// shard and returns the per-shard addresses.
func startShardSet(t *testing.T, shards int, logs []*wal.Log) (*server.ShardedServer, []string) {
	t.Helper()
	cfg, home := shardNetSpec(4 * shards)
	ss, err := server.NewSharded(server.ShardedConfig{
		Base: cfg, Shards: shards, Logs: logs, QueryHome: home,
	})
	if err != nil {
		t.Fatal(err)
	}
	ss.Start()
	set := NewShardSet(ss, Options{
		HeartbeatInterval: 25 * time.Millisecond,
		ReplBatch:         4, ReplWindow: 16,
	})
	addrs := make([]string, len(set))
	for i, ns := range set {
		a, err := ns.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = a.String()
	}
	t.Cleanup(func() {
		for _, ns := range set {
			_ = ns.Close()
		}
		ss.Stop()
	})
	return ss, addrs
}

// TestShardSetWelcomeRouting: every listener of the set announces its
// (shard, shards) placement in the Welcome, and a client routing objects
// with rtwire.ShardOf — the client-side half of the placement contract —
// lands every sample on the shard that owns it.
func TestShardSetWelcomeRouting(t *testing.T) {
	const shards = 4
	ss, addrs := startShardSet(t, shards, nil)

	clients := make([]*client.Client, shards)
	for i, addr := range addrs {
		c, err := client.Dial(addr, client.Options{Name: fmt.Sprintf("route-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
		if c.Shards() != shards || c.Shard() != uint64(i) {
			t.Fatalf("listener %d announced shard %d/%d, want %d/%d", i, c.Shard(), c.Shards(), i, shards)
		}
	}

	// Client-side placement: route every object to its owner's listener,
	// then read it back through its home-shard query.
	for i := 0; i < 4*shards; i++ {
		obj := fmt.Sprintf("obj-%02d", i)
		owner := clients[0].ShardFor(obj)
		if want := uint64(rtwire.ShardOf(obj, shards)); owner != want {
			t.Fatalf("client places %q on shard %d, rtwire.ShardOf says %d", obj, owner, want)
		}
		for s, c := range clients {
			if got := c.Owns(obj); got != (uint64(s) == owner) {
				t.Fatalf("shard %d Owns(%q) = %v, owner is %d", s, obj, got, owner)
			}
		}
		if err := clients[owner].InjectSample(obj, fmt.Sprintf("%d", 100+i)); err != nil {
			t.Fatal(err)
		}
		if err := clients[owner].Flush(); err != nil {
			t.Fatal(err)
		}
		res, err := clients[owner].Query(client.Query{
			Query: "q-" + obj, Kind: deadline.Firm, Deadline: 1 << 20, MinUseful: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) != 1 || res.Answers[0] != fmt.Sprintf("%d", 100+i) {
			t.Fatalf("object %q read back %v through shard %d", obj, res.Answers, owner)
		}
	}

	// Every shard did real work: the keyspace is wide enough that no
	// listener sat idle.
	for i := 0; i < shards; i++ {
		if m := ss.Shard(i).Metrics.Snapshot(); m.SamplesApplied == 0 {
			t.Errorf("shard %d applied no samples", i)
		}
	}
}

// TestShardMetricsRows pins the rtdbload contract on a sharded metrics
// table: the shard identity arrives as new "shard"/"shards" rows while
// every existing row keeps its name — in particular the by-name wal_seq
// durability lookup (cmd/rtdbload) must resolve unchanged. The unsharded
// listener must NOT grow the label rows (byte-stable degrade).
func TestShardMetricsRows(t *testing.T) {
	const shards = 2
	logs := make([]*wal.Log, shards)
	for i := range logs {
		l, err := wal.Open(wal.Options{Dir: "wal", FS: faultfs.NewMem(uint64(i + 1)), Sync: true})
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l
	}
	_, addrs := startShardSet(t, shards, logs)

	for i, addr := range addrs {
		c, err := client.Dial(addr, client.Options{Name: "rows"})
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.Metrics()
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		mm := m.Map()
		if got, ok := mm["shard"]; !ok || got != uint64(i) {
			t.Fatalf("listener %d: shard row = %d (present=%v), want %d", i, got, ok, i)
		}
		if got := mm["shards"]; got != shards {
			t.Fatalf("listener %d: shards row = %d, want %d", i, got, shards)
		}
		// The rtdbload durability lookup: wal_seq resolves by name and
		// reflects the shard's own WAL (the spec prologue alone appends).
		if seq, ok := mm["wal_seq"]; !ok || seq == 0 {
			t.Fatalf("listener %d: wal_seq row missing or zero (present=%v, value=%d)", i, ok, seq)
		}
		if _, ok := mm["queries_in"]; !ok {
			t.Fatalf("listener %d: base row queries_in lost its name", i)
		}
	}

	// Unsharded degrade: a plain listener's table has no label rows.
	cfg, _ := shardNetSpec(2)
	_, _, addr := startNet(t, cfg, Options{})
	c, err := client.Dial(addr, client.Options{Name: "plain"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Map()["shard"]; ok {
		t.Fatal("unsharded listener grew a shard row")
	}
}
