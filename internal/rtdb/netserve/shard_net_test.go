package netserve

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// shardNetSpec builds a sharded-deployment spec: n images, a shared
// invariant, a per-object point query, a derived object over one image
// (co-located with it by the split) with its own query, and a rule bound to
// one image's sample stream (installed on every shard, firing only where
// its image lives) — with the query-home map clients use for placement.
func shardNetSpec(n int) (server.Config, map[string]string) {
	statusSrc := fmt.Sprintf("obj-%02d", 3%n)
	statusOf := func(vals map[string]rtdb.Value) rtdb.Value {
		v, _ := strconv.Atoi(vals[statusSrc])
		l, _ := strconv.Atoi(vals["limit"])
		if v > l {
			return "high"
		}
		return "ok"
	}
	sp := rtdb.Spec{
		Invariants: map[string]rtdb.Value{"limit": "50"},
		Derived: []*rtdb.DerivedObject{
			{Name: "status", Sources: []string{statusSrc, "limit"}, Derive: statusOf},
		},
	}
	cat := rtdb.Catalog{
		"status_q": func(v *rtdb.View) []rtdb.Value {
			if s, ok := v.DeriveNow("status"); ok {
				return []rtdb.Value{s}
			}
			return nil
		},
	}
	home := map[string]string{"status_q": statusSrc}
	rules := []rtdb.Rule{{
		Name: "mark", On: "sample:obj-00", Mode: rtdb.Immediate,
		If: func(db *rtdb.DB, e rtdb.Event) bool {
			v, _ := strconv.Atoi(e.Attr["value"])
			return v > 75
		},
		Then: func(db *rtdb.DB, e rtdb.Event) {},
	}}
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
	return server.Config{
		Spec: sp, Catalog: cat, Rules: rules,
		Registry: rtdb.DeriveRegistry{"status": statusOf},
	}, home
}

// startShardSet stands up a sharded deployment behind one listener per
// shard and returns the shards and their addresses.
func startShardSet(t *testing.T, shards int, logs []*wal.Log) ([]*server.Server, []string) {
	t.Helper()
	cfg, _ := shardNetSpec(4 * shards)
	srvs, err := server.NewShards(cfg, shards, logs)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, shards)
	for i, s := range srvs {
		s.Start()
		ns := New(s, Options{
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
	return srvs, addrs
}

// The differential shard suite, on the path that is deployed: one seeded
// workload is pushed over the wire into N listeners — one client per
// listener, every sample placed by ShardFor, every query sent to its home
// object's shard — and into the oracle, one plain server.New behind one
// netserve.New, no split at all. What sharding must preserve is
// compared: every query's answers and deadline verdict, the conservation
// sums, each object's write order as its WAL made it durable, and each
// object's latest value read back as of its own shard's horizon. Chronon
// stamps are not compared — every shard runs its own clock, so no two
// configurations share them.
//
// The workload is sequential and flushes before each query, and the client's
// chronon is an hour long, so no loopback delay consumes a chronon of budget:
// a verdict depends on EvalCost against the deadline and on nothing else.

// shardDiffOutcome is everything the driver observes in one run.
type shardDiffOutcome struct {
	results   []client.Result // Issue/Served zeroed
	applied   uint64
	queries   [4]uint64 // in, hit, miss, nodeadline
	firings   uint64
	perObject map[string][]string // per-object WAL value sequence
	latest    map[string]string   // as-of read at the owner's horizon ("?" when absent)
}

// runShardDiff stands up a deployment — shards == 0 is the oracle — drives
// the seeded workload through it and collects every observable.
func runShardDiff(t *testing.T, shards int, seed int64, nObjs int) shardDiffOutcome {
	t.Helper()
	base := filepath.Join(t.TempDir(), "wal")
	cfg, home := shardNetSpec(nObjs)
	cfg.QueueDepth = 256
	cfg.EvalCost = 3      // against deadlines of 1, 2, 6 and 10: hits, misses, skips
	cfg.SnapshotEvery = 1 // every shard's horizon is its clock at quiescence
	openLog := func(dir string) *wal.Log {
		l, err := wal.Open(wal.Options{Dir: dir, SegmentSize: 1 << 16, SnapshotEvery: 16})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	n := max(shards, 1)
	var dirs []string
	var logs []*wal.Log
	for i := 0; i < n; i++ {
		dirs = append(dirs, server.ShardDir(base, i, n))
		logs = append(logs, openLog(dirs[i]))
	}
	var srvs []*server.Server
	var err error
	if shards == 0 {
		cfg.Log = logs[0]
		var s *server.Server
		s, err = server.New(cfg)
		srvs = []*server.Server{s}
	} else {
		srvs, err = server.NewShards(cfg, shards, logs)
	}
	if err != nil {
		t.Fatal(err)
	}
	set := make([]*Server, n)
	clients := make([]*client.Client, n)
	for i, s := range srvs {
		s.Start()
		set[i] = New(s, Options{Shard: i, Shards: n})
		addr, err := set[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.Dial(addr.String(), client.Options{
			Name: fmt.Sprintf("diff-%d", i), ChrononDuration: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	route := func(obj string) *client.Client { return clients[clients[0].ShardFor(obj)] }
	flushed := func(c *client.Client) *client.Client {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return c
	}

	out := shardDiffOutcome{perObject: map[string][]string{}, latest: map[string]string{}}
	ask := func(c *client.Client, q client.Query) {
		res, err := flushed(c).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		res.Issue, res.Served = 0, 0
		out.results = append(out.results, res)
	}
	rng := rand.New(rand.NewSource(seed))
	for phase := 0; phase < 6; phase++ {
		for i := 0; i < 40; i++ {
			obj := fmt.Sprintf("obj-%02d", rng.Intn(nObjs))
			switch rng.Intn(5) {
			case 0, 1, 2:
				if err := route(obj).InjectSample(obj, strconv.Itoa(rng.Intn(100))); err != nil {
					t.Fatal(err)
				}
			case 3:
				ask(route(obj), client.Query{
					Query: "q-" + obj, Candidate: "42", Kind: deadline.Firm,
					Deadline: []timeseq.Time{2, 10}[rng.Intn(2)], MinUseful: 1,
				})
			case 4:
				q := client.Query{Query: "status_q"}
				if rng.Intn(2) == 0 {
					q.Kind, q.Decay = deadline.Soft, rtwire.Decay{ID: rtwire.DecayHyperbolic, Max: 8}
					q.Deadline = []timeseq.Time{1, 6}[rng.Intn(2)]
					q.MinUseful = []uint64{2, 6}[rng.Intn(2)]
				}
				ask(route(home["status_q"]), q)
			}
		}
		for _, c := range clients {
			flushed(c)
		}
	}

	for i := 0; i < nObjs; i++ {
		obj := fmt.Sprintf("obj-%02d", i)
		_, _, horizon, err := route(obj).AsOf(obj, 0)
		if err != nil {
			t.Fatal(err)
		}
		v, ok, _, err := route(obj).AsOf(obj, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			v = "?"
		}
		out.latest[obj] = v
	}
	for i, s := range srvs {
		m := s.Metrics.Snapshot()
		if _, err := server.Audit(fmt.Sprintf("shards=%d shard %d: ", shards, i), server.Books(), m.Pairs()); err != nil {
			t.Fatal(err)
		}
		out.applied += m.SamplesApplied
		out.firings += m.RuleFirings
		for j, v := range [4]uint64{m.QueriesIn, m.DeadlineHit, m.DeadlineMiss, m.NoDeadline} {
			out.queries[j] += v
		}
	}
	if in, acc := out.queries[0], out.queries[1]+out.queries[2]+out.queries[3]; in != acc {
		t.Fatalf("shards=%d summed conservation: in=%d accounted=%d", shards, in, acc)
	}

	for i := range set {
		_ = clients[i].Close()
		_ = set[i].Close()
		srvs[i].Stop()
		if err := logs[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Recover each WAL and extract the per-object value sequences — the
	// order each object's writes were made durable in.
	holding := 0
	for _, dir := range dirs {
		l := openLog(dir)
		sampled := false
		for name, img := range l.State().Images {
			if _, dup := out.perObject[name]; dup {
				t.Fatalf("image %q recovered from two shards", name)
			}
			seq := []string{}
			for _, s := range img.Samples {
				seq = append(seq, s.Value)
			}
			out.perObject[name] = seq
			sampled = sampled || len(seq) > 0
		}
		if sampled {
			holding++
		}
		l.Close()
	}
	// The workload actually spread: otherwise the differential proves
	// nothing about placement.
	if shards > 1 && holding < 2 {
		t.Fatalf("shards=%d: only %d WAL directories hold samples", shards, holding)
	}
	return out
}

// diffShardOutcomes reports every observable that differs between the
// oracle's run and a sharded one.
func diffShardOutcomes(t *testing.T, label string, oracle, got shardDiffOutcome) {
	t.Helper()
	if len(oracle.results) != len(got.results) {
		t.Fatalf("%s: %d results, oracle has %d", label, len(got.results), len(oracle.results))
	}
	for i := range oracle.results {
		if !reflect.DeepEqual(oracle.results[i], got.results[i]) {
			t.Errorf("%s: result %d differs:\n oracle:  %+v\n sharded: %+v", label, i, oracle.results[i], got.results[i])
		}
	}
	if oracle.applied != got.applied || oracle.queries != got.queries || oracle.firings != got.firings {
		t.Errorf("%s: accounting differs: applied %d queries %v firings %d, oracle %d %v %d",
			label, got.applied, got.queries, got.firings, oracle.applied, oracle.queries, oracle.firings)
	}
	if !reflect.DeepEqual(oracle.perObject, got.perObject) {
		t.Errorf("%s: per-object WAL value order differs:\n oracle:  %v\n sharded: %v", label, oracle.perObject, got.perObject)
	}
	if !reflect.DeepEqual(oracle.latest, got.latest) {
		t.Errorf("%s: latest values as of each owner's horizon differ:\n oracle:  %v\n sharded: %v", label, oracle.latest, got.latest)
	}
}

// TestShardDifferential is the suite's centerpiece: 8 listeners against the
// unsharded oracle, same seed, every observable equal.
func TestShardDifferential(t *testing.T) {
	const seed, nObjs = 0x5eed, 16
	oracle := runShardDiff(t, 0, seed, nObjs)
	// The oracle agrees with itself — what it reads back is the last value it
	// logged — and the workload reached every kind of verdict.
	for obj, seq := range oracle.perObject {
		want := "?"
		if len(seq) > 0 {
			want = seq[len(seq)-1]
		}
		if oracle.latest[obj] != want {
			t.Errorf("oracle: %s reads %q as of its horizon, its WAL ends in %q", obj, oracle.latest[obj], want)
		}
	}
	var hit, skipped int
	for _, r := range oracle.results {
		if r.Evaluated && !r.Missed {
			hit++
		} else if r.Missed {
			skipped++
		}
	}
	if hit == 0 || skipped == 0 || oracle.firings == 0 {
		t.Fatalf("workload too tame: %d hits, %d admission-skipped misses, %d firings", hit, skipped, oracle.firings)
	}
	t.Logf("%d results: %d hits, %d admission-skipped misses; %d samples, %d firings",
		len(oracle.results), hit, skipped, oracle.applied, oracle.firings)
	diffShardOutcomes(t, "shards=8", oracle, runShardDiff(t, 8, seed, nObjs))
}

// TestShardDifferentialSeeds runs the same differential over a handful of
// seeds and shard counts — cheap insurance that the identity is not an
// artifact of one lucky interleaving.
func TestShardDifferentialSeeds(t *testing.T) {
	const nObjs = 12
	for _, seed := range []int64{1, 7, 0xbeef} {
		oracle := runShardDiff(t, 0, seed, nObjs)
		for _, shards := range []int{1, 2, 4} {
			diffShardOutcomes(t, fmt.Sprintf("seed %#x shards=%d", seed, shards), oracle, runShardDiff(t, shards, seed, nObjs))
		}
	}
}
