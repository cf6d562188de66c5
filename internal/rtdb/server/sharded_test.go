package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rtc/internal/deadline"
	"rtc/internal/faultfs"
	"rtc/internal/rtdb"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
)

// shardObjects is the differential keyspace: enough objects that every
// shard of an 8-way split owns a few.
func shardObjects(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("obj-%03d", i)
	}
	return out
}

// shardedSpecConfig builds a multi-object catalog: n images, one shared
// invariant, a derived object over one image (co-located by construction),
// one per-image latest-value query, and a rule bound to one image's sample
// stream (installed on every shard, firing only where its image lives).
func shardedSpecConfig(n int) Config {
	objs := shardObjects(n)
	spec := rtdb.Spec{
		Invariants: map[string]rtdb.Value{"limit": "50"},
	}
	for _, o := range objs {
		spec.Images = append(spec.Images, &rtdb.ImageObject{Name: o, Period: 5})
	}
	statusSrc := objs[3%n]
	spec.Derived = append(spec.Derived, &rtdb.DerivedObject{
		Name: "status", Sources: []string{statusSrc, "limit"}, Derive: statusDerive2(statusSrc),
	})
	cat := rtdb.Catalog{
		"status_q": func(v *rtdb.View) []rtdb.Value {
			if s, ok := v.DeriveNow("status"); ok {
				return []rtdb.Value{s}
			}
			return nil
		},
	}
	for _, o := range objs {
		o := o
		cat["q-"+o] = func(v *rtdb.View) []rtdb.Value {
			if s, ok := v.Latest(o); ok {
				return []rtdb.Value{s.Value}
			}
			return nil
		}
	}
	rules := []rtdb.Rule{{
		Name: "mark", On: "sample:" + objs[0], Mode: rtdb.Immediate,
		If: func(db *rtdb.DB, e rtdb.Event) bool {
			v, _ := strconv.Atoi(e.Attr["value"])
			return v > 75
		},
		Then: func(db *rtdb.DB, e rtdb.Event) {},
	}}
	return Config{
		Spec:    spec,
		Catalog: cat,
		Registry: rtdb.DeriveRegistry{
			"status": statusDerive2(statusSrc),
		},
		Rules: rules,
	}
}

func statusDerive2(src string) func(map[string]rtdb.Value) rtdb.Value {
	return func(vals map[string]rtdb.Value) rtdb.Value {
		t, _ := strconv.Atoi(vals[src])
		l, _ := strconv.Atoi(vals["limit"])
		if t > l {
			return "high"
		}
		return "ok"
	}
}

// openShardLogs opens one WAL per shard under the conventional layout.
func openShardLogs(t testing.TB, base string, shards int, opt wal.Options) []*wal.Log {
	t.Helper()
	logs := make([]*wal.Log, shards)
	for i := range logs {
		o := opt
		o.Dir = ShardDir(base, i, shards)
		l, err := wal.Open(o)
		if err != nil {
			t.Fatalf("shard %d wal: %v", i, err)
		}
		logs[i] = l
	}
	return logs
}

func closeLogs(t testing.TB, logs []*wal.Log) {
	t.Helper()
	for i, l := range logs {
		if err := l.Close(); err != nil {
			t.Fatalf("close shard %d wal: %v", i, err)
		}
	}
}

// newShards is NewShards for a split that must succeed.
func newShards(t testing.TB, cfg Config, shards int, logs []*wal.Log) []*Server {
	t.Helper()
	srvs, err := NewShards(cfg, shards, logs)
	if err != nil {
		t.Fatal(err)
	}
	return srvs
}

// eachShard is the loop a deployment runs to start or stop its shards:
// eachShard(srvs, (*Server).Start).
func eachShard(srvs []*Server, f func(*Server)) {
	for _, s := range srvs {
		f(s)
	}
}

// sumMetrics folds every shard's snapshot into one, as rtdbd's report does.
func sumMetrics(srvs []*Server) (m MetricsSnapshot) {
	for _, s := range srvs {
		m.Add(s.MetricsSnapshot())
	}
	return m
}

// ownerSession is the placement a client computes: session i of the shard
// rtwire.ShardOf names for obj.
func ownerSession(srvs []*Server, obj string, i int) *Session {
	return srvs[rtwire.ShardOf(obj, len(srvs))].Session(i)
}

// flushShards flushes every session of every shard — between them, what the
// deployment's clients do with one Flush per connection.
func flushShards(t testing.TB, srvs []*Server) {
	t.Helper()
	for _, s := range srvs {
		for j := 0; j < s.Sessions(); j++ {
			if err := s.Session(j).Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardPlacement pins the spec split: every image lands on exactly the
// shard rtwire.ShardOf names, invariants exist everywhere, and the derived
// object rides with its image source.
func TestShardPlacement(t *testing.T) {
	const shards = 8
	srvs := newShards(t, shardedSpecConfig(16), shards, nil)
	if len(srvs) != shards {
		t.Fatalf("NewShards built %d servers", len(srvs))
	}
	for _, o := range shardObjects(16) {
		want := rtwire.ShardOf(o, shards)
		for i := 0; i < shards; i++ {
			_, ok := srvs[i].DB().Image(o)
			if ok != (i == want) {
				t.Fatalf("image %q on shard %d: present=%v, want shard %d only", o, i, ok, want)
			}
		}
	}
	statusShard := rtwire.ShardOf(shardObjects(16)[3], shards)
	for i := 0; i < shards; i++ {
		_, ok := srvs[i].DB().Derived("status")
		if ok != (i == statusShard) {
			t.Fatalf("derived status on shard %d: present=%v, want shard %d only", i, ok, statusShard)
		}
	}
}

// TestShardSplitRejectsSpanningDerived: NewShards refuses, at construction,
// every input it cannot split faithfully — a derived object whose image
// sources hash to different shards (not silently mis-derived at run time),
// one that reads an undeclared source, and a log count that is not the shard
// count — and accepts the spanning spec at one shard, where everything is
// co-located.
func TestShardSplitRejectsSpanningDerived(t *testing.T) {
	spec := func(sources ...string) Config {
		return Config{Spec: rtdb.Spec{
			Images: []*rtdb.ImageObject{{Name: "temp", Period: 5}, {Name: "pressure", Period: 5}},
			Derived: []*rtdb.DerivedObject{{
				Name: "span", Sources: sources,
				Derive: func(map[string]rtdb.Value) rtdb.Value { return "" },
			}},
		}}
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		shards  int
		logs    []*wal.Log
		wantErr string // "" accepts
	}{
		// temp→shard 0 and pressure→shard 4 at 8 shards (pinned by the rtwire
		// golden routing test).
		{"spanning derived", spec("temp", "pressure"), 8, nil, "reads sources on shards 0 and 4"},
		{"one shard co-locates", spec("temp", "pressure"), 1, nil, ""},
		{"unknown source", spec("temp", "humidity"), 8, nil, `reads unknown source "humidity"`},
		{"logs per shard", spec("temp"), 4, make([]*wal.Log, 2), "2 logs for 4 shards"},
	} {
		_, err := NewShards(tc.cfg, tc.shards, tc.logs)
		if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestShardSingleByteIdentical is the degrade guarantee: the same driver
// sequence against New(cfg) and NewShards(cfg, 1, logs)[0] must leave
// byte-identical WAL directories — a one-way split is that one Server,
// adding no events, no reordering, no timestamp drift.
func TestShardSingleByteIdentical(t *testing.T) {
	dirRaw := filepath.Join(t.TempDir(), "wal-raw")
	dirSharded := filepath.Join(t.TempDir(), "wal-sharded")
	opt := wal.Options{SegmentSize: 4096, SnapshotEvery: 32}

	drive := func(c interface {
		InjectSample(image, value string) error
		Query(QueryRequest) (Response, error)
		Flush() error
	}, tick func(uint64) error) {
		for i := 0; i < 200; i++ {
			obj := shardObjects(16)[i%16]
			if err := c.InjectSample(obj, strconv.Itoa(i%100)); err != nil {
				t.Fatal(err)
			}
			// Flush before each query/tick: a raw server stamps a query's
			// issue with the clock at submit time, which races against how
			// far the apply loop got through the queued samples — quiescing
			// first makes both runs' issue stamps (and so the WAL bytes)
			// deterministic.
			if i%7 == 0 {
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Query(QueryRequest{
					Query: "q-" + obj, Kind: deadline.Firm, Deadline: 10, MinUseful: 1,
				}); err != nil {
					t.Fatal(err)
				}
			}
			if i%31 == 0 {
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := tick(3); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Raw single server.
	{
		o := opt
		o.Dir = dirRaw
		l, err := wal.Open(o)
		if err != nil {
			t.Fatal(err)
		}
		cfg := shardedSpecConfig(16)
		cfg.Log = l
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RegisterPeriodic(PeriodicQuery{
			Name: "watch", Query: "status_q", Period: 16,
			Kind: deadline.Firm, Deadline: 8, MinUseful: 1,
		}); err != nil {
			t.Fatal(err)
		}
		s.Start()
		drive(s.Session(0), s.Tick)
		s.Stop()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The one shard of a one-way split over the same driver.
	{
		logs := openShardLogs(t, dirSharded, 1, opt)
		s := newShards(t, shardedSpecConfig(16), 1, logs)[0]
		if err := s.RegisterPeriodic(PeriodicQuery{
			Name: "watch", Query: "status_q", Period: 16,
			Kind: deadline.Firm, Deadline: 8, MinUseful: 1,
		}); err != nil {
			t.Fatal(err)
		}
		s.Start()
		drive(s.Session(0), s.Tick)
		s.Stop()
		closeLogs(t, logs)
	}

	rawFiles, err := os.ReadDir(dirRaw)
	if err != nil {
		t.Fatal(err)
	}
	shardedFiles, err := os.ReadDir(dirSharded)
	if err != nil {
		t.Fatal(err)
	}
	if len(rawFiles) != len(shardedFiles) {
		t.Fatalf("file counts differ: raw %d, sharded %d", len(rawFiles), len(shardedFiles))
	}
	for i, rf := range rawFiles {
		sf := shardedFiles[i]
		if rf.Name() != sf.Name() {
			t.Fatalf("file %d: %q vs %q", i, rf.Name(), sf.Name())
		}
		a, err := os.ReadFile(filepath.Join(dirRaw, rf.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirSharded, sf.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("WAL file %q differs between raw and sharded(1) runs (%d vs %d bytes)", rf.Name(), len(a), len(b))
		}
	}
}

// TestShardMetricsAggregate: the merged snapshot sums the per-shard blocks
// and the conservation laws hold on the sum exactly as they do per shard.
func TestShardMetricsAggregate(t *testing.T) {
	srvs := newShards(t, shardedSpecConfig(64), 4, nil)
	eachShard(srvs, (*Server).Start)
	defer eachShard(srvs, (*Server).Stop)
	objs := shardObjects(64)
	for i := 0; i < 128; i++ {
		c := ownerSession(srvs, objs[i%64], 0)
		if err := c.InjectSample(objs[i%64], strconv.Itoa(i%100)); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if _, err := c.Query(QueryRequest{
				Query: "q-" + objs[i%64], Kind: deadline.Firm, Deadline: 12, MinUseful: 1,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	flushShards(t, srvs)
	m := sumMetrics(srvs)
	if m.SamplesApplied != 128 {
		t.Fatalf("merged SamplesApplied = %d, want 128", m.SamplesApplied)
	}
	if m.QueriesIn != 32 {
		t.Fatalf("merged queries_in = %d, want 32", m.QueriesIn)
	}
	booksClose(t, "merged", m)
	var perShard uint64
	shardsWithSamples := 0
	for i, s := range srvs {
		sm := s.Metrics.Snapshot()
		booksClose(t, fmt.Sprintf("shard %d", i), sm)
		perShard += sm.SamplesApplied
		if sm.SamplesApplied > 0 {
			shardsWithSamples++
		}
	}
	if perShard != m.SamplesApplied {
		t.Fatalf("per-shard sum %d != merged %d", perShard, m.SamplesApplied)
	}
	if shardsWithSamples != 4 {
		t.Fatalf("only %d of 4 shards saw samples (routing collapsed?)", shardsWithSamples)
	}
}

// TestShardAmortizedCostGate is the deterministic form of the sharded
// throughput claim: on an op clock where one fsync costs 144µs and one
// write 2µs (measured ratios from the group-commit suite), the most loaded
// of 8 shards must carry at most a third of the total I/O cost — the
// wall-clock speedup of overlapping per-shard fsync pipelines is then ≥3×
// by construction, with no timer flake. What this actually gates is the
// placement: a skewed or collapsed ShardOf re-serializes the keyspace behind
// one apply loop and the max shard's share rises toward the total.
func TestShardAmortizedCostGate(t *testing.T) {
	const (
		shards    = 8
		samples   = 1024
		syncCost  = 144_000 // ns per fsync, measured ratio vs write below
		writeCost = 2_000   // ns per write
	)
	mems := make([]*faultfs.Mem, shards)
	logs := make([]*wal.Log, shards)
	for i := range logs {
		mems[i] = faultfs.NewMem(uint64(i + 1))
		l, err := wal.Open(wal.Options{
			Dir: ShardDir("wal", i, shards), FS: mems[i],
			SegmentSize: 1 << 20, Sync: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l
	}
	srvs := newShards(t, shardedSpecConfig(64), shards, logs)
	// Baseline op counts after recovery/catalog installation.
	w0 := make([]uint64, shards)
	s0 := make([]uint64, shards)
	for i, m := range mems {
		w0[i], s0[i] = m.Writes(), m.Syncs()
	}
	eachShard(srvs, (*Server).Start)
	objs := shardObjects(64)
	for i := 0; i < samples; i++ {
		c := ownerSession(srvs, objs[i%len(objs)], 0)
		for {
			err := c.InjectSample(objs[i%len(objs)], strconv.Itoa(i%100))
			if err == nil {
				break
			}
			if err != ErrBackpressure {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	flushShards(t, srvs)
	eachShard(srvs, (*Server).Stop)
	closeLogs(t, logs)

	var total, max uint64
	for i, m := range mems {
		cost := (m.Writes()-w0[i])*writeCost + (m.Syncs()-s0[i])*syncCost
		total += cost
		if cost > max {
			max = cost
		}
		t.Logf("shard %d: writes=%d syncs=%d cost=%dns", i, m.Writes()-w0[i], m.Syncs()-s0[i], cost)
	}
	if max == 0 || total == 0 {
		t.Fatal("no I/O recorded")
	}
	if speedup := float64(total) / float64(max); speedup < 3 {
		t.Fatalf("deterministic shard speedup %.2fx < 3x (max shard cost %d of %d total: skewed routing or serialized apply)",
			speedup, max, total)
	}
}

// TestShardRecovery: stop a sharded deployment, reopen the per-shard logs,
// and rebuild — every object's history survives on its own shard and no
// shard's clock resumes past where that shard stopped.
func TestShardRecovery(t *testing.T) {
	base := filepath.Join(t.TempDir(), "wal")
	opt := wal.Options{SegmentSize: 4096, SnapshotEvery: 16}
	cfg := shardedSpecConfig(16)
	objs := shardObjects(16)

	logs := openShardLogs(t, base, 4, opt)
	srvs := newShards(t, cfg, 4, logs)
	eachShard(srvs, (*Server).Start)
	for i := 0; i < 64; i++ {
		if err := ownerSession(srvs, objs[i%16], 0).InjectSample(objs[i%16], strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	flushShards(t, srvs)
	eachShard(srvs, (*Server).Stop)
	closeLogs(t, logs)

	logs2 := openShardLogs(t, base, 4, opt)
	srvs2 := newShards(t, cfg, 4, logs2)
	eachShard(srvs2, (*Server).Start)
	defer func() {
		eachShard(srvs2, (*Server).Stop)
		closeLogs(t, logs2)
	}()
	for i, s := range srvs2 {
		if now, was := s.Now(), srvs[i].Now(); now > was {
			t.Fatalf("shard %d: recovered clock %d beyond its stopped clock %d", i, now, was)
		}
	}
	flushShards(t, srvs2)
	for i := 48; i < 64; i++ { // the newest write to each object
		obj := objs[i%16]
		sh := srvs2[rtwire.ShardOf(obj, 4)]
		h := sh.HistoryHorizon() // each owner's own horizon: there is no cross-shard cut
		v, ok := sh.ValueAsOf(obj, h)
		if !ok || v != strconv.Itoa(i) {
			t.Fatalf("recovered %s as of %d = %q, %v; want %q", obj, h, v, ok, strconv.Itoa(i))
		}
	}
}
