package server

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"rtc/internal/deadline"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// TestRaceShardHammer drives an 8-shard deployment from 32 concurrent
// writers, each placing its traffic on the owning shard as a client does,
// mixed with readers (as-of point reads at the owner's horizon, per-shard
// horizon probes, merged metric snapshots) while a drain goroutine
// repeatedly quiesces a single shard mid-run. Asserts, after every session
// is flushed: the cross-shard conservation law on the merged counters,
// per-shard conservation on every shard, a monotone horizon on every shard,
// and no goroutine leak across Stop. Run under -race via the race-shard
// make target.
func TestRaceShardHammer(t *testing.T) {
	const (
		shards   = 8
		writers  = 32
		opsEach  = 120
		nObjects = 48
	)
	before := runtime.NumGoroutine()

	base := filepath.Join(t.TempDir(), "wal")
	logs := openShardLogs(t, base, shards, wal.Options{SegmentSize: 1 << 16, SnapshotEvery: 8})
	cfg := shardedSpecConfig(nObjects)
	cfg.Sessions = writers
	cfg.QueueDepth = 8 // small: a sample may bounce, and is then counted rejected, never in
	srvs := newShards(t, cfg, shards, logs)
	statusShard := srvs[rtwire.ShardOf(shardObjects(nObjects)[3], shards)] // status's image source
	if err := statusShard.RegisterPeriodic(PeriodicQuery{
		Name: "watch", Query: "status_q", Period: 7,
		Kind: deadline.Firm, Deadline: 5, MinUseful: 1,
	}); err != nil {
		t.Fatal(err)
	}
	eachShard(srvs, (*Server).Start)

	objs := shardObjects(nObjects)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// The drain antagonist: pick one shard, tick it and put it through a
	// durability barrier, over and over — a sharded deployment must keep
	// serving the other seven lanes throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		victim := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			sh := srvs[victim%shards]
			_ = sh.Tick(1)
			_ = sh.Barrier()
			victim++
		}
	}()

	// Readers: no shard's horizon may ever regress, merged metrics must
	// always be coherent enough to snapshot (the law is asserted at
	// quiescence; here we just hammer the read paths).
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var last [shards]timeseq.Time
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				obj := objs[(r*13+i)%nObjects]
				k := rtwire.ShardOf(obj, shards)
				h := srvs[k].HistoryHorizon()
				if h < last[k] {
					t.Errorf("shard %d horizon regressed: %d -> %d", k, last[k], h)
					return
				}
				last[k] = h
				srvs[k].ValueAsOf(obj, h)
				_ = sumMetrics(srvs)
			}
		}(r)
	}

	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(id int) {
			defer writerWg.Done()
			for op := 0; op < opsEach; op++ {
				obj := objs[(id*7+op)%nObjects]
				c := ownerSession(srvs, obj, id)
				switch op % 4 {
				case 0, 1:
					_ = c.InjectSample(obj, strconv.Itoa((id+op)%100))
				case 2:
					_, _ = c.Query(QueryRequest{
						Query: "q-" + obj, Kind: deadline.Firm, Deadline: 20, MinUseful: 1,
					})
				case 3:
					_ = c.Flush()
				}
			}
		}(w)
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()

	flushShards(t, srvs)
	m := sumMetrics(srvs)
	booksClose(t, "merged", m)
	var perShardIn uint64
	for i, s := range srvs {
		sm := s.Metrics.Snapshot()
		booksClose(t, fmt.Sprintf("shard %d", i), sm)
		perShardIn += sm.QueriesIn
	}
	if perShardIn != m.QueriesIn {
		t.Fatalf("per-shard queries_in sum %d, merged %d", perShardIn, m.QueriesIn)
	}

	eachShard(srvs, (*Server).Stop)
	closeLogs(t, logs)

	// Goroutine-leak check: apply loops and parked durability waiters must
	// all exit with Stop. Allow the runtime a moment to reap.
	deadlineAt := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadlineAt) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after Stop\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRaceShardSingle runs the same hammer shape at one shard — the
// degrade path must be exactly as clean under -race as the full fan-out.
func TestRaceShardSingle(t *testing.T) {
	const writers = 16
	base := filepath.Join(t.TempDir(), "wal")
	logs := openShardLogs(t, base, 1, wal.Options{SegmentSize: 1 << 16})
	cfg := shardedSpecConfig(8)
	cfg.Sessions = writers
	cfg.QueueDepth = 8
	s := newShards(t, cfg, 1, logs)[0]
	s.Start()
	objs := shardObjects(8)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := s.Session(id)
			for op := 0; op < 60; op++ {
				obj := objs[(id+op)%len(objs)]
				if op%3 == 0 {
					_, _ = c.Query(QueryRequest{Query: "q-" + obj, Kind: deadline.Soft, Deadline: 9, MinUseful: 1, U: deadline.Hyperbolic(4, 9)})
				} else {
					_ = c.InjectSample(obj, strconv.Itoa(op))
				}
			}
			_ = c.Flush()
		}(w)
	}
	wg.Wait()
	flushShards(t, []*Server{s})
	booksClose(t, "after the writers", s.MetricsSnapshot())
	s.Stop()
	closeLogs(t, logs)
}
