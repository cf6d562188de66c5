package server

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
)

// benchSharded builds an N-shard deployment over real per-shard WALs with
// per-append fsync — the configuration whose throughput sharding exists to
// multiply: each shard's fsync pipeline is an independent I/O wait, and N
// apply loops overlap them.
func benchSharded(b *testing.B, shards int, sync bool) ([]*Server, func()) {
	b.Helper()
	base := filepath.Join(b.TempDir(), "wal")
	logs := make([]*wal.Log, shards)
	for i := range logs {
		l, err := wal.Open(wal.Options{
			Dir:         ShardDir(base, i, shards),
			SegmentSize: 1 << 22,
			Sync:        sync,
		})
		if err != nil {
			b.Fatal(err)
		}
		logs[i] = l
	}
	cfg := shardedSpecConfig(64)
	cfg.Sessions = shards // one writer goroutine per shard
	cfg.QueueDepth = 1024
	srvs := newShards(b, cfg, shards, logs)
	eachShard(srvs, (*Server).Start)
	return srvs, func() {
		eachShard(srvs, (*Server).Stop)
		for _, l := range logs {
			_ = l.Close()
		}
	}
}

// BenchmarkShardedAppend measures durable-append throughput (fsync per
// append) at 1, 4, and 8 shards: b.N samples spread over a 64-object
// keyspace, driven by one writer goroutine per shard so every shard's
// fsync pipeline stays saturated. Backpressure yields the processor
// instead of spinning — on small machines a hot spin starves the apply
// loops of CPU between fsyncs and hides the overlap this benchmark
// exists to show.
//
// The speedup tracks how well the backing store overlaps concurrent
// fsync streams: on NVMe-class devices 8 independent WAL pipelines reach
// >=3x a single pipeline; on a virtio disk whose host serializes flushes
// the aggregate sync rate caps near 3x a single stream and the measured
// ratio lands around 2.5x. TestShardAmortizedCostGate pins the >=3x
// claim deterministically on an op clock, independent of the device.
func BenchmarkShardedAppend(b *testing.B) {
	objs := shardObjects(64)
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("%dshards", shards), func(b *testing.B) {
			// The point is I/O overlap, not CPU parallelism: on a 1-core
			// CI box the default GOMAXPROCS=1 parks every fsync in a
			// syscall-handoff stall (sysmon retake latency), measuring
			// the scheduler instead of the database.
			if runtime.GOMAXPROCS(0) < shards {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(shards))
			}
			srvs, done := benchSharded(b, shards, true)
			defer done()
			// Partition the keyspace by owner so each writer feeds
			// exactly one shard's queue.
			byShard := make([][]string, shards)
			for _, o := range objs {
				s := rtwire.ShardOf(o, shards)
				byShard[s] = append(byShard[s], o)
			}
			var issued atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for g := 0; g < shards; g++ {
				if len(byShard[g]) == 0 {
					continue
				}
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					c := srvs[g].Session(g)
					mine := byShard[g]
					for i := 0; ; i++ {
						if issued.Add(1) > int64(b.N) {
							return
						}
						obj := mine[i%len(mine)]
						for c.InjectSample(obj, "21") == ErrBackpressure {
							// The queue is deep; parking briefly keeps it
							// topped up without contending for the CPU the
							// apply loop needs between fsyncs.
							time.Sleep(200 * time.Microsecond)
						}
					}
				}(g)
			}
			wg.Wait()
			flushShards(b, srvs)
		})
	}
}
