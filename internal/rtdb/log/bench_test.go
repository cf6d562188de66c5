package log

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtc/internal/rtdb"
	"rtc/internal/timeseq"
	"rtc/internal/vtime"
)

func BenchmarkCodecEncode(b *testing.B) {
	e := Sample(123456, "temp", "21.5")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeEvent(e)
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	frame := EncodeEvent(Sample(123456, "temp", "21.5"))
	payload := frame[frameHeaderSize:]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := DecodeEvent(payload); !ok {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	l, err := Open(Options{Dir: b.TempDir(), SegmentSize: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Image("temp", 5)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(Sample(0, "temp", "21.5")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendSync(b *testing.B) {
	l, err := Open(Options{Dir: b.TempDir(), SegmentSize: 64 << 20, Sync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Image("temp", 5)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(Sample(0, "temp", "21.5")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendGroupSync measures group commit under contention: W
// concurrent writers issue durable appends through a 200µs commit window,
// so one fsync is amortized over every writer that joined the batch. The
// per-op number is the amortized durable-append cost; compare against
// BenchmarkAppendSync (one fsync each) for the amortization factor.
func BenchmarkAppendGroupSync(b *testing.B) {
	for _, writers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("%dwriters", writers), func(b *testing.B) {
			l, err := Open(Options{
				Dir: b.TempDir(), SegmentSize: 64 << 20, Sync: true,
				GroupWindow: 200 * time.Microsecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			tk, err := l.AppendTicket(Image("temp", 5), true)
			if err != nil {
				b.Fatal(err)
			}
			if err := tk.Wait(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if err := l.Append(Sample(0, "temp", "21.5")); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

func BenchmarkReplay(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(Options{Dir: dir, SegmentSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range workload(5000) {
		if err := l.Append(e); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(Options{Dir: dir, SegmentSize: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		l.Close()
	}
}

// sensorLog appends n samples spread over 64 images — the shape of the
// rtbench recovery fixture — to a fresh log in dir.
func sensorLog(b *testing.B, opts Options, n int) *Log {
	l, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("sensor-%02d", i)
		if err := l.Append(Image(names[i], 5)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := l.Append(Sample(timeseq.Time(i/8), names[i*7%64], itoa(i%100))); err != nil {
			b.Fatal(err)
		}
	}
	return l
}

// BenchmarkOpen is cold recovery of a 200k-event directory with three
// snapshots: newest-snapshot load plus replay of the tail. Its ns/event is
// the root-module twin of rtbench's log.open_ns_per_event.
func BenchmarkOpen(b *testing.B) {
	const events = 200_000
	b.Run("200k", func(b *testing.B) {
		opts := Options{Dir: b.TempDir(), SnapshotEvery: 65536}
		if err := sensorLog(b, opts, events).Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l, err := Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			if l.Seq() != events+64 {
				b.Fatalf("recovered %d events", l.Seq())
			}
			l.Close()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/events, "ns/event")
	})
}

// BenchmarkRebuild is the step after BenchmarkOpen: the recovered 200k-event
// state of 64 images installed into a fresh database, as server.New and the
// standby mirror do it. Its ns/event is the root-module twin of rtbench's
// server.rebuild_ns_per_event.
func BenchmarkRebuild(b *testing.B) {
	const events = 200_000
	b.Run("200k", func(b *testing.B) {
		l := sensorLog(b, Options{Dir: b.TempDir(), SegmentSize: 64 << 20}, events)
		defer l.Close()
		st := l.State()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Rebuild(rtdb.New(vtime.New()), nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/events, "ns/event")
	})
}

// BenchmarkSnapshot is one snapshot of a 65k-event history, taken as the
// append path takes it: under the log mutex, with appends parked. It is the
// root-module twin of rtbench's log.snapshot_ms.
func BenchmarkSnapshot(b *testing.B) {
	b.Run("65k", func(b *testing.B) {
		l := sensorLog(b, Options{Dir: b.TempDir(), SegmentSize: 64 << 20}, 65536)
		defer l.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := l.Snapshot(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := l.Compact(); err != nil { // keep one snapshot file, not b.N
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/snapshot")
	})
}

// BenchmarkAppendDuringCatchup is the writer's view of a follower catching
// up: while one reader streams a 30k-event segment back in 64-event
// ReadFrom calls, over and over, the loop appends and times every Append
// itself — ns/op is a mean, and the stall this guards against (a reader
// holding the log's mutex for a whole-segment re-read) lives in the tail.
func BenchmarkAppendDuringCatchup(b *testing.B) {
	const behind = 30_000
	l := sensorLog(b, Options{Dir: b.TempDir(), SegmentSize: 64 << 20}, behind)
	defer l.Close()
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for pos := new(ReadPos); ; {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			events, err := l.ReadFrom(pos, 64)
			if err != nil {
				done <- err
				return
			}
			if len(events) == 0 || pos.Seq >= behind {
				pos = &ReadPos{} // caught up: the next follower starts over
			}
		}
	}()
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lat {
		t0 := time.Now()
		if err := l.Append(Sample(timeseq.Time(behind), "sensor-00", "21.5")); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(t0)
	}
	b.StopTimer()
	close(stop)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
	b.ReportMetric(float64(lat[len(lat)-1].Nanoseconds()), "max-ns")
}
