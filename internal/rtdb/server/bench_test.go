package server

import (
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"rtc/internal/deadline"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/timeseq"
)

func benchServer(b *testing.B, sessions int, log *wal.Log) *Server {
	b.Helper()
	cfg := testConfig()
	cfg.Sessions = sessions
	cfg.QueueDepth = benchQueueDepth
	cfg.Log = log
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	b.Cleanup(s.Stop)
	return s
}

// benchQueueDepth is the session queue bound every benchmark server runs with.
const benchQueueDepth = 256

// injectSamples is the body of the sample-path benchmarks: b.N samples fed
// the way a real feeder (and rtbench's server.sample_ns_per_op) feeds them,
// in batches of half the queue depth each closed by a Flush, so the queue
// never fills and ns/op is the cost of a sample through the session queue,
// the apply loop and (with a log) the WAL — not of one caller spin-retrying
// on ErrBackpressure against a full queue, which is what these benchmarks
// used to time.
func injectSamples(b *testing.B, c *Session) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if err := c.InjectSample("temp", "21"); err != nil {
			b.Fatal(err)
		}
		if i%(benchQueueDepth/2) == 0 || i == b.N {
			if err := c.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkInjectSample(b *testing.B) {
	injectSamples(b, benchServer(b, 1, nil).Session(0))
}

func BenchmarkInjectSampleWAL(b *testing.B) {
	l, err := wal.Open(wal.Options{Dir: filepath.Join(b.TempDir(), "wal"), SegmentSize: 1 << 22})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	injectSamples(b, benchServer(b, 1, l).Session(0))
}

func BenchmarkQueryFirm(b *testing.B) {
	s := benchServer(b, 1, nil)
	c := s.Session(0)
	if err := c.InjectSample("temp", "21"); err != nil {
		b.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	req := QueryRequest{Query: "status_q", Candidate: "ok",
		Kind: deadline.Firm, Deadline: 1 << 40, MinUseful: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConcurrentSessions(b *testing.B) {
	s := benchServer(b, 16, nil)
	var next atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		c := s.Session(int(next.Add(1)-1) % 16)
		i := 0
		for pb.Next() {
			if i%4 == 3 {
				_, _ = c.Query(QueryRequest{Query: "temp_q"})
			} else {
				_ = c.InjectSample("temp", strconv.Itoa(15+i%15))
			}
			i++
		}
	})
}

// agedServer builds an unstarted server over an n-image catalog whose temp
// image already holds `age` samples, injected directly through the database
// (the apply loop is bypassed so aging a million chronons takes
// milliseconds, not minutes). The clock sits at chronon age-1 with a fresh
// snapshot published.
func agedServer(b *testing.B, images, age int) *Server {
	b.Helper()
	s, err := New(wideConfig(images))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < age; i++ {
		t := timeseq.Time(i)
		s.sched.RunUntil(t)
		if err := s.db.InjectSample("temp", "v"+strconv.Itoa(i&1023)); err != nil {
			b.Fatal(err)
		}
		s.advance(t)
	}
	s.publishSnapshot()
	return s
}

// BenchmarkPublishAtAge measures one publish with a one-sample delta at
// three server ages, and at the youngest age over a 65-image catalog. The
// per-publish cost must stay flat as the history grows — publish is
// O(#images), never O(total history) — and its allocations flat as the
// catalog grows.
func BenchmarkPublishAtAge(b *testing.B) {
	for _, bc := range []struct {
		name        string
		images, age int
	}{{"1k", 1, 1_000}, {"100k", 1, 100_000}, {"1M", 1, 1_000_000}, {"65images", 65, 1_000}} {
		b.Run(bc.name, func(b *testing.B) {
			s := agedServer(b, bc.images, bc.age)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := timeseq.Time(bc.age + i)
				s.sched.RunUntil(t)
				if err := s.db.InjectSample("temp", "w"); err != nil {
					b.Fatal(err)
				}
				s.advance(t)
				s.publishSnapshot()
			}
		})
	}
}

// BenchmarkQueryAtAge measures catalog-query evaluation (the serveQuery
// read path: cached view + binary-searched Latest) at three server ages.
func BenchmarkQueryAtAge(b *testing.B) {
	for _, bc := range []struct {
		name string
		age  int
	}{{"1k", 1_000}, {"100k", 100_000}, {"1M", 1_000_000}} {
		b.Run(bc.name, func(b *testing.B) {
			s := agedServer(b, 1, bc.age)
			q := s.cfg.Catalog["temp_q"]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ans := q(s.db.ViewNow()); len(ans) != 1 {
					b.Fatalf("answers = %v", ans)
				}
			}
		})
	}
}

func BenchmarkAsOfRead(b *testing.B) {
	cfg := testConfig()
	cfg.SnapshotEvery = 1
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	b.Cleanup(s.Stop)
	c := s.Session(0)
	for i := 0; i < 64; i++ {
		if err := c.InjectSample("temp", "v"+strconv.Itoa(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	h := s.HistoryHorizon()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.ValueAsOf("temp", h/2); !ok {
			b.Fatal("missing value")
		}
	}
}

// BenchmarkFirstInjectAfterRecovery measures the work copy-on-append moves
// out of recovery: one op recovers a 200k-sample log over 64 images — the
// shape of rtbench's recover_replay fixture — outside the timer, then
// injects the first sample after recovery into every image, then a second.
// The database adopts each recovered history with no spare capacity, so the
// first append to an image copies its history once, as append does at each
// capacity doubling. ns/first-inject and ns/next-inject are per image.
func BenchmarkFirstInjectAfterRecovery(b *testing.B) {
	const images, samples = 64, 200_000
	opts := wal.Options{Dir: filepath.Join(b.TempDir(), "wal"), SegmentSize: 64 << 20, SnapshotEvery: 65536}
	l, err := wal.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, images)
	for i := range names {
		names[i] = "sensor-" + strconv.Itoa(i)
		if err := l.Append(wal.Image(names[i], 5)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < samples; i++ {
		if err := l.Append(wal.Sample(timeseq.Time(i/8), names[i*7%images], strconv.Itoa(i%100))); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	var first, next time.Duration
	inject := func(s *Server, at timeseq.Time) time.Duration {
		t0 := time.Now()
		s.sched.RunUntil(at)
		for _, n := range names {
			if err := s.db.InjectSample(n, "v"); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(t0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l, err := wal.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		cfg := testConfig()
		cfg.Log = l
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		at := l.State().LastAt + 1
		b.StartTimer()
		first += inject(s, at)
		next += inject(s, at+1)
		b.StopTimer()
		l.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(first.Nanoseconds())/float64(b.N*images), "ns/first-inject")
	b.ReportMetric(float64(next.Nanoseconds())/float64(b.N*images), "ns/next-inject")
}
