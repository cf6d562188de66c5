package netserve

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultnet"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/server"
)

// benchNet stands up a loopback server with nConns pre-dialed clients, so
// the benchmark loop measures the serving path (frame codec, write queue,
// session, apply loop) and not dial/handshake cost.
func benchNet(b *testing.B, nConns int) (*server.Server, []*client.Client) {
	b.Helper()
	cfg := testConfig()
	cfg.Sessions = nConns
	cfg.QueueDepth = 256
	s, _, addr := startNet(b, cfg, Options{WriteQueue: 256, MaxInflight: 64}, nil)
	conns := make([]*client.Client, nConns)
	for i := range conns {
		c, err := client.Dial(addr, client.Options{Name: fmt.Sprintf("bench-%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		conns[i] = c
	}
	// Seed one sample so queries have data to answer from.
	if err := conns[0].InjectSample("temp", "21"); err != nil {
		b.Fatal(err)
	}
	if err := conns[0].Flush(); err != nil {
		b.Fatal(err)
	}
	return s, conns
}

// BenchmarkNetQuery measures firm-deadline query round trips over loopback
// TCP across 4 client connections (the acceptance-criteria shape).
func BenchmarkNetQuery(b *testing.B) {
	_, conns := benchNet(b, 4)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := conns[next.Add(1)%uint64(len(conns))]
		for pb.Next() {
			r, err := c.Query(client.Query{
				Query: "status_q", Candidate: "ok",
				Kind: deadline.Firm, Deadline: 1 << 30, MinUseful: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !r.Evaluated {
				b.Fatal("query not evaluated")
			}
		}
	})
}

// BenchmarkNetSample measures fire-and-forget sample injection over one
// connection, flushing at the end so every sample is applied.
func BenchmarkNetSample(b *testing.B) {
	_, conns := benchNet(b, 1)
	c := conns[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.InjectSample("temp", "21"); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}

// writeCounter dials real TCP and counts the socket writes of every
// connection it makes.
type writeCounter struct{ writes atomic.Int64 }

type writeCountedConn struct {
	net.Conn
	n *atomic.Int64
}

func (d *writeCounter) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	nc, err := faultnet.OS{}.DialTimeout(network, address, timeout)
	if err != nil {
		return nil, err
	}
	return writeCountedConn{nc, &d.writes}, nil
}

func (c writeCountedConn) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(p)
}

// BenchmarkClientIngest is the client half of the write path over loopback
// TCP, no WAL: one op is a burst of 64 InjectSample and the Flush that acks
// them — the microbenchmark twin of rtbench's wire_ingest_wal op. Beside
// ns/op and allocs/op (client and in-process server together) it reports
// ns/sample and the client's socket writes per op: 65 when every frame was
// its own write, a handful when the burst leaves with the connection's flush.
func BenchmarkClientIngest(b *testing.B) {
	cfg := testConfig()
	cfg.Sessions = 1
	cfg.QueueDepth = 256 // the whole burst fits: nothing bounces
	_, _, addr := startNet(b, cfg, Options{}, nil)
	d := &writeCounter{}
	c, err := client.Dial(addr, client.Options{Name: "ingest", Dialer: d})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	op := func() {
		for i := 0; i < 64; i++ {
			if err := c.InjectSample("temp", "21"); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	op() // buffers grown
	b.ReportAllocs()
	b.ResetTimer()
	start := d.writes.Load()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/64, "ns/sample")
	b.ReportMetric(float64(d.writes.Load()-start)/float64(b.N), "socket-writes/op")
}

// BenchmarkNetFanout is the push path over loopback TCP: 32 standing queries
// of one evaluation group on ONE connection, ticks driven from a second.
// One op is one delivered push (ns and allocs per push, server and client
// together) — the microbenchmark twin of rtbench's sub_fanout workload.
func BenchmarkNetFanout(b *testing.B) {
	b.Run("32subs", func(b *testing.B) {
		srv, conns := benchNet(b, 2)
		feeder, subConn := conns[0], conns[1]
		var received atomic.Uint64
		arrived := make(chan struct{}, 1)
		for i := 0; i < 32; i++ {
			sub, err := subConn.Subscribe(client.SubSpec{
				Query: "status_q", Period: 4, Kind: deadline.Soft,
				Deadline: 1 << 20, MinUseful: 1, Depth: 64, Buffer: 256,
			})
			if err != nil {
				b.Fatal(err)
			}
			go func() { // ends when the client closes the subscription
				for range sub.Pushes() {
					received.Add(1)
					select {
					case arrived <- struct{}{}:
					default:
					}
				}
			}()
		}
		// round feeds about two ticks' worth of samples and waits until
		// every push they matured is delivered, so no queue overflows.
		round := func() {
			for i := 0; i < 8; i++ {
				if err := feeder.InjectSample("temp", "21"); err != nil {
					b.Fatal(err)
				}
			}
			if err := feeder.Flush(); err != nil {
				b.Fatal(err)
			}
			for want := matured(srv); received.Load() < want; {
				<-arrived
			}
		}
		round() // first ticks, buffers grown
		b.ReportAllocs()
		b.ResetTimer()
		for start := received.Load(); received.Load()-start < uint64(b.N); {
			round()
		}
	})
}
