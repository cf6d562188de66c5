package netserve

import (
	"net"
	"strconv"
	"testing"
	"time"

	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

func statusDerive(src map[string]rtdb.Value) rtdb.Value {
	t, _ := strconv.Atoi(src["temp"])
	l, _ := strconv.Atoi(src["limit"])
	if t > l {
		return "high"
	}
	return "ok"
}

func testConfig() server.Config {
	return server.Config{
		Spec: rtdb.Spec{
			Invariants: map[string]rtdb.Value{"limit": "22"},
			Derived: []*rtdb.DerivedObject{{
				Name: "status", Sources: []string{"temp", "limit"}, Derive: statusDerive,
			}},
			Images: []*rtdb.ImageObject{{Name: "temp", Period: 5}},
		},
		Catalog: rtdb.Catalog{
			"status_q": func(v *rtdb.View) []rtdb.Value {
				if s, ok := v.DeriveNow("status"); ok {
					return []rtdb.Value{s}
				}
				return nil
			},
			"temp_q": func(v *rtdb.View) []rtdb.Value {
				if s, ok := v.Latest("temp"); ok {
					return []rtdb.Value{s.Value}
				}
				return nil
			},
		},
		Registry: rtdb.DeriveRegistry{"status": statusDerive},
	}
}

// startNet stands up a started rtdb server behind ln (nil: a loopback port)
// and tears both down (listener first, then server — the documented order).
func startNet(t testing.TB, cfg server.Config, opt Options, ln net.Listener) (*server.Server, *Server, string) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if ln == nil {
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	ns := New(s, opt)
	go func() { _ = ns.Serve(ln) }()
	t.Cleanup(func() {
		_ = ns.Close()
		s.Stop()
	})
	return s, ns, ln.Addr().String()
}

// checkBooks asserts that s closes every book at quiesce (server.Books),
// and ns, when given, its own (Books): the wire layer must not break one.
func checkBooks(t *testing.T, s *server.Server, ns ...*Server) {
	t.Helper()
	books, rows := server.Books(), [][]rtwire.MetricPair{s.Metrics.Snapshot().Pairs()}
	for _, n := range ns {
		books, rows = append(books, Books()...), append(rows, n.Wire.Snapshot().Pairs())
	}
	if _, err := server.Audit("", books, rows...); err != nil {
		t.Error(err)
	}
}

// rawConn is a frame-level test client: it lets the suite hand-craft wire
// images (exact Elapsed values, out-of-order kinds) that the client
// package would never produce.
type rawConn struct {
	t  *testing.T
	nc net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc}
}

func (r *rawConn) write(frame []byte) {
	r.t.Helper()
	_ = r.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.nc.Write(frame); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawConn) read() any {
	r.t.Helper()
	_ = r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := rtwire.ReadFrame(r.nc)
	if err != nil {
		r.t.Fatal(err)
	}
	msg, err := rtwire.Decode(f)
	if err != nil {
		r.t.Fatal(err)
	}
	return msg
}

func (r *rawConn) handshake() rtwire.Welcome {
	r.t.Helper()
	r.write(rtwire.Hello{Client: "raw"}.Encode())
	w, ok := r.read().(rtwire.Welcome)
	if !ok {
		r.t.Fatal("no welcome")
	}
	return w
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

// TestAsOfReplyIsOneSnapshot: an AsOf reply's value and horizon come from
// one published snapshot. A writer ticks the clock, publishing every
// chronon, while a reader asks 10 000 times for temp one chronon past the
// last horizon it was told. temp holds a sample from chronon 0 on, so a
// reply whose horizon covers the instant asked must answer it, and one
// whose horizon does not must not.
func TestAsOfReplyIsOneSnapshot(t *testing.T) {
	cfg := testConfig()
	cfg.SnapshotEvery = 1
	s, _, addr := startNet(t, cfg, Options{}, nil)
	if err := s.Session(0).InjectSample("temp", "21"); err != nil {
		t.Fatal(err)
	}
	if err := s.Session(0).Flush(); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr, client.Options{Name: "asof"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := s.Tick(1); err != nil {
				done <- err
				return
			}
		}
	}()
	var horizon timeseq.Time
	for i := 0; i < 10_000; i++ {
		at := horizon + 1
		v, ok, h, err := c.AsOf("temp", at)
		if err != nil {
			t.Fatal(err)
		}
		if (at <= h) != (ok && v == "21") {
			t.Fatalf("AsOf(temp, %d) = %q, ok %v under horizon %d", at, v, ok, h)
		}
		horizon = h
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
