package netserve

import (
	"fmt"
	"testing"
	"time"

	"rtc/internal/faultnet"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// startFabricNet stands up the test server behind a faultnet listener so
// the suite can damage the byte streams between a real client and the
// wire layer deterministically.
func startFabricNet(t *testing.T, fab *faultnet.Fabric, addr string, opt Options) (*server.Server, *Server) {
	t.Helper()
	cfg := testConfig()
	cfg.Sessions = 4
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ns := New(s, opt)
	ln, err := fab.Listen(addr)
	if err != nil {
		s.Stop()
		t.Fatal(err)
	}
	go func() { _ = ns.Serve(ln) }()
	t.Cleanup(func() {
		_ = ns.Close()
		s.Stop()
	})
	return s, ns
}

// fabricClient dials through the fabric with torture-scaled timeouts. hb
// < 0 turns off the client's beacons and its reads' silence bound (for
// tests that need a quiet wire between arm and fire).
func fabricClient(t *testing.T, fab *faultnet.Fabric, label, addr string, hb time.Duration) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, client.Options{
		Name: label, Dialer: fab.Dialer(label),
		DialTimeout: 500 * time.Millisecond, CallTimeout: 2 * time.Second,
		WriteTimeout:  500 * time.Millisecond,
		RetryAttempts: 6, RetryBackoff: time.Millisecond,
		RetryBackoffMax:   10 * time.Millisecond,
		HeartbeatInterval: hb, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestCorruptedFrameInboundCountedAndReset: a sample frame whose bytes are
// damaged on the wire must never be decoded — the CRC (or framing) catches
// it, the corrupt_frames counter records it, and the connection resets so
// the desynced stream cannot poison later frames. The client then recovers
// on a fresh connection.
func TestCorruptedFrameInboundCountedAndReset(t *testing.T) {
	fab := faultnet.NewFabric(21)
	defer fab.Close()
	_, ns := startFabricNet(t, fab, "srv:1", Options{})
	c := fabricClient(t, fab, "corrupter", "srv:1", -1)

	if err := c.InjectSample("temp", "21"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// Arm on the very next fabric write: the client's next sample frame
	// takes a seeded byte flip on its way in.
	fab.ArmAt(fab.Ops()+1, faultnet.Fault{Kind: faultnet.FaultCorrupt})
	if err := c.InjectSample("temp", "23"); err != nil {
		t.Fatal(err)
	}

	dl := time.Now().Add(5 * time.Second)
	for ns.Wire.CorruptFrames.Load() == 0 {
		if time.Now().After(dl) {
			t.Fatalf("corrupt frame never counted (decode errors %d)", ns.Wire.DecodeErrors.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if ns.Wire.DecodeErrors.Load() == 0 {
		t.Error("corrupt frame not folded into decode_errors")
	}
	// The damaged frame was never decoded as a sample.
	if got := ns.Wire.SamplesIn.Load(); got != 1 {
		t.Errorf("damaged sample decoded anyway: wire SamplesIn = %d, want 1", got)
	}
	// The connection was reset, not kept on a desynced stream.
	for ns.Wire.ConnsClosed.Load() == 0 {
		if time.Now().After(dl) {
			t.Fatal("damaged connection never reset")
		}
		time.Sleep(time.Millisecond)
	}

	// Recovery: a fresh connection carries traffic again.
	var err error
	for i := 0; i < 200; i++ {
		if err = c.InjectSample("temp", "25"); err == nil {
			if err = c.Flush(); err == nil {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("client never recovered after the reset: %v", err)
	}
	if c.Stats.Redials.Load() == 0 {
		t.Error("no redial recorded after the server reset the damaged connection")
	}
	r, err := c.Query(client.Query{Query: "temp_q", Candidate: "25"})
	if err != nil || !r.Match {
		t.Fatalf("post-recovery query: match=%v err=%v", r.Match, err)
	}
}

// TestCorruptedFrameOutboundCountedAndRotated: byte damage in the other
// direction — a server response corrupted in flight — must hit the client's
// framing checks, count into Stats.CorruptFrames, and rotate the
// connection; the in-flight query retries on the fresh connection and
// still succeeds.
func TestCorruptedFrameOutboundCountedAndRotated(t *testing.T) {
	fab := faultnet.NewFabric(22)
	defer fab.Close()
	startFabricNet(t, fab, "srv:1", Options{})
	c := fabricClient(t, fab, "victim", "srv:1", -1)

	if err := c.InjectSample("temp", "25"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// The wire is quiet: op+1 is the client's query frame, op+2 the
	// server's result — arm the flip for the response.
	fab.ArmAt(fab.Ops()+2, faultnet.Fault{Kind: faultnet.FaultCorrupt})
	r, err := c.Query(client.Query{Query: "temp_q", Candidate: "25"})
	if err != nil {
		t.Fatalf("query through a corrupted result never recovered: %v", err)
	}
	if !r.Match {
		t.Fatalf("post-rotate query result: %+v", r)
	}
	if fired, _ := fab.Fired(); !fired {
		t.Fatal("armed corruption never fired")
	}
	if c.Stats.CorruptFrames.Load() == 0 {
		t.Fatal("client never counted the damaged inbound frame")
	}
	if c.Stats.Redials.Load() == 0 {
		t.Error("client kept reading a desynced connection instead of rotating")
	}
}

// TestDropSpanResetsCoalescedWrite: a client that batches its sends puts
// "Sample, Sample, Flush" in one socket write. A drop fault narrowed to the
// frame header (Span: rtwire.HeaderSize, as the partition sweep arms it)
// must desync that write inside its first header on every seed: the server
// counts the corrupt frame, decodes none of the three, never acks the Flush
// and resets the connection — it cannot lose a sample behind an acked Flush.
// (faultnet's TestDropSpan shows the unbounded draw doing exactly that.)
func TestDropSpanResetsCoalescedWrite(t *testing.T) {
	write := rtwire.Sample{ID: 1, Image: "temp", Value: "21"}.AppendTo(nil)
	write = rtwire.Sample{ID: 2, Image: "temp", Value: "22"}.AppendTo(write)
	write = rtwire.Flush{ID: 3}.AppendTo(write)
	for seed := uint64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			fab := faultnet.NewFabric(seed)
			defer fab.Close()
			_, ns := startFabricNet(t, fab, "srv:1", Options{})
			nc, err := fab.Dialer("batcher").DialTimeout("tcp", "srv:1", time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			rc := &rawConn{t: t, nc: nc}
			rc.handshake()
			fab.ArmAt(fab.Ops()+1, faultnet.Fault{Kind: faultnet.FaultDrop, Span: rtwire.HeaderSize})
			rc.write(write)
			// The server's only answer is its drain Bye, then the close.
			if _, ok := rc.read().(rtwire.Bye); !ok {
				t.Fatal("the damaged write was answered with something other than the reset")
			}
			if _, err := rtwire.ReadFrame(nc); err == nil {
				t.Fatal("the connection stayed up on a desynced stream")
			}
			w := ns.Wire.Snapshot()
			if w.CorruptFrames != 1 || w.SamplesIn != 0 {
				t.Fatalf("corrupt_frames %d samples_in %d, want 1 and 0", w.CorruptFrames, w.SamplesIn)
			}
		})
	}
}
