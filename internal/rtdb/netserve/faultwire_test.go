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
	ln, err := fab.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Sessions = 4
	s, ns, _ := startNet(t, cfg, opt, ln)
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

// TestCorruptedFrameOutboundCountedAndRotated: a server response corrupted
// in flight must hit the client's framing checks, count into
// Stats.CorruptFrames, and rotate the connection; the in-flight query
// retries on the fresh connection and still succeeds.
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
