package netserve

import (
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"rtc/internal/faultfs"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// senders counts the goroutines currently inside serveReplication.
func senders() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), ".(*conn).serveReplication(")
}

// caughtUpFollower stands up a WAL-backed primary listening with opt on mem,
// subscribes a raw follower from sequence 0, acks everything the catalog
// prologue shipped, and returns once the sender has nothing left to read —
// asleep on the log's Advanced channel, with no clock of its own to wake it.
func caughtUpFollower(t *testing.T, mem *faultfs.Mem, opt Options) (*wal.Log, *Server, *rawConn) {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: "wal", FS: mem, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	cfg := testConfig()
	cfg.Log, cfg.Sessions = l, 2 // room for the follower's next connection
	_, ns, addr := startNet(t, cfg, opt)
	rc := dialRaw(t, addr)
	rc.handshake()
	rc.write(rtwire.Subscribe{AfterSeq: 0, Follower: "raw"}.Encode())
	for seq := uint64(0); seq < l.Seq(); {
		msg := rc.read()
		b, ok := msg.(rtwire.WalBatch)
		if !ok {
			t.Fatalf("the sender shipped a %T; a silent follower is sent only WalBatch frames", msg)
		}
		if b.FirstSeq != seq+1 {
			t.Fatalf("batch starts at seq %d, want %d", b.FirstSeq, seq+1)
		}
		seq += uint64(len(b.Events))
		rc.write(rtwire.WalAck{Seq: seq}.Encode())
	}
	if n := senders(); n != 1 {
		t.Fatalf("%d replication senders running, want 1", n)
	}
	// The last ack is written, not yet booked: wait until the listener has
	// read it, so the follower is caught up in the registry too.
	for deadline := time.Now().Add(5 * time.Second); ns.ReplDurable() < l.Seq(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("watermark %d never reached the acked %d", ns.ReplDurable(), l.Seq())
		}
	}
	return l, ns, rc
}

// waitNoSenders fails the test if a sender is still running after 5 s.
func waitNoSenders(t *testing.T, why string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); senders() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: the caught-up sender is still asleep", why)
		}
	}
}

// TestCaughtUpSenderWakesWhenLogStops: the listener is up, the follower is
// connected and silent, the sender has no beacon — the only thing that can tell
// a caught-up sender its log is gone is the log. Close and poison both wake
// it, it reads the error and leaves; no goroutine sleeps through shutdown.
func TestCaughtUpSenderWakesWhenLogStops(t *testing.T) {
	t.Run("close", func(t *testing.T) {
		l, _, _ := caughtUpFollower(t, faultfs.NewMem(41), Options{})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		waitNoSenders(t, "log closed")
	})
	t.Run("poison", func(t *testing.T) {
		mem := faultfs.NewMem(42)
		l, _, _ := caughtUpFollower(t, mem, Options{})
		mem.FailSync(mem.Syncs() + 1)
		if err := l.Append(wal.Sample(1, "temp", "21")); err == nil {
			t.Fatal("append survived its failed fsync")
		}
		waitNoSenders(t, "log poisoned")
	})
	t.Run("append", func(t *testing.T) {
		l, _, rc := caughtUpFollower(t, faultfs.NewMem(43), Options{})
		if err := l.Append(wal.Sample(1, "temp", "21")); err != nil {
			t.Fatal(err)
		}
		if b, ok := rc.read().(rtwire.WalBatch); !ok || b.FirstSeq != l.Seq() || len(b.Events) != 1 {
			t.Fatalf("woken sender shipped %+v, want the one event at seq %d", b, l.Seq())
		}
		if n := senders(); n != 1 {
			t.Fatalf("%d senders after a live append, want 1", n)
		}
	})
}

// TestSenderOnlyEchoes: a listener speaks on an idle replication link only
// to echo its follower's beacons. A caught-up follower that stays silent
// hears nothing for two listener intervals, and the echo of its own
// Heartbeat carries the replication watermark — never the WAL tail, which
// runs ahead of it by an event the follower has not acked. (The silence it
// waits out is 2 of the 3 intervals after which the listener cuts it.)
func TestSenderOnlyEchoes(t *testing.T) {
	const iv = 100 * time.Millisecond
	l, ns, rc := caughtUpFollower(t, faultfs.NewMem(44), Options{HeartbeatInterval: iv})
	_ = rc.nc.SetReadDeadline(time.Now().Add(2 * iv))
	if f, err := rtwire.ReadFrame(rc.nc); err == nil {
		t.Fatalf("a silent caught-up follower was sent a %s frame", f.Kind)
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal(err)
	}
	echo := func() rtwire.Heartbeat {
		t.Helper()
		rc.write(rtwire.Heartbeat{}.Encode())
		msg := rc.read()
		hb, ok := msg.(rtwire.Heartbeat)
		if !ok {
			t.Fatalf("a beacon was answered with a %T, want its echo", msg)
		}
		return hb
	}
	// The beacon also restarts the listener's silence bound (3 intervals).
	if hb := echo(); hb.Seq != l.Seq() || hb.Seq != ns.ReplDurable() {
		t.Fatalf("caught-up echo Seq %d, want the acked tail %d (ReplDurable %d)", hb.Seq, l.Seq(), ns.ReplDurable())
	}
	if err := l.Append(wal.Sample(1, "temp", "21")); err != nil {
		t.Fatal(err)
	}
	if b, ok := rc.read().(rtwire.WalBatch); !ok || b.FirstSeq != l.Seq() {
		t.Fatalf("the append shipped %+v, want one batch at seq %d", b, l.Seq())
	}
	if hb := echo(); hb.Seq != ns.ReplDurable() || hb.Seq >= l.Seq() {
		t.Fatalf("echo Seq %d, want ReplDurable %d, behind the unacked tail %d", hb.Seq, ns.ReplDurable(), l.Seq())
	}
}

// TestSendWindowReadsAcks: the send window is the follower's acked sequence
// as the registry books it. A follower that acks nothing receives at most
// the window plus one batch and then silence; its acks wake the sender and
// the stream resumes; a window left full with no ack progress for
// ReplStallTimeout evicts the follower, its connection cut.
func TestSendWindowReadsAcks(t *testing.T) {
	const window, batch, stall = 4, 2, 500 * time.Millisecond
	l, ns, rc := caughtUpFollower(t, faultfs.NewMem(45), Options{
		ReplWindow: window, ReplBatch: batch, ReplStallTimeout: stall,
	})
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			if err := l.Append(wal.Sample(timeseq.Time(l.Seq()), "temp", "21")); err != nil {
				t.Fatal(err)
			}
		}
	}
	sent := l.Seq() // everything so far is acked
	recv := func() {
		t.Helper()
		msg := rc.read()
		b, ok := msg.(rtwire.WalBatch)
		if !ok || b.FirstSeq != sent+1 {
			t.Fatalf("got %+v, want a WalBatch from seq %d", msg, sent+1)
		}
		sent += uint64(len(b.Events))
	}
	acked := sent
	appendN(10)
	for sent-acked <= window {
		recv()
	}
	if sent-acked > window+batch {
		t.Fatalf("%d unacked events in flight, window %d + batch %d", sent-acked, window, batch)
	}
	_ = rc.nc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if f, err := rtwire.ReadFrame(rc.nc); err == nil {
		t.Fatalf("the sender shipped a %s frame past its full window", f.Kind)
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal(err)
	}
	for sent < l.Seq() {
		rc.write(rtwire.WalAck{Seq: sent}.Encode())
		acked = sent
		recv()
	}
	if got := ns.Wire.ReplStallEvictions.Load(); got != 0 {
		t.Fatalf("%d evictions of an acking follower", got)
	}

	start := time.Now()
	appendN(2 * window)
	_ = rc.nc.SetReadDeadline(start.Add(5 * time.Second))
	for {
		if _, err := rtwire.ReadFrame(rc.nc); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("a follower that stopped acking was never evicted")
			}
			break
		}
	}
	if got := ns.Wire.ReplStallEvictions.Load(); got != 1 {
		t.Fatalf("ReplStallEvictions = %d, want 1", got)
	}
	if elapsed := time.Since(start); elapsed < stall {
		t.Fatalf("evicted after %v, before ReplStallTimeout", elapsed)
	}
}

// TestDepartingFollowerReleasesWatermark: a follower's stale connection —
// its last ack lost with it — can still be registered when the follower's
// next connection subscribes holding everything. Once the stale one is torn
// down, the watermark must move to what the live connection holds at once:
// an idle follower sends no further ack that would move it later.
func TestDepartingFollowerReleasesWatermark(t *testing.T) {
	l, ns, stale := caughtUpFollower(t, faultfs.NewMem(44), Options{})
	held := l.Seq()
	if err := l.Append(wal.Sample(1, "temp", "21")); err != nil {
		t.Fatal(err)
	}
	if _, ok := stale.read().(rtwire.WalBatch); !ok {
		t.Fatal("the stale connection was not shipped the new event")
	}
	live := dialRaw(t, ns.Addr().String())
	live.handshake()
	live.write(rtwire.Subscribe{AfterSeq: l.Seq(), Follower: "raw"}.Encode())
	// The listener reads the beacon after the Subscribe: once its echo is
	// back, both connections are registered.
	live.write(rtwire.Heartbeat{}.Encode())
	if hb, ok := live.read().(rtwire.Heartbeat); !ok || hb.Seq != held {
		t.Fatalf("echo %+v, want the watermark %d the stale connection holds", hb, held)
	}
	stale.nc.Close()
	for deadline := time.Now().Add(5 * time.Second); ns.ReplDurable() < l.Seq(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("watermark stuck at %d after the stale connection left; the live one holds %d", ns.ReplDurable(), l.Seq())
		}
	}
}
