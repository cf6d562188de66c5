package netserve

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"rtc/internal/faultfs"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
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
	_, ns, addr := startNet(t, cfg, opt, nil)
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
