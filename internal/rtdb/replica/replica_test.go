package replica

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"testing"
	"time"

	"rtc/internal/faultfs"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// readMsg reads and decodes the next frame of a raw test connection.
func readMsg(br *bufio.Reader) (any, error) {
	f, err := rtwire.ReadFrame(br)
	if err != nil {
		return nil, err
	}
	return rtwire.Decode(f)
}

// listenStandby serves r's standby listener on a loopback port with default
// options and returns its address.
func listenStandby(t testing.TB, r *Replica) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ServeOn(ln, netserve.Options{}); err != nil {
		ln.Close()
		t.Fatal(err)
	}
	return ln.Addr().String()
}

// testEvents is a small deterministic workload: the catalog prologue plus n
// samples spread over the images.
func testEvents(n int) []wal.Event {
	events := []wal.Event{
		wal.Invariant("limit", "22"),
		wal.Image("temp", 5),
		wal.Image("press", 3),
		wal.Derived("status", "temp", "limit"),
	}
	images := []string{"temp", "press"}
	for i := 0; i < n; i++ {
		events = append(events, wal.Sample(timeseq.Time(i+1), images[i%2], fmt.Sprintf("v%d", i)))
	}
	return events
}

func testDerive(src map[string]rtdb.Value) rtdb.Value {
	t, _ := strconv.Atoi(src["temp"])
	l, _ := strconv.Atoi(src["limit"])
	if t > l {
		return "high"
	}
	return "ok"
}

// testServer is the follower server the tests run: the test catalog, and
// room for a few connections.
func testServer() server.Config {
	return server.Config{
		Catalog: rtdb.Catalog{"status_q": func(v *rtdb.View) []rtdb.Value {
			if s, ok := v.DeriveNow("status"); ok {
				return []rtdb.Value{s}
			}
			return nil
		}},
		Registry: rtdb.DeriveRegistry{"status": testDerive},
		Sessions: 4,
	}
}

// testBeacon is the test stacks' one link cadence: each primary listener
// requires a beacon this often (cutting a link after 3× of silence) and each
// follower sends one this often, so an idle link holds rather than churning
// through re-subscribes.
const testBeacon = 100 * time.Millisecond

// newTestPrimary stands up a WAL-backed replication sender on a loopback
// port. Its apply loop runs: a follower disconnect flushes its session during
// netserve teardown, and only a started server completes that flush. The
// returned stop function is idempotent.
func newTestPrimary(t testing.TB, segSize int64, snapEvery uint64) (*wal.Log, func(), string) {
	t.Helper()
	lp, err := wal.Open(wal.Options{
		Dir: "wal", FS: faultfs.NewMem(1), SegmentSize: segSize, SnapshotEvery: snapEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Log: lp})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ns := netserve.New(srv, netserve.Options{
		HeartbeatInterval: testBeacon,
		ReplBatch:         4, ReplWindow: 16,
	})
	addr, err := ns.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := func() { srv.Stop(); ns.Close() }
	t.Cleanup(stop)
	return lp, stop, addr.String()
}

// openTestReplica opens an unstarted replica of primary, on the tests' log
// and follower options, serving sc.
func openTestReplica(t testing.TB, primary string, sc server.Config) *Replica {
	t.Helper()
	r, err := Open(Config{
		Primary: primary,
		WAL:     wal.Options{Dir: "rwal", FS: faultfs.NewMem(2), SegmentSize: 2048, SnapshotEvery: 32},
		Client: client.Options{Name: "t-follower",
			RetryBackoff: time.Millisecond, RetryBackoffMax: 20 * time.Millisecond,
			Seed: 7, HeartbeatInterval: testBeacon,
		},
	}, sc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestApplyBatchDiscipline drives applyBatch directly: epoch fencing,
// duplicate skipping, gap detection, and epoch adoption.
func TestApplyBatchDiscipline(t *testing.T) {
	r, err := Open(Config{
		Primary: "unused",
		WAL:     wal.Options{Dir: "rwal", FS: faultfs.NewMem(3)},
	}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	payload := func(e wal.Event) string { return string(e.Payload()) }
	ev := testEvents(4)

	// A batch from a dead epoch is refused before anything applies.
	if err := r.applyBatch(rtwire.WalBatch{Epoch: 0, FirstSeq: 1, Events: []string{payload(ev[0])}}); err != errStaleBatch {
		t.Fatalf("stale-epoch batch: err = %v, want errStaleBatch", err)
	}
	if r.Seq() != 0 {
		t.Fatalf("stale batch applied events: seq = %d", r.Seq())
	}

	// A clean batch at the tail applies in order.
	b := rtwire.WalBatch{Epoch: 1, FirstSeq: 1, Events: []string{payload(ev[0]), payload(ev[1])}}
	if err := r.applyBatch(b); err != nil {
		t.Fatal(err)
	}
	if r.Seq() != 2 {
		t.Fatalf("seq = %d, want 2", r.Seq())
	}

	// The identical batch again: pure overlap, skipped exactly once each.
	if err := r.applyBatch(b); err != nil {
		t.Fatal(err)
	}
	if r.Seq() != 2 || r.srv.Repl.DupSkipped.Load() != 2 {
		t.Fatalf("dup replay: seq = %d dups = %d, want 2/2", r.Seq(), r.srv.Repl.DupSkipped.Load())
	}

	// A partially overlapping batch applies only its new suffix.
	if err := r.applyBatch(rtwire.WalBatch{Epoch: 1, FirstSeq: 2, Events: []string{payload(ev[1]), payload(ev[2])}}); err != nil {
		t.Fatal(err)
	}
	if r.Seq() != 3 || r.srv.Repl.DupSkipped.Load() != 3 {
		t.Fatalf("overlap batch: seq = %d dups = %d, want 3/3", r.Seq(), r.srv.Repl.DupSkipped.Load())
	}

	// A batch past tail+1 is a gap: refused, nothing applied.
	if err := r.applyBatch(rtwire.WalBatch{Epoch: 1, FirstSeq: 5, Events: []string{payload(ev[3])}}); err != errGap {
		t.Fatalf("gap batch: err = %v, want errGap", err)
	}
	if r.Seq() != 3 || r.srv.Repl.GapResubscribes.Load() != 1 {
		t.Fatalf("gap batch: seq = %d resubs = %d, want 3/1", r.Seq(), r.srv.Repl.GapResubscribes.Load())
	}

	// A newer epoch is adopted and persisted before its events apply.
	if err := r.applyBatch(rtwire.WalBatch{Epoch: 7, FirstSeq: 4, Events: []string{payload(ev[3])}}); err != nil {
		t.Fatal(err)
	}
	if r.Seq() != 4 || r.Epoch() != 7 {
		t.Fatalf("epoch adoption: seq = %d epoch = %d, want 4/7", r.Seq(), r.Epoch())
	}
	// ...and the old epoch can never come back.
	if err := r.applyBatch(rtwire.WalBatch{Epoch: 1, FirstSeq: 5, Events: []string{payload(ev[0])}}); err != errStaleBatch {
		t.Fatalf("deposed epoch after adoption: err = %v, want errStaleBatch", err)
	}
}
