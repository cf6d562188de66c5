package replica

import (
	"bufio"
	"errors"
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

// newFrameReader wraps a raw test connection for readMsg.
func newFrameReader(nc net.Conn) *bufio.Reader { return bufio.NewReader(nc) }

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

func testCatalog() rtdb.Catalog {
	return rtdb.Catalog{
		"status_q": func(v *rtdb.View) []rtdb.Value {
			if s, ok := v.DeriveNow("status"); ok {
				return []rtdb.Value{s}
			}
			return nil
		},
	}
}

// testServer is the follower server the tests run: the test catalog, and
// room for a few connections.
func testServer() server.Config {
	return server.Config{
		Catalog: testCatalog(), Registry: rtdb.DeriveRegistry{"status": testDerive},
		Sessions: 4,
	}
}

// newTestPrimary stands up a WAL-backed replication sender (an unstarted
// server shell, exactly what the torture sweep uses) on a loopback port.
// The returned stop function is idempotent and stops the shell before the
// transport — the unstarted shell has no apply loop, so a connection
// draining through Session.Flush only unblocks once Stop closes quit.
func newTestPrimary(t testing.TB, segSize int64, snapEvery uint64) (*wal.Log, func(), string) {
	lp, _, stop, addr := newTestPrimaryNS(t, segSize, snapEvery)
	return lp, stop, addr
}

// newTestPrimaryNS is newTestPrimary that also hands back the listener, for
// tests that read the primary's replication watermark.
func newTestPrimaryNS(t testing.TB, segSize int64, snapEvery uint64) (*wal.Log, *netserve.Server, func(), string) {
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
	// Run the apply loop: a follower disconnect flushes its session during
	// netserve teardown, and only a started server completes that flush —
	// without it the (Sessions: 1) pool wedges after the first disconnect.
	srv.Start()
	ns := netserve.New(srv, netserve.Options{
		HeartbeatInterval: 25 * time.Millisecond,
		ReplBatch:         4, ReplWindow: 16,
	})
	addr, err := ns.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := func() { srv.Stop(); ns.Close() }
	t.Cleanup(stop)
	return lp, ns, stop, addr.String()
}

func newTestReplica(t testing.TB, primary string) *Replica {
	t.Helper()
	return openTestReplica(t, primary, testServer())
}

// openTestReplica is newTestReplica with the follower's server config.
func openTestReplica(t testing.TB, primary string, sc server.Config) *Replica {
	t.Helper()
	r, err := Open(Config{
		Primary: primary,
		WAL:     wal.Options{Dir: "rwal", FS: faultfs.NewMem(2), SegmentSize: 2048, SnapshotEvery: 32},
		Client: client.Options{Name: "t-follower",
			RetryBackoff: time.Millisecond, RetryBackoffMax: 20 * time.Millisecond,
			Seed: 7, HeartbeatInterval: 5 * time.Second / 3,
		},
	}, sc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestLiveReplication: events appended on the primary while the replica is
// subscribed arrive in order and reproduce the exact state.
func TestLiveReplication(t *testing.T) {
	lp, _, addr := newTestPrimary(t, 1<<16, 1<<20)
	r := newTestReplica(t, addr)
	defer r.Close()
	r.Start()

	events := testEvents(40)
	for _, e := range events {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if !r.WaitSeq(uint64(len(events)), 10*time.Second) {
		t.Fatalf("replica stuck at seq %d, want %d", r.Seq(), len(events))
	}
	r.mu.Lock()
	d := lp.State().Diff(r.log.State())
	r.mu.Unlock()
	if d != "" {
		t.Fatalf("replicated state diverged: %s", d)
	}
	if r.srv.Repl.EventsApplied.Load() != uint64(len(events)) {
		t.Fatalf("EventsApplied = %d, want %d", r.srv.Repl.EventsApplied.Load(), len(events))
	}
}

// TestCatchupThenTail: the replica starts after the primary already has a
// history — catch-up from segments must hand off seamlessly to the live
// tail.
func TestCatchupThenTail(t *testing.T) {
	lp, _, addr := newTestPrimary(t, 1<<16, 1<<20)
	events := testEvents(30)
	half := len(events) / 2
	for _, e := range events[:half] {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
	}

	r := newTestReplica(t, addr)
	defer r.Close()
	r.Start()
	if !r.WaitSeq(uint64(half), 10*time.Second) {
		t.Fatalf("catch-up stuck at %d, want %d", r.Seq(), half)
	}
	for _, e := range events[half:] {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if !r.WaitSeq(uint64(len(events)), 10*time.Second) {
		t.Fatalf("live tail stuck at %d, want %d", r.Seq(), len(events))
	}
	r.mu.Lock()
	d := lp.State().Diff(r.log.State())
	r.mu.Unlock()
	if d != "" {
		t.Fatalf("replicated state diverged: %s", d)
	}
}

// TestCompactedCatchupResyncs: when the events a fresh replica needs were
// compacted away on the primary, the sender must fall back to a full-state
// resync (snapshot frames → Bootstrap) and the states must still match.
func TestCompactedCatchupResyncs(t *testing.T) {
	lp, _, addr := newTestPrimary(t, 256, 8)
	events := testEvents(60)
	for _, e := range events {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := lp.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := lp.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := lp.ReadFrom(&wal.ReadPos{}, 1); !errors.Is(err, wal.ErrSeqCompacted) {
		t.Fatalf("precondition: ReadFrom(0) = %v, want ErrSeqCompacted", err)
	}

	r := newTestReplica(t, addr)
	defer r.Close()
	r.Start()
	if !r.WaitSeq(uint64(len(events)), 10*time.Second) {
		t.Fatalf("resync stuck at %d, want %d", r.Seq(), len(events))
	}
	if got := r.srv.Repl.Resyncs.Load(); got == 0 {
		t.Fatal("catch-up past compaction did not count a resync")
	}
	r.mu.Lock()
	d := lp.State().Diff(r.log.State())
	r.mu.Unlock()
	if d != "" {
		t.Fatalf("resynced state diverged: %s", d)
	}
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

// TestPromoteFencesAndSurvives: promotion bumps the epoch durably and stops
// the follow stream; the promoted server logs the writes it takes.
func TestPromoteFencesAndSurvives(t *testing.T) {
	lp, _, addr := newTestPrimary(t, 1<<16, 1<<20)
	events := testEvents(10)
	for _, e := range events {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	fs := faultfs.NewMem(4)
	r, err := Open(Config{
		Primary: addr,
		WAL:     wal.Options{Dir: "rwal", FS: fs, SegmentSize: 2048, SnapshotEvery: 32},
		Client:  client.Options{RetryBackoff: time.Millisecond, RetryBackoffMax: 20 * time.Millisecond, Seed: 9},
	}, testServer())
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	if !r.WaitSeq(uint64(len(events)), 10*time.Second) {
		t.Fatalf("replica stuck at %d", r.Seq())
	}

	sess := r.Server().Session(0)
	if err := sess.InjectSample("temp", "pre"); !errors.Is(err, server.ErrReadOnly) {
		t.Fatalf("follower took a write: err = %v, want ErrReadOnly", err)
	}
	epoch, err := r.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch < 2 {
		t.Fatalf("promotion left epoch at %d", epoch)
	}
	select {
	case <-r.Promoted():
	default:
		t.Fatal("Promoted channel not closed")
	}
	if err := sess.InjectSample("temp", "post"); err != nil {
		t.Fatalf("promoted server refused a write: %v", err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := wal.Open(wal.Options{Dir: "rwal", FS: fs, SegmentSize: 2048, SnapshotEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Epoch(); got != epoch {
		t.Fatalf("epoch %d not persisted; reopened as %d", epoch, got)
	}
	if got := l2.Seq(); got != uint64(len(events))+1 {
		t.Fatalf("reopened seq = %d, want %d", got, len(events)+1)
	}
}

// TestWatchdogAutoPromotes: with PromoteAfter set, losing the primary for
// long enough promotes the replica without operator action.
func TestWatchdogAutoPromotes(t *testing.T) {
	lp, stopPrimary, addr := newTestPrimary(t, 1<<16, 1<<20)
	events := testEvents(5)
	for _, e := range events {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Open(Config{
		Primary: addr,
		WAL:     wal.Options{Dir: "rwal", FS: faultfs.NewMem(5), SegmentSize: 2048, SnapshotEvery: 32},
		Client: client.Options{RetryBackoff: time.Millisecond, RetryBackoffMax: 10 * time.Millisecond, Seed: 11,
			HeartbeatInterval: 100 * time.Millisecond / 3,
		},
		PromoteAfter: 200 * time.Millisecond,
	}, testServer())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start()
	if !r.WaitSeq(uint64(len(events)), 10*time.Second) {
		t.Fatalf("replica stuck at %d", r.Seq())
	}

	stopPrimary() // the primary vanishes
	select {
	case <-r.Promoted():
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never promoted after the primary vanished")
	}
	if got := r.srv.Repl.Promotions.Load(); got != 1 {
		t.Fatalf("Promotions = %d, want 1", got)
	}
	if got := r.Epoch(); got < 2 {
		t.Fatalf("auto-promotion left epoch at %d", got)
	}
}
