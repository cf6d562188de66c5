package replica

import (
	"net"
	"testing"
	"time"

	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtwire"
)

// TestStandbyMetricsDurabilityRows: the hot-standby listener publishes the
// same wal_seq/epoch coordinate names a primary does (plus the repl_* books),
// so failover tooling reads one table shape regardless of which role served
// it. rtdbload's durability check resolves wal_seq by name against a node
// that may still be a standby when the run ends. Served by netserve's loop,
// the reply also carries every net_* row a primary's does.
func TestStandbyMetricsDurabilityRows(t *testing.T) {
	lp, _, addr := newTestPrimary(t, 1<<16, 1<<20)
	r := newTestReplica(t, addr)
	defer r.Close()
	r.Start()

	events := testEvents(8)
	for _, e := range events {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if !r.WaitSeq(uint64(len(events)), 10*time.Second) {
		t.Fatalf("replica stuck at seq %d, want %d", r.Seq(), len(events))
	}
	la, err := r.Listen("127.0.0.1:0", netserve.Options{})
	if err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", la.String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write(rtwire.Hello{Client: "rows-probe"}.Encode()); err != nil {
		t.Fatal(err)
	}
	br := newFrameReader(nc)
	msg, err := readMsg(br)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := msg.(rtwire.Welcome)
	if !ok {
		t.Fatalf("handshake reply = %T, want Welcome", msg)
	}
	if w.Role != rtwire.RoleStandby {
		t.Fatalf("standby announced role %v", w.Role)
	}
	if _, err := nc.Write(rtwire.MetricsReq{ID: 1}.Encode()); err != nil {
		t.Fatal(err)
	}
	msg, err = readMsg(br)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := msg.(rtwire.Metrics)
	if !ok {
		t.Fatalf("metrics reply = %T, want Metrics", msg)
	}
	mm := m.Map()
	names := []string{
		"wal_seq", "epoch", "repl_seq", "repl_epoch", "repl_batches_in",
		"repl_events_applied", "repl_dup_skipped", "repl_gap_resubscribes",
		"repl_resyncs", "repl_stale_batches", "repl_reconnects", "repl_promotions",
	}
	for _, p := range (netserve.WireSnapshot{}).Pairs() {
		names = append(names, p.Name)
	}
	for _, name := range names {
		if _, ok := mm[name]; !ok {
			t.Errorf("standby metrics missing %q (got %d rows)", name, len(m.Pairs))
		}
	}
	if got := mm["net_conns_accepted"]; got != 1 {
		t.Errorf("standby net_conns_accepted = %d, want 1", got)
	}
	if got, want := mm["wal_seq"], uint64(len(events)); got != want {
		t.Errorf("standby wal_seq = %d, want %d", got, want)
	}
	if got := mm["epoch"]; got != r.Epoch() {
		t.Errorf("standby epoch = %d, want %d", got, r.Epoch())
	}
}
