package replica

import (
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtwire"
)

// TestStalledStandbySubscriberDoesNotStallReplication: a standby subscriber
// whose link stops absorbing bytes must cost only its own queue. With the
// write timeout set where it cannot fire, replication keeps applying and
// acking while the link is stalled — the primary's repl_durable watermark,
// which every client's failover durability rests on, must not freeze behind
// one slow reader on the standby — Promote returns, and once the link heals
// the subscriber's audit arithmetic explains every cursor it did not get.
func TestStalledStandbySubscriberDoesNotStallReplication(t *testing.T) {
	h := newFabricStandby(t, netserve.Options{WriteTimeout: time.Hour})
	r := h.r
	nc, br := h.dial("sub", true)
	_ = nc.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := nc.Write(rtwire.SubOpen{
		ID: 1, Query: "status_q", Period: 1,
		Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1, Depth: 4,
	}.Encode()); err != nil {
		t.Fatal(err)
	}
	msg, err := readMsg(br)
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := msg.(rtwire.SubAck)
	if !ok || ack.State != rtwire.SubAdmitted {
		t.Fatalf("SubOpen ack: %T %+v", msg, msg)
	}

	// The subscriber stops absorbing bytes; the primary keeps writing. Every
	// append leaps the horizon five chronons: five ticks due per batch against
	// a queue of four. advance fails the test if the standby stops applying.
	h.fab.StallAll(fabStandby, "sub")
	h.advance(8, 5)
	for end := time.Now().Add(10 * time.Second); h.pns.ReplDurable() < h.seq; {
		if time.Now().After(end) {
			t.Fatalf("repl_durable frozen at %d behind a stalled standby subscriber, want %d", h.pns.ReplDurable(), h.seq)
		}
		time.Sleep(time.Millisecond)
	}

	// Promotion must not wait on the stalled link either.
	promoted := make(chan error, 1)
	go func() {
		_, err := r.Promote()
		promoted <- err
	}()
	select {
	case err := <-promoted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Promote blocked on a stalled standby client")
	}

	// Heal. Every tick up to the acked horizon was scheduled before its batch
	// was acked, and drop-oldest never sheds the newest, so the stream ends on
	// the cursor of the last tick.
	h.fab.Heal()
	final := uint64(h.horizon - ack.Chronon)
	var received, last uint64
	var lastPush rtwire.Push
	for last < final {
		msg, err := readMsg(br)
		if err != nil {
			t.Fatalf("after heal, %d pushes in, cursor %d of %d: %v", received, last, final, err)
		}
		p, ok := msg.(rtwire.Push)
		if !ok {
			if _, ok := msg.(rtwire.PromoteInfo); ok {
				continue
			}
			t.Fatalf("expected Push, got %T %+v", msg, msg)
		}
		if p.Cursor <= last {
			t.Fatalf("cursor %d after %d", p.Cursor, last)
		}
		received, last, lastPush = received+1, p.Cursor, p
	}
	if lastPush.Dropped == 0 {
		t.Errorf("a queue of 4 absorbed %d ticks behind a stalled link without dropping", final)
	}
	if received != lastPush.Cursor-lastPush.Dropped-lastPush.Expired {
		t.Errorf("audit open: received %d, last push cursor %d dropped %d expired %d",
			received, lastPush.Cursor, lastPush.Dropped, lastPush.Expired)
	}

	nc.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	m := r.srv.Metrics.Snapshot()
	if m.PushScheduled != final || m.PushAccounted() != m.PushScheduled {
		t.Errorf("push books: scheduled %d (want %d) != pushed %d + dropped %d + expired %d",
			m.PushScheduled, final, m.Pushed, m.PushDropped, m.PushExpired)
	}
	if m.SubsOpened != m.SubsClosed {
		t.Errorf("subs opened %d != closed %d after teardown", m.SubsOpened, m.SubsClosed)
	}
}
