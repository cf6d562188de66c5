package replica

import (
	"bufio"
	"net"
	"testing"
	"time"

	"rtc/internal/deadline"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// standbyConn dials the standby listener and completes the handshake.
func standbyConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Write(rtwire.Hello{Client: "sub-probe"}.Encode()); err != nil {
		t.Fatal(err)
	}
	br := newFrameReader(nc)
	msg, err := readMsg(br)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := msg.(rtwire.Welcome); !ok || w.Role != rtwire.RoleStandby {
		t.Fatalf("handshake reply: %T %+v", msg, msg)
	}
	return nc, br
}

// TestStandbySubscriptions: the hot standby serves soft standing queries
// from the replicated horizon — admitted over the wire, pushed Degraded as
// batches advance the mirror, cancelled with a resumable cursor, resumed
// past it — while firm envelopes are refused read-only and every scheduled
// tick stays on the conservation books.
func TestStandbySubscriptions(t *testing.T) {
	lp, _, addr := newTestPrimary(t, 1<<16, 1<<20)
	r := newTestReplica(t, addr)
	defer r.Close()
	r.Start()

	seq := uint64(0)
	append4 := func(from, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := lp.Append(wal.Sample(timeseq.Time(from+i), "temp", "30")); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		if !r.WaitSeq(seq, 10*time.Second) {
			t.Fatalf("replica stuck at %d, want %d", r.Seq(), seq)
		}
	}
	// Catalog prologue (4 events) plus samples to horizon 4.
	for _, e := range testEvents(0) {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	append4(1, 4)

	la, err := r.Listen("127.0.0.1:0", netserve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nc, br := standbyConn(t, la.String())

	// Firm subscriptions belong on the primary.
	if _, err := nc.Write(rtwire.SubOpen{
		ID: 9, Query: "status_q", Period: 2,
		Kind: deadline.Firm, Deadline: 4, MinUseful: 1,
	}.Encode()); err != nil {
		t.Fatal(err)
	}
	msg, err := readMsg(br)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := msg.(rtwire.Err); !ok || e.Code != rtwire.CodeReadOnly {
		t.Fatalf("firm SubOpen reply: %T %+v", msg, msg)
	}
	// Unknown catalog queries are refused, not attached.
	if _, err := nc.Write(rtwire.SubOpen{ID: 9, Query: "nope_q", Period: 2}.Encode()); err != nil {
		t.Fatal(err)
	}
	msg, err = readMsg(br)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := msg.(rtwire.SubAck); !ok || a.State != rtwire.SubRefused {
		t.Fatalf("unknown-query SubOpen reply: %T %+v", msg, msg)
	}

	// A soft subscription with a generous envelope: admitted at the current
	// horizon.
	if _, err := nc.Write(rtwire.SubOpen{
		ID: 1, Query: "status_q", Period: 2,
		Kind: deadline.Soft, Deadline: 50, MinUseful: 1,
	}.Encode()); err != nil {
		t.Fatal(err)
	}
	msg, err = readMsg(br)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := msg.(rtwire.SubAck); !ok || a.ID != 1 || a.State != rtwire.SubAdmitted || a.Cursor != 0 {
		t.Fatalf("SubOpen ack: %T %+v", msg, msg)
	}

	// Advance the horizon from 4 to 12: ticks at 6, 8, 10, 12 fall due as
	// the batches apply.
	append4(5, 8)
	var pushes []rtwire.Push
	for len(pushes) < 4 {
		msg, err := readMsg(br)
		if err != nil {
			t.Fatalf("waiting for pushes (have %d): %v", len(pushes), err)
		}
		p, ok := msg.(rtwire.Push)
		if !ok {
			t.Fatalf("expected Push, got %T %+v", msg, msg)
		}
		pushes = append(pushes, p)
	}
	for i, p := range pushes {
		if p.ID != 1 || p.Cursor != uint64(i+1) {
			t.Fatalf("push %d: id %d cursor %d", i, p.ID, p.Cursor)
		}
		if !p.Degraded || !p.Evaluated || p.Missed {
			t.Fatalf("push %d flags: %+v", i, p)
		}
		if len(p.Answers) != 1 || p.Answers[0] != "high" {
			t.Fatalf("push %d answers: %v", i, p.Answers)
		}
		// The resuming client's audit: nothing below this cursor is
		// unaccounted.
		if received := uint64(i + 1); received != p.Cursor-p.Dropped-p.Expired {
			t.Fatalf("audit: received %d cursor %d dropped %d expired %d",
				received, p.Cursor, p.Dropped, p.Expired)
		}
	}

	// Cancel: the closing ack carries the resume point.
	if _, err := nc.Write(rtwire.SubCancel{ID: 1}.Encode()); err != nil {
		t.Fatal(err)
	}
	msg, err = readMsg(br)
	if err != nil {
		t.Fatal(err)
	}
	closed, ok := msg.(rtwire.SubAck)
	if !ok || closed.State != rtwire.SubClosed || closed.Cursor != 4 {
		t.Fatalf("cancel ack: %T %+v", msg, msg)
	}
	if _, err := nc.Write(rtwire.SubCancel{ID: 1}.Encode()); err != nil {
		t.Fatal(err)
	}
	msg, err = readMsg(br)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := msg.(rtwire.Err); !ok || e.Code != rtwire.CodeBadRequest {
		t.Fatalf("double cancel reply: %T %+v", msg, msg)
	}

	// Resume past the held cursor: delivery continues at cursor+1 with
	// fresh tallies — the failover landing path.
	if _, err := nc.Write(rtwire.SubResume{
		ID: 2, Query: "status_q", Period: 2,
		Kind: deadline.Soft, Deadline: 50, MinUseful: 1,
		AfterCursor: closed.Cursor,
	}.Encode()); err != nil {
		t.Fatal(err)
	}
	msg, err = readMsg(br)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := msg.(rtwire.SubAck); !ok || a.ID != 2 || a.State != rtwire.SubAdmitted || a.Cursor != closed.Cursor {
		t.Fatalf("resume ack: %T %+v", msg, msg)
	}
	append4(13, 4)
	msg, err = readMsg(br)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := msg.(rtwire.Push); !ok || p.ID != 2 || p.Cursor != closed.Cursor+1 ||
		p.Dropped != 0 || p.Expired != 0 || !p.Degraded {
		t.Fatalf("first resumed push: %T %+v", msg, msg)
	}

	// Quiesce before reading the books: Close waits out the tailer and the
	// listener, so every scheduled tick has reached its terminal outcome.
	nc.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	m := r.srv.Metrics.Snapshot()
	if m.SubsOpened != 2 || m.SubsClosed != 2 {
		t.Errorf("subs opened/closed = %d/%d, want 2/2", m.SubsOpened, m.SubsClosed)
	}
	if m.PushScheduled == 0 || m.PushAccounted() != m.PushScheduled {
		t.Errorf("push conservation: scheduled %d accounted %d", m.PushScheduled, m.PushAccounted())
	}
	if m.Degraded == 0 {
		t.Errorf("standby pushes did not account Degraded")
	}
}

// TestStandbySubExpiry: a batch that jumps the horizon far past a tight
// soft envelope expires the stale ticks — counted cursor gaps the next
// delivered push carries — instead of serving answers whose usefulness
// already decayed to nothing.
func TestStandbySubExpiry(t *testing.T) {
	lp, _, addr := newTestPrimary(t, 1<<16, 1<<20)
	r := newTestReplica(t, addr)
	defer r.Close()
	r.Start()

	seq := uint64(0)
	for _, e := range testEvents(0) {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	if err := lp.Append(wal.Sample(1, "temp", "30")); err != nil {
		t.Fatal(err)
	}
	seq++
	if !r.WaitSeq(seq, 10*time.Second) {
		t.Fatalf("replica stuck at %d, want %d", r.Seq(), seq)
	}
	la, err := r.Listen("127.0.0.1:0", netserve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nc, br := standbyConn(t, la.String())

	// Period 1, soft deadline 2, no decay floor: a tick more than one
	// chronon stale at serve time is inadmissible.
	if _, err := nc.Write(rtwire.SubOpen{
		ID: 1, Query: "status_q", Period: 1,
		Kind: deadline.Soft, Deadline: 2,
	}.Encode()); err != nil {
		t.Fatal(err)
	}
	msg, err := readMsg(br)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := msg.(rtwire.SubAck); !ok || a.State != rtwire.SubAdmitted {
		t.Fatalf("SubOpen ack: %T %+v", msg, msg)
	}

	// One sample that leaps the horizon from 1 to 20: ticks 2..20 all fall
	// due in one advance, and only the freshest survive admission.
	if err := lp.Append(wal.Sample(20, "temp", "30")); err != nil {
		t.Fatal(err)
	}
	seq++
	if !r.WaitSeq(seq, 10*time.Second) {
		t.Fatal("replica stuck behind the leap")
	}
	msg, err = readMsg(br)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := msg.(rtwire.Push)
	if !ok {
		t.Fatalf("expected Push, got %T %+v", msg, msg)
	}
	if p.Expired == 0 {
		t.Fatalf("no ticks expired across the leap: %+v", p)
	}
	// The audit arithmetic still closes the gap exactly.
	if p.Cursor != 1+p.Dropped+p.Expired {
		t.Fatalf("first delivered push: cursor %d dropped %d expired %d",
			p.Cursor, p.Dropped, p.Expired)
	}

	nc.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	m := r.srv.Metrics.Snapshot()
	if m.PushExpired == 0 || m.PushAccounted() != m.PushScheduled {
		t.Errorf("expiry books: scheduled %d accounted %d expired %d",
			m.PushScheduled, m.PushAccounted(), m.PushExpired)
	}
}
