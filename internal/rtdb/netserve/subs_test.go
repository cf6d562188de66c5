package netserve

import (
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/rtwire"
)

// expectSubAck reads frames until a SubAck arrives, collecting the pushes
// that precede it.
func expectSubAck(t *testing.T, rc *rawConn, pushes *[]rtwire.Push) rtwire.SubAck {
	t.Helper()
	for {
		switch m := rc.read().(type) {
		case rtwire.Push:
			if pushes != nil {
				*pushes = append(*pushes, m)
			}
		case rtwire.SubAck:
			return m
		default:
			t.Fatalf("waiting for SubAck, got %T: %+v", m, m)
		}
	}
}

// TestSubscribeOverWire drives the full standing-query flow frame by frame:
// open, admitted ack, pushes as the clock advances, cancel, closing ack —
// with the client-side cursor audit and the server-side conservation law
// both checked at the end.
func TestSubscribeOverWire(t *testing.T) {
	s, ns, addr := startNet(t, testConfig(), Options{})
	rc := dialRaw(t, addr)
	rc.handshake()

	rc.write(rtwire.SubOpen{
		ID: 7, Query: "temp_q", Period: 2,
		Kind: deadline.Soft, Deadline: 5, Depth: 16,
	}.Encode())
	ack, ok := rc.read().(rtwire.SubAck)
	if !ok || ack.ID != 7 || ack.State != rtwire.SubAdmitted || ack.Cursor != 0 {
		t.Fatalf("open ack: %+v", ack)
	}

	// Each sample apply advances the virtual clock one chronon; period 2
	// means ticks fall due as the samples land. Flush is the barrier: once
	// Flushed arrives, every sample above is applied and every push those
	// applies scheduled is either queued or already on the wire.
	for i := 0; i < 6; i++ {
		rc.write(rtwire.Sample{ID: uint64(i + 1), Image: "temp", Value: "20"}.Encode())
	}
	rc.write(rtwire.Flush{ID: 99}.Encode())

	var pushes []rtwire.Push
collect:
	for {
		switch m := rc.read().(type) {
		case rtwire.Push:
			pushes = append(pushes, m)
		case rtwire.Flushed:
			break collect
		default:
			t.Fatalf("unexpected frame: %T %+v", m, m)
		}
	}

	rc.write(rtwire.SubCancel{ID: 7}.Encode())
	closed := expectSubAck(t, rc, &pushes)
	if closed.ID != 7 || closed.State != rtwire.SubClosed {
		t.Fatalf("close ack: %+v", closed)
	}

	if len(pushes) == 0 {
		t.Fatal("no pushes delivered")
	}
	for i, p := range pushes {
		if p.ID != 7 || !p.Evaluated || p.Missed {
			t.Fatalf("push %d: %+v", i, p)
		}
		if p.Cursor != uint64(i+1) {
			t.Fatalf("push %d cursor = %d, want %d", i, p.Cursor, i+1)
		}
		// The audit a resuming client runs: everything below this cursor is
		// received, dropped, or expired — nothing silently skipped.
		if received := uint64(i + 1); received != p.Cursor-p.Dropped-p.Expired {
			t.Fatalf("audit: received %d, cursor %d, dropped %d, expired %d",
				received, p.Cursor, p.Dropped, p.Expired)
		}
		if len(p.Answers) != 1 || p.Answers[0] != "20" {
			t.Fatalf("push %d answers: %v", i, p.Answers)
		}
	}
	if closed.Cursor < pushes[len(pushes)-1].Cursor {
		t.Fatalf("close ack cursor %d below last push %d", closed.Cursor, pushes[len(pushes)-1].Cursor)
	}

	rc.write(rtwire.Bye{Reason: "done"}.Encode())
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics.Snapshot()
	if m.SubsOpened != 1 || m.SubsClosed != 1 {
		t.Errorf("subs opened/closed = %d/%d", m.SubsOpened, m.SubsClosed)
	}
	if m.PushScheduled == 0 || m.PushAccounted() != m.PushScheduled {
		t.Errorf("push conservation: scheduled %d accounted %d", m.PushScheduled, m.PushAccounted())
	}
	if got := ns.Wire.SubsIn.Load(); got != 1 {
		t.Errorf("wire SubsIn = %d, want 1", got)
	}
	if got := ns.Wire.PushesOut.Load(); got == 0 {
		t.Error("wire PushesOut = 0 after deliveries")
	}
}

// TestSubRefusalsOverWire: an unknown catalog query and a dead-on-arrival
// envelope come back as refused SubAcks (no attachment, no pump); a
// duplicate id and an unknown-id cancel are protocol errors.
func TestSubRefusalsOverWire(t *testing.T) {
	s, _, addr := startNet(t, testConfig(), Options{})
	rc := dialRaw(t, addr)
	rc.handshake()

	rc.write(rtwire.SubOpen{ID: 1, Query: "nope_q", Period: 2}.Encode())
	if a := expectSubAck(t, rc, nil); a.ID != 1 || a.State != rtwire.SubRefused {
		t.Fatalf("unknown query ack: %+v", a)
	}

	// Firm envelope consumed in transit: every tick would be expired before
	// it started, so the subscription is refused outright.
	rc.write(rtwire.SubOpen{
		ID: 2, Query: "status_q", Period: 4,
		Kind: deadline.Firm, Deadline: 3, Elapsed: 5, MinUseful: 1,
	}.Encode())
	if a := expectSubAck(t, rc, nil); a.ID != 2 || a.State != rtwire.SubRefused {
		t.Fatalf("expired envelope ack: %+v", a)
	}

	rc.write(rtwire.SubOpen{
		ID: 3, Query: "status_q", Period: 4,
		Kind: deadline.Firm, Deadline: 3, MinUseful: 1,
	}.Encode())
	if a := expectSubAck(t, rc, nil); a.State != rtwire.SubAdmitted {
		t.Fatalf("live open ack: %+v", a)
	}
	rc.write(rtwire.SubOpen{ID: 3, Query: "status_q", Period: 4}.Encode())
	if e, ok := rc.read().(rtwire.Err); !ok || e.ID != 3 || e.Code != rtwire.CodeBadRequest {
		t.Fatalf("duplicate id: %+v", e)
	}
	rc.write(rtwire.SubCancel{ID: 9}.Encode())
	if e, ok := rc.read().(rtwire.Err); !ok || e.ID != 9 || e.Code != rtwire.CodeBadRequest {
		t.Fatalf("unknown cancel: %+v", e)
	}

	if got := s.Metrics.SubsOpened.Load(); got != 1 {
		t.Errorf("SubsOpened = %d, want 1 (refusals must not count)", got)
	}
}

// TestSubResumeOverWire: after a cancel, SubResume with the last held cursor
// continues delivery at cursor+1 with fresh drop/expiry tallies — the
// reconnect path the client package automates.
func TestSubResumeOverWire(t *testing.T) {
	_, _, addr := startNet(t, testConfig(), Options{})
	rc := dialRaw(t, addr)
	rc.handshake()

	rc.write(rtwire.SubOpen{ID: 1, Query: "status_q", Period: 2, Kind: deadline.Soft, Deadline: 5, Depth: 16}.Encode())
	if a := expectSubAck(t, rc, nil); a.State != rtwire.SubAdmitted {
		t.Fatalf("open ack: %+v", a)
	}
	for i := 0; i < 4; i++ {
		rc.write(rtwire.Sample{ID: uint64(i + 1), Image: "temp", Value: "21"}.Encode())
	}
	rc.write(rtwire.Flush{ID: 50}.Encode())
	var pushes []rtwire.Push
collect:
	for {
		switch m := rc.read().(type) {
		case rtwire.Push:
			pushes = append(pushes, m)
		case rtwire.Flushed:
			break collect
		}
	}
	rc.write(rtwire.SubCancel{ID: 1}.Encode())
	closed := expectSubAck(t, rc, &pushes)
	if closed.State != rtwire.SubClosed || len(pushes) == 0 {
		t.Fatalf("close ack %+v after %d pushes", closed, len(pushes))
	}

	rc.write(rtwire.SubResume{
		ID: 2, Query: "status_q", Period: 2,
		Kind: deadline.Soft, Deadline: 5, Depth: 16,
		AfterCursor: closed.Cursor,
	}.Encode())
	if a := expectSubAck(t, rc, nil); a.ID != 2 || a.State != rtwire.SubAdmitted || a.Cursor != closed.Cursor {
		t.Fatalf("resume ack: %+v", a)
	}
	for i := 0; i < 4; i++ {
		rc.write(rtwire.Sample{ID: uint64(i + 10), Image: "temp", Value: "22"}.Encode())
	}
	rc.write(rtwire.Flush{ID: 51}.Encode())
	var resumed []rtwire.Push
collect2:
	for {
		switch m := rc.read().(type) {
		case rtwire.Push:
			resumed = append(resumed, m)
		case rtwire.Flushed:
			break collect2
		}
	}
	// The Flush ack schedules the pushes its samples matured; it does not
	// order them ahead of itself (the writer serves acks and pushes as they
	// come), so the first resumed push may follow Flushed.
	for end := time.Now().Add(5 * time.Second); len(resumed) == 0 && time.Now().Before(end); {
		if m, ok := rc.read().(rtwire.Push); ok {
			resumed = append(resumed, m)
		}
	}
	if len(resumed) == 0 {
		t.Fatal("no pushes after resume")
	}
	if first := resumed[0]; first.ID != 2 || first.Cursor != closed.Cursor+1 ||
		first.Dropped != 0 || first.Expired != 0 {
		t.Fatalf("first resumed push: %+v (want cursor %d, fresh tallies)", first, closed.Cursor+1)
	}
}

// TestPushMetricsRowsOverWire: the push conservation rows and the wire-level
// subscription counters travel in the metrics frame under their pinned
// names — rtdbload's fan-out audit dereferences them remotely.
func TestPushMetricsRowsOverWire(t *testing.T) {
	_, _, addr := startNet(t, testConfig(), Options{})
	mm := fetchMetricRows(t, addr)
	for _, name := range []string{
		"subs_opened", "subs_closed", "push_scheduled", "pushed",
		"push_dropped", "push_expired", "net_subs_in", "net_pushes_out",
	} {
		if _, ok := mm[name]; !ok {
			t.Errorf("metrics frame missing pinned row %q", name)
		}
	}
}
