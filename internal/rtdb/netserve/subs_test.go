package netserve

import (
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/rtwire"
)

// TestSubRefusalsOverWire: an unknown catalog query and a dead-on-arrival
// envelope come back as refused SubAcks (no attachment, no pump); a
// duplicate id and an unknown-id cancel are protocol errors.
func TestSubRefusalsOverWire(t *testing.T) {
	s, _, addr := startNet(t, testConfig(), Options{}, nil)
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
	_, _, addr := startNet(t, testConfig(), Options{}, nil)
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
	_, _, addr := startNet(t, testConfig(), Options{}, nil)
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
