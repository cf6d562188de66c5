package replica

import (
	"net"
	"strconv"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// TestStandbyBoundsConnections: a standby's listener checks one of the
// follower server's sessions out per connection, as a primary's does, so the
// server's Sessions bound it: the third connection to a follower built with
// Sessions: 2 is refused CodeServerFull.
func TestStandbyBoundsConnections(t *testing.T) {
	_, _, addr := newTestPrimary(t, 1<<16, 1<<20)
	sc := testServer()
	sc.Sessions = 2
	r := openTestReplica(t, addr, sc)
	defer r.Close()
	la := listenStandby(t, r)
	for i := 0; i < sc.Sessions; i++ {
		standbyConn(t, la)
	}
	nc, err := net.Dial("tcp", la)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write(rtwire.Hello{Client: "one-too-many"}.Encode()); err != nil {
		t.Fatal(err)
	}
	msg, err := readMsg(newFrameReader(nc))
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := msg.(rtwire.Err); !ok || e.Code != rtwire.CodeServerFull {
		t.Fatalf("third connection to a 2-session standby: %T %+v, want Err/CodeServerFull", msg, msg)
	}
}

// TestPlannedPromotionKeepsConnection: Promote flips the standby's server in
// place under its running listener. A client holding a soft subscription on
// the standby, which has made a degraded read there, keeps its connection —
// no redial, no resubscribe. On it a sample and a firm query succeed, the
// subscription's cursors run on without a gap while its pushes stop being
// Degraded, and the alarm rule, installed at the flip and never before,
// fires for the samples taken after it and logs the firings. Both sets of
// books close.
func TestPlannedPromotionKeepsConnection(t *testing.T) {
	lp, _, addr := newTestPrimary(t, 1<<16, 1<<20)
	sc := testServer()
	sc.Rules = []rtdb.Rule{{
		Name: "alarm", On: "sample:temp", Mode: rtdb.Immediate,
		If: func(_ *rtdb.DB, e rtdb.Event) bool {
			v, _ := strconv.Atoi(e.Attr["value"])
			return v > 25
		},
		Then: func(*rtdb.DB, rtdb.Event) {},
	}}
	r := openTestReplica(t, addr, sc)
	defer r.Close()
	r.Start()
	// Every replicated sample is one the rule would fire on.
	replicate := func(events ...wal.Event) {
		t.Helper()
		for _, e := range events {
			if err := lp.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if !r.WaitSeq(lp.Seq(), 10*time.Second) {
			t.Fatalf("replica stuck at %d, want %d", r.Seq(), lp.Seq())
		}
	}
	hot := func(from, to timeseq.Time) (out []wal.Event) {
		for at := from; at <= to; at++ {
			out = append(out, wal.Sample(at, "temp", "30"))
		}
		return out
	}
	replicate(append(testEvents(0), hot(1, 4)...)...)

	la := listenStandby(t, r)
	c, err := client.Dial(la, client.Options{Name: "planned", HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe(client.SubSpec{
		Query: "status_q", Period: 2, Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1, Buffer: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	soft := client.Query{Query: "status_q", Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1}
	if res, err := c.Query(soft); err != nil || !res.Evaluated || c.Stats.Degraded.Load() != 1 {
		t.Fatalf("degraded read on the standby: %+v, err %v, degraded %d", res, err, c.Stats.Degraded.Load())
	}
	var cursor uint64
	expect := func(n int, degraded bool) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case p := <-sub.Pushes():
				if p.Cursor != cursor+1 || p.Dropped != 0 || p.Expired != 0 || p.Degraded != degraded {
					t.Fatalf("push after cursor %d: %+v, want the next cursor, degraded %v", cursor, p, degraded)
				}
				cursor = p.Cursor
			case <-time.After(5 * time.Second):
				t.Fatalf("no push after cursor %d", cursor)
			}
		}
	}
	replicate(hot(5, 8)...) // ticks at 6 and 8
	expect(2, true)
	srv := r.Server()
	if got := srv.Metrics.RuleFirings.Load(); got != 0 {
		t.Fatalf("the rule fired %d times while the node followed", got)
	}
	firings := len(r.Log().State().Firings)

	if _, err := r.Promote(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // chronons 9..12: ticks at 10 and 12
		if err := c.InjectSample("temp", "30"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush on the promoted node: %v", err)
	}
	expect(2, false)
	firm := client.Query{Query: "status_q", Kind: deadline.Firm, Deadline: 1 << 20, MinUseful: 1}
	if res, err := c.Query(firm); err != nil || !res.Evaluated || res.Missed {
		t.Fatalf("firm query on the promoted node: %+v, err %v", res, err)
	}
	if got := srv.Metrics.SamplesApplied.Load(); got != 4 {
		t.Errorf("promoted node applied %d of the 4 samples", got)
	}
	if got := srv.Metrics.RuleFirings.Load(); got != 4 {
		t.Errorf("the rule fired %d times for 4 samples after the flip", got)
	}
	if got := len(r.Log().State().Firings) - firings; got != 4 {
		t.Errorf("%d firings logged after the flip, want 4", got)
	}
	if re, rs := c.Stats.Redials.Load(), c.Stats.Resubscribes.Load(); re != 0 || rs != 0 {
		t.Errorf("the promotion cost %d redials and %d resubscribes", re, rs)
	}

	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics.Snapshot()
	if m.QueriesIn != m.QueriesAccounted() {
		t.Errorf("query books: in %d, accounted %d", m.QueriesIn, m.QueriesAccounted())
	}
	if m.PushScheduled != m.PushAccounted() || m.SubsOpened != m.SubsClosed {
		t.Errorf("push books: scheduled %d accounted %d; subs opened %d closed %d",
			m.PushScheduled, m.PushAccounted(), m.SubsOpened, m.SubsClosed)
	}
}
