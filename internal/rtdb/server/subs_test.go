package server

import (
	"testing"

	"rtc/internal/deadline"
	"rtc/internal/rtdb/sub"
	"rtc/internal/timeseq"
)

// drain pops everything currently queued on ss.
func drain(ss *ServerSub) []sub.Push {
	var out []sub.Push
	for {
		p, _, ok := ss.Pop()
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

func TestSubscribePeriodicDelivery(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()

	if err := s.Session(0).InjectSample("temp", "21"); err != nil {
		t.Fatal(err)
	}
	// Injection is asynchronous; the flush barrier makes sure the sample is
	// applied before the first tick evaluates.
	if err := s.Session(0).Flush(); err != nil {
		t.Fatal(err)
	}
	ss, err := s.Subscribe(sub.Spec{
		Query: "status_q", Period: 4,
		Kind: deadline.Firm, Deadline: 3, MinUseful: 1,
	}, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Three periods of idle time: ticks at +4, +8, +12 from attach.
	if err := s.Tick(12); err != nil {
		t.Fatal(err)
	}
	got := drain(ss)
	if len(got) != 3 {
		t.Fatalf("got %d pushes, want 3", len(got))
	}
	for i, p := range got {
		if p.Cursor != uint64(i+1) {
			t.Fatalf("push %d: cursor %d, want %d", i, p.Cursor, i+1)
		}
		if p.Expired != 0 || !p.Evaluated {
			t.Fatalf("push %d: %+v", i, p)
		}
		if len(p.Answers) != 1 || p.Answers[0] != "ok" {
			t.Fatalf("push %d answers: %v", i, p.Answers)
		}
		if p.Served-p.Issue != 1 { // EvalCost 1, served at the due tick
			t.Fatalf("push %d stamps: issue %d served %d", i, p.Issue, p.Served)
		}
	}
	last, err := ss.Cancel()
	if err != nil || last != 3 {
		t.Fatalf("Cancel = (%d, %v), want (3, nil)", last, err)
	}

	m := s.Metrics.Snapshot()
	if m.SubsOpened != 1 || m.SubsClosed != 1 {
		t.Fatalf("subs opened/closed = %d/%d", m.SubsOpened, m.SubsClosed)
	}
	if m.PushScheduled != 3 || m.Pushed != 3 {
		t.Fatalf("scheduled %d, pushed %d; want 3 and 3", m.PushScheduled, m.Pushed)
	}
	booksClose(t, "after the cancel", m)
}

// TestSubscribeGroupSharing: N subscribers on the same (query, period) cost
// one evaluation per tick — the clock advances by one EvalCost per tick, not
// per member — while each member gets its own cursored push.
func TestSubscribeGroupSharing(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()

	spec := sub.Spec{Query: "temp_q", Period: 5, Kind: deadline.Soft, Deadline: 4, MinUseful: 0}
	var subs []*ServerSub
	for i := 0; i < 3; i++ {
		ss, err := s.Subscribe(spec, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, ss)
	}
	before := s.Now()
	if err := s.Tick(5); err != nil {
		t.Fatal(err)
	}
	// One tick: the clock moved period + one EvalCost (the shared
	// evaluation), not period + 3 EvalCosts.
	if after := s.Now(); after != before+5+1 {
		t.Fatalf("clock after one shared tick: %d, want %d", after, before+6)
	}
	for i, ss := range subs {
		got := drain(ss)
		if len(got) != 1 || got[0].Cursor != 1 {
			t.Fatalf("member %d: pushes %+v", i, got)
		}
	}
	m := s.Metrics.Snapshot()
	if m.PushScheduled != 3 || m.Pushed != 3 {
		t.Fatalf("scheduled/pushed = %d/%d, want 3/3", m.PushScheduled, m.Pushed)
	}
}

// TestPerTickAdmissionExpiry: a tick that falls due while the clock is busy
// elsewhere (here: inside aperiodic evaluations) is re-checked against the
// translated deadline and expired without evaluation — a counted cursor
// gap, not a silent skip, and the next on-time tick carries the tally.
func TestPerTickAdmissionExpiry(t *testing.T) {
	cfg := testConfig()
	cfg.EvalCost = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()

	ss, err := s.Subscribe(sub.Spec{
		Query: "status_q", Period: 5,
		Kind: deadline.Firm, Deadline: 4, MinUseful: 1,
	}, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Two no-deadline queries push the clock to 6: the tick due at 5 is
	// now 1 late at start, finishing at 9 — 4 past issue, at the firm
	// deadline — so per-tick admission expires it without evaluating.
	for i := 0; i < 2; i++ {
		if _, err := s.Session(0).Query(QueryRequest{Query: "status_q"}); err != nil {
			t.Fatal(err)
		}
	}
	// Idle to the next tick at 10 (clock is at 6), served on time
	// (finish 13, 3 < 4).
	if err := s.Tick(4); err != nil {
		t.Fatal(err)
	}
	got := drain(ss)
	if len(got) != 1 {
		t.Fatalf("got %d pushes, want 1 (first tick expired)", len(got))
	}
	p := got[0]
	if p.Cursor != 2 || p.Expired != 1 {
		t.Fatalf("push after expiry: cursor %d expired %d, want 2/1", p.Cursor, p.Expired)
	}
	m := s.Metrics.Snapshot()
	if m.PushExpired != 1 || m.PushScheduled < 2 {
		t.Fatalf("expired/scheduled = %d/%d", m.PushExpired, m.PushScheduled)
	}
	// Client-side audit arithmetic: received == cursor − base − dropped − expired.
	if received := uint64(len(got)); received != p.Cursor-0-0-p.Expired {
		t.Fatalf("cursor audit: received %d, cursor %d, expired %d", received, p.Cursor, p.Expired)
	}
}

// TestDropOldestAccounting: a subscriber that never reads loses the oldest
// queued pushes, and cancel accounts the stragglers — the conservation law
// holds with zero deliveries.
func TestDropOldestAccounting(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()

	ss, err := s.Subscribe(sub.Spec{Query: "status_q", Period: 2, Kind: deadline.Soft, Deadline: 5}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Tick(6); err != nil { // ticks at +2, +4, +6: three pushes into depth 1
		t.Fatal(err)
	}
	if _, err := ss.Cancel(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics.Snapshot()
	if m.PushScheduled != 3 || m.Pushed != 0 || m.PushDropped != 3 {
		t.Fatalf("scheduled/pushed/dropped = %d/%d/%d, want 3/0/3",
			m.PushScheduled, m.Pushed, m.PushDropped)
	}
	booksClose(t, "after the cancel", m)
}

// TestSubTickAllocs gates the tick path's allocations: a round of due ticks
// allocates what its evaluations do and nothing more — Due hands back one
// reused slice, and scoring, cursors and queue puts allocate nothing. The
// server is not started: the test is the apply loop.
func TestSubTickAllocs(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.step(request{kind: reqSample, image: "temp", value: "21"})
	var qs []*sub.Queue
	for _, query := range []string{"status_q", "temp_q"} {
		for i := 0; i < 4; i++ {
			spec := sub.Spec{Query: query, Period: 4, Kind: deadline.Soft, Deadline: 1 << 40, MinUseful: 1}
			q := sub.NewQueue(64)
			s.subs.Attach(spec, 0, q, timeseq.Time(s.clock.Load()))
			qs = append(qs, q)
		}
	}
	// One round: the clock jumps to the groups' shared next tick, each is
	// evaluated once (their EvalCost of 1 each leaves the clock short of the
	// tick after), and every queue is emptied.
	round := func() {
		due, _ := s.subs.NextDue()
		s.advance(due)
		s.runSubs()
		for _, q := range qs {
			for _, _, ok := q.Pop(); ok; _, _, ok = q.Pop() {
			}
		}
	}
	round()
	ticks0 := s.Metrics.Snapshot().PushScheduled
	got := testing.AllocsPerRun(100, round)
	if ticks := s.Metrics.Snapshot().PushScheduled - ticks0; ticks != 101*8 {
		t.Fatalf("%d pushes scheduled over 101 rounds, want %d", ticks, 101*8)
	}
	view := s.db.ViewNow()
	evals := testing.AllocsPerRun(100, func() {
		_ = s.cfg.Catalog["status_q"](view)
		_ = s.cfg.Catalog["temp_q"](view)
	})
	t.Logf("%.1f allocs per round, %.1f of them the two evaluations'", got, evals)
	if got > evals {
		t.Errorf("a round of two group ticks: %.1f allocs, its evaluations %.1f", got, evals)
	}
}
