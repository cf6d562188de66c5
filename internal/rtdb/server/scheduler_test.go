package server

import (
	"errors"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/sub"
	"rtc/internal/timeseq"
)

// driveWatched starts s, runs drive and stops s, failing the test — instead
// of hanging the suite — when drive has not returned within five seconds. A
// server whose apply loop spins never answers Flush or Tick and never sees
// quit, so on a trip it is abandoned, not stopped.
func driveWatched(t *testing.T, s *Server, drive func() error) {
	t.Helper()
	s.Start()
	done := make(chan error, 1)
	go func() { done <- drive() }()
	select {
	case err := <-done:
		s.Stop()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("apply loop livelocked: clock at %d and still serving periodic invocations", s.Now())
	}
}

// sampleFlushTick is the request sequence that used to spin the apply loop:
// the first Flush's step makes the registration due, the second has to get
// past it, and the idle jump must reach its target.
func sampleFlushTick(s *Server, chronons uint64) func() error {
	return func() error {
		c := s.Session(0)
		if err := c.InjectSample("temp", "21"); err != nil {
			return err
		}
		if err := c.Flush(); err != nil {
			return err
		}
		if err := c.Flush(); err != nil {
			return err
		}
		return s.Tick(chronons)
	}
}

// TestPeriodicRefusesInfeasibleDeadlineFree: a deadline-free registration has
// nothing for per-tick admission to shed, so one the server cannot keep up
// with is refused outright — the refusal Subscribe has always made.
func TestPeriodicRefusesInfeasibleDeadlineFree(t *testing.T) {
	cfg := testConfig()
	cfg.EvalCost = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, period := range []timeseq.Time{1, 2} {
		err := s.RegisterPeriodic(PeriodicQuery{Name: "spin", Query: "temp_q", Period: period})
		if !errors.Is(err, ErrNotAdmissible) {
			t.Fatalf("period %d at EvalCost 2: err = %v, want ErrNotAdmissible", period, err)
		}
	}
	if err := s.RegisterPeriodic(PeriodicQuery{Name: "ok", Query: "temp_q", Period: 3}); err != nil {
		t.Fatalf("period 3 at EvalCost 2 is feasible: %v", err)
	}
	driveWatched(t, s, sampleFlushTick(s, 60))
	if r := s.PeriodicReport(); len(r) != 1 || r[0].Hit == 0 || r[0].Hit != r[0].Issued {
		t.Fatalf("feasible deadline-free registration: %+v", r)
	}
}

// TestPeriodicPeriodEqualsEvalCost: a firm registration whose period equals
// the evaluation cost re-arms itself with every evaluation it pays for. Its
// lateness never grows, so admission never sheds it; only measuring due-ness
// against the step's entry clock lets the step end.
func TestPeriodicPeriodEqualsEvalCost(t *testing.T) {
	cfg := testConfig()
	cfg.EvalCost = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterPeriodic(PeriodicQuery{
		Name: "lockstep", Query: "temp_q", Period: 2,
		Kind: deadline.Firm, Deadline: 5, MinUseful: 1,
	}); err != nil {
		t.Fatal(err)
	}
	driveWatched(t, s, sampleFlushTick(s, 200))
	r := s.PeriodicReport()[0]
	if r.Issued == 0 || r.Issued != r.Hit+r.Missed {
		t.Fatalf("periodic accounting: %+v", r)
	}
}

// TestPeriodicOverloadKeepsUp: period 2 under EvalCost 3 with a deadline some
// invocations can meet. The backlog's lateness grows until admission sheds
// it, then a fresh invocation hits again: both outcomes occur, the skips are
// counted, and the idle jump ends at its target, not a backlog later.
func TestPeriodicOverloadKeepsUp(t *testing.T) {
	cfg := testConfig()
	cfg.EvalCost = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterPeriodic(PeriodicQuery{
		Name: "hot", Query: "temp_q", Period: 2,
		Kind: deadline.Firm, Deadline: 4, MinUseful: 1,
	}); err != nil {
		t.Fatal(err)
	}
	var before timeseq.Time
	driveWatched(t, s, func() error {
		if err := sampleFlushTick(s, 0)(); err != nil {
			return err
		}
		before = s.Now()
		return s.Tick(200)
	})
	r := s.PeriodicReport()[0]
	if r.Hit == 0 || r.Missed == 0 || r.Issued != r.Hit+r.Missed {
		t.Fatalf("overloaded registration must both hit and shed: %+v", r)
	}
	m := s.Metrics.Snapshot()
	if m.AdmissionSkip == 0 {
		t.Fatal("shed invocations were not counted as admission skips")
	}
	if end := s.Now(); end < before+200 || end > before+200+timeseq.Time(cfg.EvalCost) {
		t.Fatalf("Tick(200) from %d ended at %d, want within one EvalCost of %d", before, end, before+200)
	}
}

// TestPeriodicSharesGroupWithSubscriber is the differential between the two
// kinds of member: a registration and a subscription with the same (Query,
// Period) and envelope are one group, so each tick is one catalog evaluation
// and both see the same outcome — the registration's hit is the subscriber's
// delivered cursor, its miss the subscriber's expired one. EvalCost exceeds
// the period, so a backlog forms and is shed along the way.
func TestPeriodicSharesGroupWithSubscriber(t *testing.T) {
	pq := PeriodicQuery{
		Name: "hot", Query: "temp_q", Period: 2,
		Kind: deadline.Firm, Deadline: 4, MinUseful: 1,
	}
	evals := 0
	start := func(count bool) *Server {
		cfg := testConfig()
		cfg.EvalCost = 3
		if count {
			temp := cfg.Catalog["temp_q"]
			cfg.Catalog["temp_q"] = func(v *rtdb.View) []rtdb.Value { evals++; return temp(v) }
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RegisterPeriodic(pq); err != nil {
			t.Fatal(err)
		}
		s.Start()
		t.Cleanup(s.Stop)
		return s
	}
	// alone runs the registration with no subscriber beside it, through the
	// same steps (two on the apply loop here for the attach and the look at
	// the table below): what the subscriber's membership costs is the difference.
	s, alone := start(true), start(false)
	for range 2 {
		if err := alone.apply(func() {}); err != nil {
			t.Fatal(err)
		}
	}
	ss, err := s.Subscribe(sub.Spec{
		Query: pq.Query, Period: pq.Period, Kind: pq.Kind,
		Deadline: pq.Deadline, MinUseful: pq.MinUseful,
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.apply(func() {
		if g := s.subs.Due(^timeseq.Time(0)); len(g) != 1 || len(g[0].Members()) != 2 {
			t.Errorf("registration and subscription did not share one group: %d groups", len(g))
		}
	}); err != nil {
		t.Fatal(err)
	}

	// The subscription joined before the registration's first tick was
	// served, so the two see every tick together: after each idle chronon the
	// registration's hits are exactly the pushes that have arrived.
	var delivered, lastCursor, expired uint64
	for i := 0; i < 120; i++ {
		for _, srv := range []*Server{s, alone} {
			if err := srv.Tick(1); err != nil {
				t.Fatal(err)
			}
		}
		for p, _, ok := ss.Pop(); ok; p, _, ok = ss.Pop() {
			delivered++
			lastCursor, expired = p.Cursor, p.Expired
			if !p.Evaluated || p.Served-p.Issue >= pq.Deadline {
				t.Fatalf("delivered push %+v misses the envelope the registration counted a hit for", p)
			}
		}
		if hit := s.PeriodicReport()[0].Hit; hit != delivered {
			t.Fatalf("chronon %d: registration has %d hits, subscriber %d pushes", s.Now(), hit, delivered)
		}
	}
	r, m := s.PeriodicReport()[0], s.Metrics.Snapshot()
	if r.Hit == 0 || r.Missed == 0 {
		t.Fatalf("EvalCost 3 over period 2 must both serve and shed: %+v", r)
	}
	// Expired ticks after the last delivered push are in no stamp yet; the
	// cursor the cancel returns closes the count.
	last, _ := ss.Cancel()
	expired += last - lastCursor
	if last != r.Issued || delivered != r.Hit || expired != r.Missed {
		t.Fatalf("subscriber saw %d ticks, %d delivered, %d expired; registration %+v", last, delivered, expired, r)
	}

	// One evaluation per served tick, EvalCost once each: the second member
	// moved neither the clock nor the registration's outcomes.
	if uint64(evals) != r.Hit {
		t.Fatalf("%d catalog evaluations for %d served ticks of one group", evals, r.Hit)
	}
	if ra := alone.PeriodicReport()[0]; ra != r || alone.Now() != s.Now() {
		t.Fatalf("with a subscriber %+v at chronon %d, alone %+v at chronon %d", r, s.Now(), ra, alone.Now())
	}
	booksClose(t, "after the cancel", s.Metrics.Snapshot())
	if m.PushDropped != 0 {
		t.Fatalf("the queue was drained every chronon, yet %d pushes were dropped", m.PushDropped)
	}
}
