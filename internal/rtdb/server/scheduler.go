package server

import (
	"fmt"

	"rtc/internal/deadline"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/sub"
	"rtc/internal/timeseq"
)

// PeriodicQuery is a standing query re-issued every Period chronons — the
// serving counterpart of §5.1.3's pq words, scored invocation by
// invocation under the §4.1 discipline instead of all-or-nothing like
// language (10).
type PeriodicQuery struct {
	// Name identifies the registration in stats and the WAL.
	Name string
	// Query is the catalog query evaluated at each invocation.
	Query string
	// Issue is the first invocation's issue chronon; Period the spacing.
	Issue  timeseq.Time
	Period timeseq.Time
	// Kind, Deadline, MinUseful, U: the per-invocation deadline envelope,
	// as in QueryRequest (U over relative time since the invocation's
	// issue).
	Kind      deadline.Kind
	Deadline  timeseq.Time
	MinUseful uint64
	U         deadline.Usefulness
}

// PeriodicStats is one registration's tally.
type PeriodicStats struct {
	Name                string
	Issued, Hit, Missed uint64
}

// RegisterPeriodic adds a standing periodic query, before Start or on the
// running server (a promoted follower registers its schedule after the
// flip). The registration is a member of the subscription table like
// any other — grouped by (Query, Period), one catalog evaluation per group
// tick, scored against its own envelope — whose outcome is a tally instead
// of a delivery queue: its first invocation is due at max(Issue, now), or on
// the schedule of the group it joins. A deadline-free registration the server
// cannot keep up with is refused with ErrNotAdmissible (admitSchedule); one
// whose deadline envelope can never be met is taken, and every invocation is
// a counted miss.
func (s *Server) RegisterPeriodic(pq PeriodicQuery) error {
	spec := sub.Spec{
		Query: pq.Query, Period: pq.Period, Kind: pq.Kind,
		Deadline: pq.Deadline, MinUseful: pq.MinUseful, U: pq.U,
	}
	if err := s.admitSchedule(spec); err != nil {
		return fmt.Errorf("periodic query %q: %w", pq.Name, err)
	}
	t := &sub.Tally{Name: pq.Name}
	attach := func() {
		s.subs.AttachTally(spec, t, max(pq.Issue, s.Now()))
		s.periodic = append(s.periodic, t)
	}
	if !s.started.Load() {
		attach()
		return nil
	}
	return s.apply(attach)
}

// PeriodicReport returns each registration's tally, in registration order.
func (s *Server) PeriodicReport() []PeriodicStats {
	out := make([]PeriodicStats, 0, len(s.periodic))
	for _, t := range s.periodic {
		out = append(out, PeriodicStats{
			Name:   t.Name,
			Issued: t.Issued.Load(),
			Hit:    t.Hit.Load(),
			Missed: t.Missed.Load(),
		})
	}
	return out
}

// tallyTick books one tick of a registered periodic query: a hit is
// write-ahead-logged as the invocation's issue record, a miss — shed by
// admission control, its EvalCost not spent — is only counted.
func (s *Server) tallyTick(m *sub.Sub, issue timeseq.Time, hit bool) {
	t := m.Tally
	t.Issued.Add(1)
	s.Metrics.PeriodicIssued.Add(1)
	if !hit {
		t.Missed.Add(1)
		s.Metrics.PeriodicMiss.Add(1)
		return
	}
	s.walAppend(wal.Query(issue, "periodic:"+t.Name, m.Spec.Query, "",
		uint64(m.Spec.Kind), uint64(m.Spec.Deadline), m.Spec.MinUseful))
	t.Hit.Add(1)
	s.Metrics.PeriodicHit.Add(1)
}
