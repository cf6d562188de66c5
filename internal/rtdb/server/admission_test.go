package server

import (
	"testing"

	"rtc/internal/deadline"
	"rtc/internal/timeseq"
)

// TestAdmissionBoundaries pins the §4.1 admission-control boundary cases:
// the deadline comparison is rel >= Deadline (a query whose relative
// deadline equals EvalCost provably completes at the deadline and is late),
// MinUseful == 0 means must-meet-deadline, and a soft query is admitted late
// exactly when its decayed usefulness still reaches MinUseful.
func TestAdmissionBoundaries(t *testing.T) {
	cases := []struct {
		name     string
		evalCost uint64 // 0 = default (1); rel == EvalCost on an idle server
		q        QueryRequest

		evaluated, missed bool
		useful            uint64
		// exactly one of these metric counters must move
		hit, miss, noDeadline bool
		admissionSkip         bool
	}{
		{
			name:   "firm deadline exactly at eval cost is late",
			q:      QueryRequest{Query: "status_q", Kind: deadline.Firm, Deadline: 1, MinUseful: 1},
			missed: true, miss: true, admissionSkip: true,
		},
		{
			name:      "firm deadline one past eval cost is met",
			q:         QueryRequest{Query: "status_q", Kind: deadline.Firm, Deadline: 2, MinUseful: 1},
			evaluated: true, useful: 1, hit: true,
		},
		{
			name:   "firm zero MinUseful means must-meet-deadline",
			q:      QueryRequest{Query: "status_q", Kind: deadline.Firm, Deadline: 1},
			missed: true, miss: true, admissionSkip: true,
		},
		{
			name:   "soft late with no usefulness function decays to zero",
			q:      QueryRequest{Query: "status_q", Kind: deadline.Soft, Deadline: 1, MinUseful: 1},
			missed: true, miss: true, admissionSkip: true,
		},
		{
			// MinUseful == 0 means must-meet-deadline even though the decay
			// function still reports full usefulness at the deadline itself.
			name: "soft zero MinUseful means must-meet-deadline",
			q: QueryRequest{Query: "status_q", Kind: deadline.Soft, Deadline: 1,
				U: deadline.Hyperbolic(8, 1)}, // u(1) = max = 8, but skipped anyway
			missed: true, useful: 8, miss: true, admissionSkip: true,
		},
		{
			name:     "soft late but still useful enough is served",
			evalCost: 3,
			q: QueryRequest{Query: "status_q", Kind: deadline.Soft, Deadline: 2, MinUseful: 4,
				U: deadline.Hyperbolic(8, 2)}, // u(3) = 8/1 = 8 ≥ 4
			evaluated: true, useful: 8, hit: true,
		},
		{
			name:     "soft late with usefulness exactly at minimum is served",
			evalCost: 4,
			q: QueryRequest{Query: "status_q", Kind: deadline.Soft, Deadline: 2, MinUseful: 4,
				U: deadline.Hyperbolic(8, 2)}, // u(4) = 8/2 = 4 == MinUseful
			evaluated: true, useful: 4, hit: true,
		},
		{
			name:     "soft late below minimum usefulness is skipped",
			evalCost: 6,
			q: QueryRequest{Query: "status_q", Kind: deadline.Soft, Deadline: 2, MinUseful: 4,
				U: deadline.Hyperbolic(8, 2)}, // u(6) = 8/4 = 2 < 4
			missed: true, useful: 2, miss: true, admissionSkip: true,
		},
		{
			name:      "class (i) no deadline is never late",
			q:         QueryRequest{Query: "status_q"},
			evaluated: true, noDeadline: true,
		},
		{
			name:   "unknown query with a live deadline is a miss",
			q:      QueryRequest{Query: "no_such_q", Kind: deadline.Firm, Deadline: 10, MinUseful: 1},
			missed: true, miss: true,
		},
		{
			name:       "unknown query without deadline is not a miss",
			q:          QueryRequest{Query: "no_such_q"},
			noDeadline: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.EvalCost = tc.evalCost
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			defer s.Stop()
			c := s.Session(0)
			if err := c.InjectSample("temp", "21"); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}

			before := s.Metrics.Snapshot()
			resp, err := c.Query(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			after := s.Metrics.Snapshot()

			if resp.Evaluated != tc.evaluated {
				t.Errorf("Evaluated = %v, want %v", resp.Evaluated, tc.evaluated)
			}
			if resp.Missed != tc.missed {
				t.Errorf("Missed = %v, want %v", resp.Missed, tc.missed)
			}
			if resp.Useful != tc.useful {
				t.Errorf("Useful = %d, want %d", resp.Useful, tc.useful)
			}
			ec := tc.evalCost
			if ec == 0 {
				ec = 1
			}
			if tc.evaluated && resp.Served != resp.Issue+timeseq.Time(ec) {
				t.Errorf("Served = %d, want issue %d + eval cost %d", resp.Served, resp.Issue, ec)
			}

			b2u := map[bool]uint64{false: 0, true: 1}
			if got, want := after.DeadlineHit-before.DeadlineHit, b2u[tc.hit]; got != want {
				t.Errorf("DeadlineHit moved %d, want %d", got, want)
			}
			if got, want := after.DeadlineMiss-before.DeadlineMiss, b2u[tc.miss]; got != want {
				t.Errorf("DeadlineMiss moved %d, want %d", got, want)
			}
			if got, want := after.NoDeadline-before.NoDeadline, b2u[tc.noDeadline]; got != want {
				t.Errorf("NoDeadline moved %d, want %d", got, want)
			}
			if got, want := after.AdmissionSkip-before.AdmissionSkip, b2u[tc.admissionSkip]; got != want {
				t.Errorf("AdmissionSkip moved %d, want %d", got, want)
			}
			// The books close case by case: the query landed in exactly one
			// terminal counter.
			booksClose(t, tc.name, after)
		})
	}
}
