package netserve

import (
	"rtc/internal/deadline"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// Translate maps a wire query's client-relative deadline envelope onto the
// server's chronon frame, deciding at the same time whether the query is
// already dead on arrival.
func Translate(q rtwire.Query) (qr server.QueryRequest, expired bool) {
	env := translateEnvelope(q.Kind, q.Deadline, q.Elapsed, q.MinUseful, q.Decay)
	return server.QueryRequest{
		Query: q.Query, Candidate: q.Candidate,
		Kind: env.Kind, Deadline: env.Deadline, MinUseful: env.MinUseful, U: env.U,
	}, !env.Admissible(env.Score(0))
}

// translateEnvelope is the rule (DESIGN.md §9), shared by aperiodic queries
// and subscriptions: the client issued the request at its own instant 0 with
// relative deadline D and has consumed E chronons getting it here
// (queueing, retries — each attempt re-stamps E). The server anchors the
// remainder at the arrival chronon:
//
//	remaining = D − E            (saturating at 0)
//	U'(t)     = U(t + E)         (decay shifted so its origin stays the
//	                              client's issue instant)
//
// Expired on arrival — rejected unevaluated, accounted a miss — is exactly
// the §4.1 admission predicate of the translated envelope at t = 0, with
// the knowledge that usefulness is non-increasing: the deadline has passed
// (E ≥ D) and even serving instantaneously could not reach MinUseful. For
// firm queries usefulness after the deadline is 0 (equation (2)), so E ≥ D
// alone decides; a soft query may still be worth serving if its decayed
// usefulness clears MinUseful.
//
// Boundary cases are part of the contract: D = 0 on a deadline-carrying
// query is expired the instant it is issued (rel ≥ 0 = D always holds);
// D = 2⁶⁴−1 never expires on any feasible horizon and must not overflow.
func translateEnvelope(kind deadline.Kind, dl, elapsed timeseq.Time, minUseful uint64, decay rtwire.Decay) deadline.Envelope {
	env := deadline.Envelope{Kind: kind, MinUseful: minUseful}
	if kind == deadline.None {
		return env
	}
	if elapsed < dl {
		env.Deadline = dl - elapsed
	}
	if u := decay.Func(dl); u != nil && elapsed > 0 {
		env.U = func(t timeseq.Time) uint64 { return u(t + elapsed) }
	} else {
		env.U = u
	}
	return env
}
