// Package sub is the standing-query subsystem of the rtdbd serving stack:
// a client registers a periodic query once (query name + period + per-tick
// deadline envelope) and the server evaluates it on the apply loop's
// periodic tick, pushing each invocation's stamped result instead of making
// the client poll. It is the serving counterpart of §5.1.3's pq words for
// the fan-out workload: many concurrent watchers with per-deadline
// guarantees over one evolving state (the real-time parallel model of
// PAPERS.md).
//
// The package owns the three mechanisms the transports share:
//
//   - Grouping: subscriptions with the same (query, period) share one
//     evaluation per tick — one catalog call, one EvalCost clock advance —
//     and fan the answers out to every member, each scored against its own
//     translated deadline envelope. One write, N watchers, O(1) evaluations.
//
//   - Cursors: every scheduled tick consumes exactly one monotone cursor
//     value per member, whether the result was delivered, dropped by the
//     bounded queue, or expired by per-tick admission. Because the delivery
//     queue is FIFO and drop-oldest discards from the head (the minimum
//     queued cursor), every cursor below a delivered push's is already
//     resolved when it arrives — so a client can audit delivery with plain
//     arithmetic: received == cursor − base − dropped − expired.
//
//   - Bounded drop-oldest delivery: a slow reader loses the oldest queued
//     tick, never the newest, and every loss is counted, so the server's
//     BOOK-pushes (scheduled == pushed + dropped + expired) closes.
//
// A member of the table is not always a client. The server's own registered
// periodic queries (server.RegisterPeriodic) ride the same table as members
// whose outcome is a Tally instead of a Queue: grouped, scheduled, scored
// and cursored like any subscription, counted instead of delivered. There is
// no other periodic schedule on the apply loop.
//
// Ownership: Table, Group, and Sub bookkeeping (cursors, expiry tallies,
// group schedules) belong to the server's apply loop — single-writer, no
// locks. Queue is the only concurrent structure: the apply loop puts, one
// transport pump pops.
package sub

import (
	"sync/atomic"

	"rtc/internal/deadline"
	"rtc/internal/timeseq"
)

// DefaultDepth bounds a subscription's delivery queue when the subscriber
// names no depth of its own.
const DefaultDepth = 32

// Spec is one subscription's standing envelope, in server-relative terms:
// Deadline is the translated remaining deadline per tick (the transport
// already subtracted the client's consumed chronons, netserve's
// remaining = D − E), and U is the shifted decay U'(t) = U(t+E).
type Spec struct {
	Query  string
	Period timeseq.Time
	Kind   deadline.Kind
	// Deadline is relative to each tick's issue chronon.
	Deadline  timeseq.Time
	MinUseful uint64
	U         deadline.Usefulness
}

// Push is one tick result as the evaluator stamps it. Dropped is not here:
// it is stamped at send time by the transport from Queue.Pop's cumulative
// counter, because drops keep happening while a push waits in the queue.
type Push struct {
	// Cursor is the tick's monotone per-subscription cursor.
	Cursor uint64
	// Expired is the cumulative count of admission-expired ticks among this
	// attachment's cursors below Cursor, stamped at schedule time.
	Expired   uint64
	Useful    uint64
	Missed    bool
	Evaluated bool
	// Degraded marks a tick evaluated by a hot standby from replicated
	// state; always false on a primary.
	Degraded      bool
	Issue, Served timeseq.Time
	Answers       []string
}

// Envelope is the spec's §4.1 discipline, by value: deadline.Envelope's Score
// and Admissible are the only scoring there is, so a standing query's tick
// and the equivalent polled query always land in the same outcome class.
func (s Spec) Envelope() deadline.Envelope {
	return deadline.Envelope{Kind: s.Kind, Deadline: s.Deadline, MinUseful: s.MinUseful, U: s.U}
}

// Tally is the outcome of a member nobody reads pushes from: a periodic
// query registered on the server itself (server.RegisterPeriodic), which
// wants each invocation counted, not delivered. The counters are atomics so
// report readers need no lock; the apply loop is the only writer.
type Tally struct {
	Name                string
	Issued, Hit, Missed atomic.Uint64
}
