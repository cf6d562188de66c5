package sub

import (
	"cmp"
	"slices"

	"rtc/internal/timeseq"
)

// Key identifies an evaluation group: subscriptions naming the same catalog
// query at the same period share one evaluation per tick regardless of
// their deadline envelopes (those are scored per member, which costs
// nothing — only the catalog call and its EvalCost are shared).
type Key struct {
	Query  string
	Period timeseq.Time
}

// Group is one evaluation group. Owned by the apply loop.
type Group struct {
	key     Key
	next    timeseq.Time
	members []*Sub
}

// Key returns the group's identity.
func (g *Group) Key() Key { return g.key }

// Next returns the group's next due tick.
func (g *Group) Next() timeseq.Time { return g.next }

// Advance consumes the due tick: it returns the tick's issue time and
// schedules the next one.
func (g *Group) Advance() (issue timeseq.Time) {
	issue = g.next
	g.next += g.key.Period
	return issue
}

// Members returns the group's member slice (owned by the apply loop; do not
// retain across table mutations).
func (g *Group) Members() []*Sub { return g.members }

// Sub is one member of a group: an attached subscription, whose ticks are
// delivered through Q, or a registered periodic query, whose ticks are counted
// in Tally (Q is nil then). Cursor and expiry bookkeeping are owned by the
// apply loop; Q is the only field transports touch concurrently.
type Sub struct {
	Spec  Spec
	Q     *Queue
	Tally *Tally

	cursor  uint64 // last assigned cursor (== base right after attach)
	base    uint64 // cursor base of this attachment (AfterCursor on resume)
	expired uint64 // cumulative admission-expired ticks this attachment
	g       *Group
}

// Cursor returns the last assigned cursor.
func (s *Sub) Cursor() uint64 { return s.cursor }

// Base returns this attachment's cursor base.
func (s *Sub) Base() uint64 { return s.base }

// Tick is the only way a tick consumes a cursor: the member's next cursor is
// spent on the tick issued at issue and finishing at finish whatever becomes
// of it. ok is false when per-tick admission expires the tick — counted, so
// the next delivered push accounts for it. Otherwise p carries the cursor,
// the usefulness at finish, the two chronons, and Expired stamped before this
// tick's outcome could count, so it covers exactly the cursors below p.Cursor;
// the caller adds what it evaluated. late is Score's (the standby books a
// late-but-useful tick as a miss; the primary does not).
func (s *Sub) Tick(issue, finish timeseq.Time) (p Push, late, ok bool) {
	s.cursor++
	env := s.Spec.Envelope()
	useful, late := env.Score(finish - issue)
	if !env.Admissible(useful, late) {
		s.expired++
		return Push{}, late, false
	}
	return Push{
		Cursor: s.cursor, Expired: s.expired, Useful: useful,
		Issue: issue, Served: finish,
	}, late, true
}

// Table is the set of live members, grouped for shared evaluation. Owned by
// the apply loop.
type Table struct {
	groups map[Key]*Group
	// order lists the groups oldest first: Due and NextDue walk it, never
	// the map, so which of two groups due at one chronon is served first is
	// decided by attach order — a registered periodic query write-ahead-logs
	// each invocation, and the log must not depend on map iteration.
	order []*Group
	due   []*Group // Due's result, reused
	n     int
}

// NewTable builds an empty table.
func NewTable() *Table {
	return &Table{groups: make(map[Key]*Group)}
}

// Len returns the number of attached members.
func (t *Table) Len() int { return t.n }

// Attach adds a subscription and returns its handle. after is the cursor to
// continue from (0 for a fresh subscription; the client's newest cursor on
// a resume — delivery then continues at after+1, so cursors stay strictly
// increasing across attachments and no acknowledged tick is replayed).
// A new group's first tick is due one period after now; joining an existing
// group adopts its schedule, so co-grouped members tick in lockstep. q is the
// subscription's delivery queue, built by the caller so that it can choose
// where the queue posts its wake tokens.
func (t *Table) Attach(spec Spec, after uint64, q *Queue, now timeseq.Time) *Sub {
	return t.attach(&Sub{Spec: spec, Q: q, cursor: after, base: after}, now+spec.Period)
}

// AttachTally adds a registered periodic query: a member whose ticks are
// counted in tally. A new group's first tick is due at first itself — a
// registration names its first invocation; an existing group's schedule is
// adopted as in Attach.
func (t *Table) AttachTally(spec Spec, tally *Tally, first timeseq.Time) *Sub {
	return t.attach(&Sub{Spec: spec, Tally: tally}, first)
}

func (t *Table) attach(s *Sub, first timeseq.Time) *Sub {
	k := Key{Query: s.Spec.Query, Period: s.Spec.Period}
	g, ok := t.groups[k]
	if !ok {
		g = &Group{key: k, next: first}
		t.groups[k] = g
		t.order = append(t.order, g)
	}
	s.g = g
	g.members = append(g.members, s)
	t.n++
	return s
}

// Detach removes a subscription; the last member out deletes the group.
// The caller still owns s.Q and is responsible for closing it (and
// accounting what Close discards).
func (t *Table) Detach(s *Sub) {
	g := s.g
	if g == nil {
		return
	}
	s.g = nil
	for i, m := range g.members {
		if m == s {
			g.members = append(g.members[:i], g.members[i+1:]...)
			t.n--
			break
		}
	}
	if len(g.members) == 0 {
		delete(t.groups, g.key)
		i := slices.Index(t.order, g)
		t.order = slices.Delete(t.order, i, i+1)
	}
}

// NextDue returns the earliest due tick over all groups.
func (t *Table) NextDue() (timeseq.Time, bool) {
	var due timeseq.Time
	pending := false
	for _, g := range t.order {
		if !pending || g.next < due {
			due, pending = g.next, true
		}
	}
	return due, pending
}

// Due returns the groups due at or before now, earliest due first and in
// attach order among groups due at one chronon. The slice is the table's
// own, reused: it is valid until the next call.
func (t *Table) Due(now timeseq.Time) []*Group {
	out := t.due[:0]
	for _, g := range t.order {
		if g.next <= now {
			out = append(out, g)
		}
	}
	// Stable, so groups due at one chronon keep the walk's attach order.
	slices.SortStableFunc(out, func(a, b *Group) int { return cmp.Compare(a.next, b.next) })
	t.due = out
	return out
}
