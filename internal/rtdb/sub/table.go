package sub

import "rtc/internal/timeseq"

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

// Sub is one attached subscription. Cursor and expiry bookkeeping are owned
// by the apply loop; Q is the only field transports touch concurrently.
type Sub struct {
	Spec Spec
	Q    *Queue

	cursor  uint64 // last assigned cursor (== base right after attach)
	base    uint64 // cursor base of this attachment (AfterCursor on resume)
	expired uint64 // cumulative admission-expired ticks this attachment
	g       *Group
}

// Cursor returns the last assigned cursor.
func (s *Sub) Cursor() uint64 { return s.cursor }

// Base returns this attachment's cursor base.
func (s *Sub) Base() uint64 { return s.base }

// Expired returns the cumulative expired count for this attachment — the
// value stamped into a push scheduled now covers exactly the cursors below
// it, because expiry for the current cursor is decided after the stamp.
func (s *Sub) Expired() uint64 { return s.expired }

// AssignCursor consumes the next cursor value for a scheduled tick.
func (s *Sub) AssignCursor() uint64 {
	s.cursor++
	return s.cursor
}

// Expire records the current cursor's tick as admission-expired.
func (s *Sub) Expire() { s.expired++ }

// Table is the set of live subscriptions, grouped for shared evaluation.
// Owned by the apply loop.
type Table struct {
	groups map[Key]*Group
	n      int
}

// NewTable builds an empty table.
func NewTable() *Table {
	return &Table{groups: make(map[Key]*Group)}
}

// Len returns the number of attached subscriptions.
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
	k := Key{Query: spec.Query, Period: spec.Period}
	g, ok := t.groups[k]
	if !ok {
		g = &Group{key: k, next: now + spec.Period}
		t.groups[k] = g
	}
	s := &Sub{Spec: spec, Q: q, cursor: after, base: after, g: g}
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
	}
}

// NextDue returns the earliest due tick over all groups.
func (t *Table) NextDue() (timeseq.Time, bool) {
	var due timeseq.Time
	pending := false
	for _, g := range t.groups {
		if !pending || g.next < due {
			due, pending = g.next, true
		}
	}
	return due, pending
}

// Due returns the groups due at or before now. The slice is freshly
// allocated; group order is unspecified (ticks at equal times are
// independent evaluations).
func (t *Table) Due(now timeseq.Time) []*Group {
	var out []*Group
	for _, g := range t.groups {
		if g.next <= now {
			out = append(out, g)
		}
	}
	return out
}
