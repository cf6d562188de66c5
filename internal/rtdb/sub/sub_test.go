package sub

import (
	"slices"
	"testing"

	"rtc/internal/deadline"
	"rtc/internal/timeseq"
)

func TestQueueFIFOAndDropOldest(t *testing.T) {
	q := NewQueue(3)
	for c := uint64(1); c <= 5; c++ {
		dropped := q.Put(Push{Cursor: c})
		if want := c > 3; dropped != want {
			t.Fatalf("Put(%d): dropped = %v, want %v", c, dropped, want)
		}
	}
	// Cursors 1 and 2 were dropped from the head; 3, 4, 5 remain in order.
	if got := q.Dropped(); got != 2 {
		t.Fatalf("Dropped() = %d, want 2", got)
	}
	for want := uint64(3); want <= 5; want++ {
		p, cum, ok := q.Pop()
		if !ok || p.Cursor != want || cum != 2 {
			t.Fatalf("Pop() = (%d, %d, %v), want (%d, 2, true)", p.Cursor, cum, ok, want)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
}

func TestQueueCloseAccountsEverything(t *testing.T) {
	q := NewQueue(4)
	q.Put(Push{Cursor: 1})
	q.Put(Push{Cursor: 2})
	if n := q.Close(); n != 2 {
		t.Fatalf("Close discarded %d, want 2", n)
	}
	// A Put after Close — one racing with teardown — counts itself as
	// dropped: the queue is closed, and the tick stays accounted even though
	// nobody will ever pop it.
	if !q.Put(Push{Cursor: 3}) {
		t.Fatal("Put after Close must report dropped")
	}
	if got := q.Dropped(); got != 3 {
		t.Fatalf("Dropped() = %d, want 3", got)
	}
	if n := q.Close(); n != 0 {
		t.Fatalf("second Close discarded %d, want 0", n)
	}
}

func TestQueueNotify(t *testing.T) {
	q := NewQueue(2)
	select {
	case <-q.Notify():
		t.Fatal("spurious wake")
	default:
	}
	q.Put(Push{Cursor: 1})
	select {
	case <-q.Notify():
	default:
		t.Fatal("Put did not post a wake token")
	}
}

// TestQueueSharedWake: queues built on one wake channel coalesce their
// tokens — a tick put to all of them is one pending wake-up — and a Put that
// lands after the consumer took the token posts a fresh one, so a consumer
// that pops every queue on each wake never misses a push.
func TestQueueSharedWake(t *testing.T) {
	wake := make(chan struct{}, 1)
	qs := []*Queue{NewQueueWake(2, wake), NewQueueWake(2, wake), NewQueueWake(2, wake)}
	for i, q := range qs {
		if q.Notify() != (<-chan struct{})(wake) {
			t.Fatalf("queue %d does not report the shared channel", i)
		}
		q.Put(Push{Cursor: 1})
	}
	if len(wake) != 1 {
		t.Fatalf("three Puts left %d tokens pending, want 1", len(wake))
	}
	<-wake
	qs[1].Put(Push{Cursor: 2})
	if len(wake) != 1 {
		t.Fatal("a Put after the token was taken did not post a new one")
	}
	<-wake
	for i, q := range qs {
		want := 1 + i%2
		for n := 0; n < want; n++ {
			if _, _, ok := q.Pop(); !ok {
				t.Fatalf("queue %d: push %d missing", i, n)
			}
		}
		if _, _, ok := q.Pop(); ok {
			t.Fatalf("queue %d holds more than %d pushes", i, want)
		}
	}
	qs[0].Close()
	if len(wake) != 1 {
		t.Fatal("Close did not post a wake token")
	}
}

func TestTableGroupingAndCursors(t *testing.T) {
	tab := NewTable()
	spec := Spec{Query: "status_q", Period: 4, Kind: deadline.Firm, Deadline: 2}
	a := tab.Attach(spec, 0, NewQueue(8), 100)
	b := tab.Attach(spec, 0, NewQueue(8), 100)
	c := tab.Attach(Spec{Query: "status_q", Period: 8}, 0, NewQueue(8), 100)
	if tab.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", tab.Len())
	}
	// Same (query, period) shares a group; a different period does not.
	if a.g != b.g || a.g == c.g {
		t.Fatal("grouping by (query, period) violated")
	}
	if due, ok := tab.NextDue(); !ok || due != 104 {
		t.Fatalf("NextDue() = (%d, %v), want (104, true)", due, ok)
	}
	groups := tab.Due(104)
	if len(groups) != 1 || groups[0] != a.g {
		t.Fatalf("Due(104) = %v groups, want exactly a's", len(groups))
	}
	if issue := a.g.Advance(); issue != 104 || a.g.Next() != 108 {
		t.Fatalf("Advance: issue %d next %d, want 104/108", issue, a.g.Next())
	}

	// Cursor discipline: every tick spends a cursor; an expired one is
	// stamped into the next delivered push, never into its own.
	if _, late, ok := a.Tick(104, 106); ok || !late || a.Cursor() != 1 {
		t.Fatalf("firm tick at its deadline: ok %v late %v cursor %d, want expired at cursor 1", ok, late, a.Cursor())
	}
	p, late, ok := a.Tick(108, 109)
	if !ok || late || p.Cursor != 2 || p.Expired != 1 || p.Issue != 108 || p.Served != 109 {
		t.Fatalf("tick in time = %+v (late %v ok %v), want cursor 2 covering 1 expired", p, late, ok)
	}

	tab.Detach(a)
	tab.Detach(c)
	if tab.Len() != 1 {
		t.Fatalf("Len() after detach = %d, want 1", tab.Len())
	}
	// b keeps the group alive; detaching it deletes the group.
	tab.Detach(b)
	if _, ok := tab.NextDue(); ok {
		t.Fatal("empty table still reports a due tick")
	}
	tab.Detach(b) // idempotent
}

func TestTableResumeContinuesCursor(t *testing.T) {
	tab := NewTable()
	spec := Spec{Query: "temp_q", Period: 2}
	s := tab.Attach(spec, 41, NewQueue(8), 10)
	if s.Base() != 41 || s.Cursor() != 41 {
		t.Fatalf("resume base/cursor = %d/%d, want 41/41", s.Base(), s.Cursor())
	}
	p, _, ok := s.Tick(12, 13)
	if !ok || p.Cursor != 42 {
		t.Fatalf("resumed first cursor = %d (ok %v), want 42", p.Cursor, ok)
	}
	if p.Expired != 0 {
		t.Fatal("resume must start a fresh expiry tally")
	}
}

func admissible(s Spec, rel timeseq.Time) bool {
	env := s.Envelope()
	return env.Admissible(env.Score(rel))
}

func TestScoreMatchesDiscipline(t *testing.T) {
	firm := Spec{Kind: deadline.Firm, Deadline: 5, MinUseful: 1}
	if u, late := firm.Envelope().Score(4); late || u != 1 {
		t.Fatalf("firm in time: (%d, %v)", u, late)
	}
	if u, late := firm.Envelope().Score(5); !late || u != 0 {
		t.Fatalf("firm at deadline: (%d, %v)", u, late)
	}
	if admissible(firm, 5) {
		t.Fatal("late firm tick must not be admissible")
	}

	soft := Spec{
		Kind: deadline.Soft, Deadline: 5, MinUseful: 2,
		U: deadline.Hyperbolic(10, 5),
	}
	if u, late := soft.Envelope().Score(7); !late || u != 5 {
		t.Fatalf("soft decayed: (%d, %v), want (5, true)", u, late)
	}
	if !admissible(soft, 7) {
		t.Fatal("decayed-but-useful soft tick must be admissible")
	}
	if admissible(soft, 20) {
		t.Fatal("fully decayed soft tick must not be admissible")
	}

	none := Spec{Kind: deadline.None}
	if !admissible(none, 1000) {
		t.Fatal("no-deadline ticks are always admissible")
	}
}

// TestDueOrderIsDeterministic: a registered periodic query write-ahead-logs
// each invocation, so which group is served first must not depend on map
// iteration. Groups come back earliest due first, in attach order among the
// ones due at one chronon — on every fresh table.
func TestDueOrderIsDeterministic(t *testing.T) {
	for run := 0; run < 200; run++ {
		tab := NewTable()
		// late is attached first but due last; a, b, c are due together.
		late := tab.Attach(Spec{Query: "late", Period: 9}, 0, NewQueue(1), 100)
		a := tab.AttachTally(Spec{Query: "a", Period: 4}, &Tally{Name: "a"}, 104)
		b := tab.Attach(Spec{Query: "b", Period: 4}, 0, NewQueue(1), 100)
		c := tab.Attach(Spec{Query: "c", Period: 2}, 0, NewQueue(1), 102)
		early := tab.Attach(Spec{Query: "early", Period: 1}, 0, NewQueue(1), 100)

		want := []*Group{early.g, a.g, b.g, c.g, late.g}
		if got := tab.Due(109); !slices.Equal(got, want) {
			t.Fatalf("run %d: Due(109) order = %v, want early, a, b, c, late", run, keys(got))
		}
		if got := tab.Due(104); !slices.Equal(got, want[:4]) {
			t.Fatalf("run %d: Due(104) order = %v, want early, a, b, c", run, keys(got))
		}
		// A group that leaves takes its place in the order with it.
		tab.Detach(b)
		if got := tab.Due(104); !slices.Equal(got, []*Group{early.g, a.g, c.g}) {
			t.Fatalf("run %d: Due(104) after detach = %v, want early, a, c", run, keys(got))
		}
	}
}

func keys(gs []*Group) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.Key().Query
	}
	return out
}
