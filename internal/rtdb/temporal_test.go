package rtdb

import (
	"testing"

	"rtc/internal/relational"
	"rtc/internal/timeseq"
	"rtc/internal/vtime"
)

func schedSchema() relational.Schema {
	return relational.Schema{Name: "Schedules", Attrs: []relational.Attribute{"City", "Title"}}
}

func TestHistoricalInsertAndHoldsAt(t *testing.T) {
	h := NewHistoricalRelation(schedSchema())
	if err := h.Insert(relational.Tuple{"Hamilton", "Sorrowful Images"}, NewLifespan(Interval{10, 20})); err != nil {
		t.Fatal(err)
	}
	if err := h.Insert(relational.Tuple{"bad"}, Always()); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	u := relational.Tuple{"Hamilton", "Sorrowful Images"}
	for _, c := range []struct {
		t    timeseq.Time
		want bool
	}{{9, false}, {10, true}, {20, true}, {21, false}} {
		if got := h.HoldsAt(u, c.t); got != c.want {
			t.Errorf("R(u,%d) = %v, want %v", c.t, got, c.want)
		}
	}
	// Re-insert with a later lifespan: union.
	_ = h.Insert(u, NewLifespan(Interval{30, 35}))
	if !h.HoldsAt(u, 32) || h.HoldsAt(u, 25) {
		t.Error("lifespan union broken")
	}
	if len(h.Rows()) != 1 {
		t.Errorf("rows = %d, want 1 (same tuple)", len(h.Rows()))
	}
}

func TestSnapshotAt(t *testing.T) {
	h := NewHistoricalRelation(schedSchema())
	_ = h.Insert(relational.Tuple{"Mexico City", "Terre Sauvage"}, NewLifespan(Interval{0, 9}))
	_ = h.Insert(relational.Tuple{"Hamilton", "Sorrowful Images"}, NewLifespan(Interval{5, timeseq.Infinity}))
	s0 := h.SnapshotAt(0)
	if s0.Len() != 1 || !s0.Contains(relational.Tuple{"Mexico City", "Terre Sauvage"}) {
		t.Fatalf("I_0 = %v", s0)
	}
	s7 := h.SnapshotAt(7)
	if s7.Len() != 2 {
		t.Fatalf("I_7 = %v", s7)
	}
	s12 := h.SnapshotAt(12)
	if s12.Len() != 1 || !s12.Contains(relational.Tuple{"Hamilton", "Sorrowful Images"}) {
		t.Fatalf("I_12 = %v", s12)
	}
}

func TestTerminate(t *testing.T) {
	h := NewHistoricalRelation(schedSchema())
	u := relational.Tuple{"Hamilton", "Sorrowful Images"}
	_ = h.Insert(u, Always())
	h.Terminate(u, 15)
	if !h.HoldsAt(u, 14) || h.HoldsAt(u, 15) {
		t.Error("Terminate boundary wrong")
	}
	// Terminating at 0 removes the tuple entirely.
	h.Terminate(u, 0)
	if len(h.Rows()) != 0 {
		t.Errorf("rows = %v", h.Rows())
	}
}

func TestChangePoints(t *testing.T) {
	h := NewHistoricalRelation(schedSchema())
	_ = h.Insert(relational.Tuple{"A", "x"}, NewLifespan(Interval{2, 5}))
	_ = h.Insert(relational.Tuple{"B", "y"}, NewLifespan(Interval{4, timeseq.Infinity}))
	got := h.ChangePoints()
	want := []timeseq.Time{2, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("ChangePoints = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ChangePoints = %v, want %v", got, want)
		}
	}
}

func TestQueryAtAndDuring(t *testing.T) {
	db := NewHistoricalDatabase()
	h := NewHistoricalRelation(schedSchema())
	_ = h.Insert(relational.Tuple{"Mexico City", "Terre Sauvage"}, NewLifespan(Interval{0, 9}))
	_ = h.Insert(relational.Tuple{"Hamilton", "Sorrowful Images"}, NewLifespan(Interval{10, 19}))
	_ = h.Insert(relational.Tuple{"St. Catharines", "Painter of the Soil"}, NewLifespan(Interval{10, 14}))
	db.Add(h)

	q := relational.Project{
		Input: relational.From{Name: "Schedules", Schema: schedSchema()},
		Attrs: []relational.Attribute{"City"},
	}
	r, err := db.QueryAt(q, 12)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("QueryAt(12) = %v", r)
	}

	hist, err := db.QueryDuring(q, 0, 19)
	if err != nil {
		t.Fatal(err)
	}
	// Mexico City is in the answer over [0,9], Hamilton over [10,19],
	// St. Catharines over [10,14].
	cases := []struct {
		city string
		t    timeseq.Time
		want bool
	}{
		{"Mexico City", 5, true},
		{"Mexico City", 10, false},
		{"Hamilton", 12, true},
		{"Hamilton", 5, false},
		{"St. Catharines", 14, true},
		{"St. Catharines", 15, false},
	}
	for _, c := range cases {
		if got := hist.HoldsAt(relational.Tuple{c.city}, c.t); got != c.want {
			t.Errorf("answer(%s, %d) = %v, want %v\nrows: %v", c.city, c.t, got, c.want, hist.Rows())
		}
	}
}

// TestTimelineOfLiveImage captures an image's archival history as a
// timeline relation by header, the way a server's as-of reads see it.
func TestTimelineOfLiveImage(t *testing.T) {
	s := vtime.New()
	db := New(s)
	db.AddImage(&ImageObject{Name: "temp", Period: 5, Read: tempRead})
	s.RunUntil(12)
	img, _ := db.Image("temp")
	h := NewTimelineRelation(img.Name, img.History(), s.Now())
	// Samples at 0, 5, 10 → lifespans [0,4], [5,9], [10,12].
	if !h.HoldsAt(relational.Tuple{"temp", tempRead(0)}, 3) {
		t.Error("sample 0 lifespan wrong")
	}
	if !h.HoldsAt(relational.Tuple{"temp", tempRead(10)}, 12) {
		t.Error("latest sample lifespan wrong")
	}
	snap := h.SnapshotAt(7)
	if snap.Len() != 1 {
		t.Fatalf("snapshot at 7 = %v", snap)
	}
}
