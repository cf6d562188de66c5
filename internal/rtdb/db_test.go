package rtdb

import (
	"fmt"
	"strconv"
	"testing"

	"rtc/internal/timeseq"
	"rtc/internal/vtime"
)

// tempRead simulates the external world: temperature 20 + t/10.
func tempRead(t timeseq.Time) Value {
	return strconv.Itoa(20 + int(t/10))
}

func newTestDB() (*vtime.Scheduler, *DB) {
	s := vtime.New()
	db := New(s)
	db.AddInvariant("limit", "22")
	db.AddImage(&ImageObject{Name: "temp", Period: 5, Read: tempRead})
	db.AddDerived(&DerivedObject{
		Name:    "status",
		Sources: []string{"temp", "limit"},
		Derive: func(src map[string]Value) Value {
			t, _ := strconv.Atoi(src["temp"])
			l, _ := strconv.Atoi(src["limit"])
			if t > l {
				return "high"
			}
			return "ok"
		},
	})
	return s, db
}

func TestSamplingAndArchival(t *testing.T) {
	s, db := newTestDB()
	s.RunUntil(23)
	img, _ := db.Image("temp")
	h := img.History()
	// Samples at 0, 5, 10, 15, 20.
	if len(h) != 5 {
		t.Fatalf("history = %v", h)
	}
	for i, smp := range h {
		if smp.At != timeseq.Time(i*5) {
			t.Fatalf("sample %d at %d", i, smp.At)
		}
		if smp.Value != tempRead(smp.At) {
			t.Fatalf("sample value %q at %d", smp.Value, smp.At)
		}
	}
	// Archival lookup: the snapshot current at time 12 was taken at 10.
	smp, ok := img.At(12)
	if !ok || smp.At != 10 {
		t.Fatalf("At(12) = %+v, %v", smp, ok)
	}
	if _, ok := img.Latest(); !ok {
		t.Fatal("no latest sample")
	}
}

func TestRederiveTimestamps(t *testing.T) {
	s, db := newTestDB()
	s.RunUntil(12)
	if err := db.Rederive("status"); err != nil {
		t.Fatal(err)
	}
	d, _ := db.Derived("status")
	v, stamp, ok := d.Current()
	if !ok {
		t.Fatal("not derived")
	}
	// temp at 10 is 21 ≤ 22 → "ok"; stamp is the oldest source valid time,
	// i.e. the temp sample at 10 (the invariant carries the current time).
	if v != "ok" || stamp != 10 {
		t.Fatalf("Current = (%q, %d)", v, stamp)
	}
	s.RunUntil(31)
	if err := db.Rederive("status"); err != nil {
		t.Fatal(err)
	}
	v, stamp, _ = d.Current()
	// temp at 30 is 23 > 22 → "high".
	if v != "high" || stamp != 30 {
		t.Fatalf("Current = (%q, %d)", v, stamp)
	}
}

func TestRederiveErrors(t *testing.T) {
	s := vtime.New()
	db := New(s)
	if err := db.Rederive("nope"); err == nil {
		t.Error("unknown derived accepted")
	}
	db.AddDerived(&DerivedObject{Name: "d", Sources: []string{"ghost"}, Derive: func(map[string]Value) Value { return "" }})
	if err := db.Rederive("d"); err == nil {
		t.Error("unknown source accepted")
	}
}

// Rules: immediate fires inside the triggering event; deferred at the
// chronon's quiescent point; concurrent in between.
func TestFiringModes(t *testing.T) {
	s := vtime.New()
	db := New(s)
	var order []string
	db.AddRule(Rule{
		Name: "imm", On: "e", Mode: Immediate,
		Then: func(db *DB, e Event) { order = append(order, "imm") },
	})
	db.AddRule(Rule{
		Name: "con", On: "e", Mode: Concurrent,
		Then: func(db *DB, e Event) { order = append(order, "con") },
	})
	db.AddRule(Rule{
		Name: "def", On: "e", Mode: Deferred,
		Then: func(db *DB, e Event) { order = append(order, "def") },
	})
	s.At(3, 1, func() {
		db.Raise(Event{Kind: "e", At: s.Now()})
		order = append(order, "after-raise")
	})
	s.Drain()
	want := []string{"imm", "after-raise", "con", "def"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if len(db.Firings()) != 3 {
		t.Errorf("firings = %v", db.Firings())
	}
}

func TestRuleCondition(t *testing.T) {
	s := vtime.New()
	db := New(s)
	fired := 0
	db.AddRule(Rule{
		Name: "guarded", On: "e", Mode: Immediate,
		If:   func(db *DB, e Event) bool { return e.Attr["go"] == "yes" },
		Then: func(db *DB, e Event) { fired++ },
	})
	s.At(0, 0, func() {
		db.Raise(Event{Kind: "e", Attr: map[string]Value{"go": "no"}})
		db.Raise(Event{Kind: "e", Attr: map[string]Value{"go": "yes"}})
	})
	s.Drain()
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
}

// Rule actions may raise further events (forward chaining); runaway
// cascades are caught.
func TestRuleCascadeAndCap(t *testing.T) {
	s := vtime.New()
	db := New(s)
	depth := 0
	db.AddRule(Rule{
		Name: "chain", On: "tick", Mode: Immediate,
		Then: func(db *DB, e Event) {
			depth++
			if depth < 3 {
				db.Raise(Event{Kind: "tick"})
			}
		},
	})
	s.At(0, 0, func() { db.Raise(Event{Kind: "tick"}) })
	s.Drain()
	if depth != 3 {
		t.Errorf("cascade depth = %d, want 3", depth)
	}

	// Non-terminating cascade panics with a diagnostic.
	db2 := New(vtime.New())
	db2.AddRule(Rule{
		Name: "loop", On: "x", Mode: Immediate,
		Then: func(db *DB, e Event) { db.Raise(Event{Kind: "x"}) },
	})
	defer func() {
		if recover() == nil {
			t.Error("runaway cascade did not panic")
		}
	}()
	db2.Raise(Event{Kind: "x"})
}

// The paper's example rule: "on MonthChange if true then del(Date <
// CurrentDate)" — here: each sampling event of temp updates a derived
// object via an immediate rule, the execution model §5.1.2 implies for
// image objects.
func TestSampleTriggersRederive(t *testing.T) {
	s, db := newTestDB()
	db.AddRule(Rule{
		Name: "rederive-status", On: "sample:temp", Mode: Immediate,
		Then: func(db *DB, e Event) { _ = db.Rederive("status") },
	})
	s.RunUntil(31)
	d, _ := db.Derived("status")
	v, stamp, ok := d.Current()
	if !ok || v != "high" || stamp != 30 {
		t.Fatalf("Current = (%q, %d, %v)", v, stamp, ok)
	}
}

func TestConsistencyMetrics(t *testing.T) {
	if Age(10, 4) != 6 || Age(4, 10) != 0 {
		t.Error("Age broken")
	}
	if Dispersion(3, 9) != 6 || Dispersion(9, 3) != 6 {
		t.Error("Dispersion broken")
	}
	if !AbsolutelyConsistent(10, []timeseq.Time{8, 9, 10}, 2) {
		t.Error("absolute consistency false negative")
	}
	if AbsolutelyConsistent(10, []timeseq.Time{5}, 2) {
		t.Error("absolute consistency false positive")
	}
	if !RelativelyConsistent([]timeseq.Time{5, 6, 7}, 2) {
		t.Error("relative consistency false negative")
	}
	if RelativelyConsistent([]timeseq.Time{1, 9}, 2) {
		t.Error("relative consistency false positive")
	}
	if !RelativelyConsistent(nil, 0) {
		t.Error("empty set should be relatively consistent")
	}
}

func TestDBConsistency(t *testing.T) {
	s, db := newTestDB()
	db.AddImage(&ImageObject{Name: "pressure", Period: 9, Read: func(t timeseq.Time) Value {
		return fmt.Sprintf("%d", 100+t)
	}})
	s.RunUntil(10)
	// temp sampled at 10, pressure at 9: ages 0 and 1.
	if !db.AbsoluteConsistency(1) {
		t.Error("ages ≤ 1 flagged inconsistent")
	}
	s.RunUntil(13)
	// Ages 3 and 4 now.
	if db.AbsoluteConsistency(2) {
		t.Error("stale ages passed")
	}
	if !db.RelativeConsistency(1) {
		t.Error("dispersion 1 flagged")
	}
	db.AddImage(&ImageObject{Name: "late", Period: 100, Read: func(timeseq.Time) Value { return "x" }})
	s.RunUntil(40)
	// temp at 40, pressure at 36, late at 13 (its first sample fired when
	// added, at time 13): dispersion 27.
	if db.RelativeConsistency(20) {
		t.Error("large dispersion passed")
	}
}

// TestViewFollowsSamples: a sample updates the cached view in place, so a
// served database alternating samples and queries builds no view between
// them and the view still shows every sample.
func TestViewFollowsSamples(t *testing.T) {
	db := New(vtime.New())
	for i := 0; i < 65; i++ {
		db.AddImage(&ImageObject{Name: "img" + strconv.Itoa(i), Period: 1})
	}
	db.ViewNow()
	if allocs := testing.AllocsPerRun(200, func() {
		if err := db.InjectSample("img7", "21"); err != nil {
			t.Fatal(err)
		}
		db.ViewNow()
	}); allocs != 0 {
		t.Errorf("InjectSample + ViewNow: %v allocs/op, want 0", allocs)
	}
	img, _ := db.Image("img7")
	if got, want := len(db.ViewNow().Samples["img7"]), len(img.History()); got != want || want != 201 {
		t.Errorf("view holds %d samples of img7, the image %d, want 201", got, want)
	}
}
