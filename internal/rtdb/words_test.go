package rtdb

import (
	"strconv"
	"testing"

	"rtc/internal/core"
	"rtc/internal/deadline"
	"rtc/internal/encoding"
	"rtc/internal/timeseq"
	"rtc/internal/vtime"
	"rtc/internal/word"
)

// testSpec builds the running example: image "temp" (period 5), invariant
// "limit", derived "status".
func testSpec() Spec {
	return Spec{
		Invariants: map[string]Value{"limit": "22"},
		Derived: []*DerivedObject{{
			Name:    "status",
			Sources: []string{"temp", "limit"},
			Derive:  statusDerive,
		}},
		Images: []*ImageObject{{Name: "temp", Period: 5, Read: tempRead}},
	}
}

func statusDerive(src map[string]Value) Value {
	t, _ := strconv.Atoi(src["temp"])
	l, _ := strconv.Atoi(src["limit"])
	if t > l {
		return "high"
	}
	return "ok"
}

func testCatalog() Catalog {
	return Catalog{
		"status_q": func(v *View) []Value {
			if s, ok := v.DeriveNow("status"); ok {
				return []Value{s}
			}
			return nil
		},
		"temp_q": func(v *View) []Value {
			if s, ok := v.Latest("temp"); ok {
				return []Value{s.Value}
			}
			return nil
		},
	}
}

func testRegistry() DeriveRegistry {
	return DeriveRegistry{"status": statusDerive}
}

func TestDB0WordShape(t *testing.T) {
	sp := testSpec()
	w := sp.DB0Word()
	recs, ok := encoding.Records(w.Syms())
	if !ok || len(recs) != 2 {
		t.Fatalf("records = %v, %v", recs, ok)
	}
	if recs[0][0] != "V" || recs[0][1] != "limit" || recs[0][2] != "22" {
		t.Fatalf("V record = %v", recs[0])
	}
	if recs[1][0] != "D" || recs[1][1] != "status" {
		t.Fatalf("D record = %v", recs[1])
	}
	for _, e := range w {
		if e.At != 0 {
			t.Fatal("db_0 must be specified at time 0")
		}
	}
}

func TestDBkWordShape(t *testing.T) {
	o := &ImageObject{Name: "temp", Period: 5, Read: tempRead}
	w := DBkWord(o)
	p := word.Prefix(w, 40)
	// Group symbols by timestamp: each group must parse as one I record
	// with the right value.
	byTime := map[timeseq.Time][]word.Symbol{}
	for _, e := range p {
		byTime[e.At] = append(byTime[e.At], e.Sym)
	}
	for _, at := range []timeseq.Time{0, 5, 10} {
		rec, ok := encoding.ParseRecord(byTime[at])
		if !ok || rec[0] != "I" || rec[1] != "temp" || rec[2] != tempRead(at) {
			t.Fatalf("record at %d = %v (%v)", at, rec, ok)
		}
	}
	if !word.MonotoneWithin(w, 100) {
		t.Error("db_k not monotone")
	}
	if !word.WellBehavedWithin(w, 100) {
		t.Error("db_k should look well behaved")
	}
}

func TestDBWordMergesStreams(t *testing.T) {
	sp := testSpec()
	w := sp.DBWord()
	p := word.PrefixUntil(w, 0, 1000)
	// At time 0: db_0's records then temp's first sample.
	recs, ok := encoding.Records(word.Finite(p).Syms())
	if !ok || len(recs) != 3 {
		t.Fatalf("time-0 records = %v (%v)", recs, ok)
	}
	if recs[2][0] != "I" {
		t.Fatalf("expected I record last at time 0: %v", recs)
	}
}

func TestAqWordShape(t *testing.T) {
	qs := QuerySpec{Query: "status_q", Issue: 7, Candidate: "ok", Kind: deadline.None}
	w := qs.AqWord()
	p := word.Prefix(w, 40)
	if p[0].At != 7 {
		t.Fatalf("header at %d, want issue time 7", p[0].At)
	}
	recs, ok := encoding.Records(word.Finite(word.PrefixUntil(w, 7, 100)).Syms())
	if !ok || len(recs) != 2 || recs[0][0] != "s" || recs[1][0] != "q" {
		t.Fatalf("header records = %v (%v)", recs, ok)
	}
	// Markers are subscripted with the issue time.
	found := false
	for _, e := range p {
		if e.Sym == wMarker(7) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no w@7 marker in %v", p)
	}
}

func TestAqWordDeadlineMarkers(t *testing.T) {
	qs := QuerySpec{
		Query: "status_q", Issue: 4, Candidate: "ok",
		Kind: deadline.Firm, Deadline: 3, MinUseful: 1,
	}
	p := word.Prefix(qs.AqWord(), 24)
	sawW, sawD := false, false
	for _, e := range p {
		if k, issue, ok := markerIssue(e.Sym); ok {
			if issue != 4 {
				t.Fatalf("marker with wrong issue: %v", e)
			}
			if k == 'w' {
				sawW = true
				if e.At >= 7 {
					t.Fatalf("w marker at %d, after the absolute deadline 7", e.At)
				}
			}
			if k == 'd' {
				sawD = true
				if e.At < 7 {
					t.Fatalf("d marker at %d, before the absolute deadline 7", e.At)
				}
			}
		}
	}
	if !sawW || !sawD {
		t.Fatalf("markers missing: w=%v d=%v", sawW, sawD)
	}
}

func TestMarkerIssueParsing(t *testing.T) {
	if k, at, ok := markerIssue(wMarker(12)); !ok || k != 'w' || at != 12 {
		t.Errorf("wMarker parse = (%c,%d,%v)", k, at, ok)
	}
	if k, at, ok := markerIssue(dMarker(0)); !ok || k != 'd' || at != 0 {
		t.Errorf("dMarker parse = (%c,%d,%v)", k, at, ok)
	}
	for _, bad := range []string{"w", "x@3", "w@", "w@x", "ok"} {
		if _, _, ok := markerIssue(word.Symbol(bad)); ok {
			t.Errorf("markerIssue(%q) parsed", bad)
		}
	}
}

// Lemma 5.1: the periodic-query word's clock passes any bound at a finite
// index.
func TestLemma51(t *testing.T) {
	ps := PeriodicSpec{
		Query: "status_q", Issue: 3, Period: 10,
		Candidates: func(i uint64) Value { return "ok" },
	}
	w := ps.PqWord()
	for _, bound := range []timeseq.Time{1, 10, 50, 200} {
		idx, ok := Lemma51Bound(w, bound, 1_000_000)
		if !ok {
			t.Fatalf("no finite index reaches time %d", bound)
		}
		if w.At(idx).At < bound {
			t.Fatalf("witness %d has time %d < %d", idx, w.At(idx).At, bound)
		}
	}
	if !word.MonotoneWithin(w, 2000) {
		t.Error("pq word not monotone")
	}
	if !word.WellBehavedWithin(w, 2000) {
		t.Error("pq word should look well behaved (Lemma 5.1)")
	}
}

func TestViewAtAndMemberAq(t *testing.T) {
	sp := testSpec()
	cat := testCatalog()
	// At issue 7, the last temp sample is at 5 → 20 ≤ 22 → "ok".
	if !sp.MemberAq(cat, QuerySpec{Query: "status_q", Issue: 7, Candidate: "ok"}) {
		t.Error("ok should be a member at issue 7")
	}
	if sp.MemberAq(cat, QuerySpec{Query: "status_q", Issue: 7, Candidate: "high"}) {
		t.Error("high should not be a member at issue 7")
	}
	// At issue 31, the last sample is at 30 → 23 > 22 → "high".
	if !sp.MemberAq(cat, QuerySpec{Query: "status_q", Issue: 31, Candidate: "high"}) {
		t.Error("high should be a member at issue 31")
	}
	// Unknown query.
	if sp.MemberAq(cat, QuerySpec{Query: "nope", Issue: 7, Candidate: "x"}) {
		t.Error("unknown query accepted")
	}
}

func TestRunAperiodicMemberAndNonMember(t *testing.T) {
	sp := testSpec()
	cat := testCatalog()
	reg := testRegistry()
	member := QuerySpec{Query: "status_q", Issue: 7, Candidate: "ok"}
	res := RunAperiodic(sp, member, cat, reg, 2, 200)
	if res.Verdict != core.AcceptProven {
		t.Fatalf("member verdict = %v", res.Verdict)
	}
	non := QuerySpec{Query: "status_q", Issue: 7, Candidate: "high"}
	res = RunAperiodic(sp, non, cat, reg, 2, 200)
	if res.Verdict != core.RejectProven {
		t.Fatalf("non-member verdict = %v", res.Verdict)
	}
}

// Deadline discipline on the acceptor: a slow evaluation misses a firm
// deadline even for a correct candidate.
func TestRunAperiodicFirmDeadline(t *testing.T) {
	sp := testSpec()
	cat := testCatalog()
	reg := testRegistry()
	base := QuerySpec{
		Query: "status_q", Issue: 7, Candidate: "ok",
		Kind: deadline.Firm, Deadline: 3, MinUseful: 1,
	}
	// EvalCost 2: finishes at issue+1, before issue+3.
	if res := RunAperiodic(sp, base, cat, reg, 2, 300); res.Verdict != core.AcceptProven {
		t.Fatalf("fast eval verdict = %v", res.Verdict)
	}
	// EvalCost 6: finishes at issue+5, after the deadline; usefulness 0.
	if res := RunAperiodic(sp, base, cat, reg, 6, 300); res.Verdict != core.RejectProven {
		t.Fatalf("slow eval verdict = %v", res.Verdict)
	}
}

// Soft deadline: late answers survive while the usefulness stays above the
// announced minimum.
func TestRunAperiodicSoftDeadline(t *testing.T) {
	sp := testSpec()
	cat := testCatalog()
	reg := testRegistry()
	u := deadline.Hyperbolic(10, 10) // absolute deadline = 7+3 = 10
	qs := QuerySpec{
		Query: "status_q", Issue: 7, Candidate: "ok",
		Kind: deadline.Soft, Deadline: 3, MinUseful: 5, U: u,
	}
	// EvalCost 5 → finishes at 11; u(11) = 10 ≥ 5: accept.
	if res := RunAperiodic(sp, qs, cat, reg, 5, 300); res.Verdict != core.AcceptProven {
		t.Fatalf("soft within usefulness: %v", res.Verdict)
	}
	// EvalCost 8 → finishes at 14; u(14) = 10/4 = 2 < 5: reject.
	if res := RunAperiodic(sp, qs, cat, reg, 8, 300); res.Verdict != core.RejectProven {
		t.Fatalf("soft below usefulness: %v", res.Verdict)
	}
}

func TestRunPeriodicAllServed(t *testing.T) {
	sp := testSpec()
	cat := testCatalog()
	reg := testRegistry()
	ps := PeriodicSpec{
		Query: "temp_q", Issue: 2, Period: 10,
		Candidates: func(i uint64) Value {
			// Ground truth: last sample before issue 2+10i.
			v := sp.ViewAt(2 + timeseq.Time(i)*10)
			s, _ := v.Latest("temp")
			return s.Value
		},
	}
	if !sp.MemberPq(cat, ps, 5) {
		t.Fatal("ground truth says non-member; candidates wrong")
	}
	res, acc := RunPeriodic(sp, ps, cat, reg, 1, 200)
	if res.Verdict != core.AcceptAtHorizon {
		t.Fatalf("periodic member verdict = %v", res.Verdict)
	}
	if acc.Served() < 5 || acc.Failed() != 0 {
		t.Fatalf("served=%d failed=%d", acc.Served(), acc.Failed())
	}
	if res.FCount != acc.Served() {
		t.Fatalf("FCount=%d served=%d", res.FCount, acc.Served())
	}
}

func TestRunPeriodicFailureStopsF(t *testing.T) {
	sp := testSpec()
	cat := testCatalog()
	reg := testRegistry()
	ps := PeriodicSpec{
		Query: "temp_q", Issue: 2, Period: 10,
		Candidates: func(i uint64) Value {
			if i == 2 {
				return "bogus"
			}
			v := sp.ViewAt(2 + timeseq.Time(i)*10)
			s, _ := v.Latest("temp")
			return s.Value
		},
	}
	if sp.MemberPq(cat, ps, 5) {
		t.Fatal("ground truth should reject")
	}
	res, acc := RunPeriodic(sp, ps, cat, reg, 1, 300)
	if res.Verdict != core.RejectProven {
		t.Fatalf("periodic non-member verdict = %v", res.Verdict)
	}
	if acc.Failed() == 0 {
		t.Fatal("no failure recorded")
	}
	// f's before the failure are fine; none after. The machine counted only
	// the pre-failure successes.
	if res.FCount > 2 {
		t.Fatalf("FCount = %d, want ≤ 2 (successes before invocation 2)", res.FCount)
	}
}

func TestBuildSpecIntoLiveDB(t *testing.T) {
	sp := testSpec()
	s := vtime.New()
	db := New(s)
	sp.Build(db)
	s.RunUntil(11)
	img, ok := db.Image("temp")
	if !ok || len(img.History()) != 3 {
		t.Fatalf("live DB history = %+v", img)
	}
	if err := db.Rederive("status"); err != nil {
		t.Fatal(err)
	}
}

// Equation (6): db_B = db_0·db_1·…·db_r with several image objects — the
// general case of §5.1.3. All streams interleave by time; records stay
// whole.
func TestDBWordMultipleImages(t *testing.T) {
	sp := Spec{
		Invariants: map[string]Value{"limit": "22"},
		Images: []*ImageObject{
			{Name: "temp", Period: 5, Read: tempRead},
			{Name: "pressure", Period: 7, Read: func(at timeseq.Time) Value {
				return "p" + tempRead(at)
			}},
		},
	}
	w := sp.DBWord()
	if !word.MonotoneWithin(w, 400) {
		t.Fatal("multi-image db_B not monotone")
	}
	// Group by timestamp and verify record integrity per instant.
	p := word.Prefix(w, 400)
	byTime := map[timeseq.Time][]word.Symbol{}
	var order []timeseq.Time
	for _, e := range p {
		if _, ok := byTime[e.At]; !ok {
			order = append(order, e.At)
		}
		byTime[e.At] = append(byTime[e.At], e.Sym)
	}
	// Drop the last (possibly truncated) instant.
	if len(order) > 1 {
		order = order[:len(order)-1]
	}
	sawTemp, sawPressure := false, false
	for _, at := range order {
		recs, ok := encoding.Records(byTime[at])
		if !ok {
			t.Fatalf("records at %d do not parse: %v", at, byTime[at])
		}
		for _, r := range recs {
			if r[0] == "I" {
				switch r[1] {
				case "temp":
					sawTemp = true
					if at%5 != 0 {
						t.Errorf("temp sample at %d, not a multiple of 5", at)
					}
				case "pressure":
					sawPressure = true
					if at%7 != 0 {
						t.Errorf("pressure sample at %d, not a multiple of 7", at)
					}
				}
			}
		}
	}
	if !sawTemp || !sawPressure {
		t.Fatalf("streams missing: temp=%v pressure=%v", sawTemp, sawPressure)
	}
}

// TestViewLatestMatchesScan: Latest answers what a linear scan for the last
// sample at or before Now answers, with Now before the first sample, at it,
// between samples, at a time two samples share, at the last sample and past
// it — the newest-sample answer and the as-of search alike.
func TestViewLatestMatchesScan(t *testing.T) {
	h := []Sample{{At: 10, Value: "a"}, {At: 20, Value: "b"}, {At: 20, Value: "c"}, {At: 30, Value: "d"}, {At: 40, Value: "e"}}
	scan := func(now timeseq.Time) (Sample, bool) {
		var out Sample
		found := false
		for _, s := range h {
			if s.At <= now {
				out, found = s, true
			}
		}
		return out, found
	}
	for _, tc := range []struct {
		name string
		now  timeseq.Time
	}{
		{"before the first", 5},
		{"at the first", 10},
		{"between samples", 15},
		{"at a shared time", 20},
		{"between the shared time and the next", 25},
		{"at the last", 40},
		{"past the last", 99},
	} {
		v := &View{Now: tc.now, Samples: map[string][]Sample{"temp": h, "empty": nil}}
		got, ok := v.Latest("temp")
		want, wantOK := scan(tc.now)
		if got != want || ok != wantOK {
			t.Errorf("%s (Now %d): Latest = %+v, %v; scan = %+v, %v", tc.name, tc.now, got, ok, want, wantOK)
		}
		if _, ok := v.Latest("empty"); ok {
			t.Errorf("%s: an empty history answered", tc.name)
		}
	}
}
