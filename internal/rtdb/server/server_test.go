package server

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/relational"
	"rtc/internal/rtdb"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/timeseq"
)

func statusDerive(src map[string]rtdb.Value) rtdb.Value {
	t, _ := strconv.Atoi(src["temp"])
	l, _ := strconv.Atoi(src["limit"])
	if t > l {
		return "high"
	}
	return "ok"
}

func testConfig() Config {
	return Config{
		Spec: rtdb.Spec{
			Invariants: map[string]rtdb.Value{"limit": "22"},
			Derived: []*rtdb.DerivedObject{{
				Name: "status", Sources: []string{"temp", "limit"}, Derive: statusDerive,
			}},
			Images: []*rtdb.ImageObject{{Name: "temp", Period: 5}},
		},
		Catalog: rtdb.Catalog{
			"status_q": func(v *rtdb.View) []rtdb.Value {
				if s, ok := v.DeriveNow("status"); ok {
					return []rtdb.Value{s}
				}
				return nil
			},
			"temp_q": func(v *rtdb.View) []rtdb.Value {
				if s, ok := v.Latest("temp"); ok {
					return []rtdb.Value{s.Value}
				}
				return nil
			},
		},
		Registry: rtdb.DeriveRegistry{"status": statusDerive},
	}
}

func TestServeAperiodic(t *testing.T) {
	s, err := New(testConfig())
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

	// Class (i): no deadline.
	resp, err := c.Query(QueryRequest{Query: "status_q", Candidate: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Match || !resp.Evaluated || resp.Missed {
		t.Fatalf("no-deadline query: %+v", resp)
	}

	// Class (ii): a generous firm deadline is met.
	resp, err = c.Query(QueryRequest{
		Query: "status_q", Candidate: "ok",
		Kind: deadline.Firm, Deadline: 10, MinUseful: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Match || resp.Missed {
		t.Fatalf("firm in-deadline query: %+v", resp)
	}

	m := s.Metrics.Snapshot()
	if m.DeadlineHit != 1 || m.NoDeadline != 1 || m.SamplesApplied != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	booksClose(t, "after two queries", m)
}

func TestAdmissionControlFirm(t *testing.T) {
	cfg := testConfig()
	cfg.EvalCost = 9 // evaluation takes longer than the deadline below
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

	before := s.Now()
	resp, err := c.Query(QueryRequest{
		Query: "status_q", Candidate: "ok",
		Kind: deadline.Firm, Deadline: 4, MinUseful: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Missed || resp.Evaluated {
		t.Fatalf("provably-late firm query must be skipped: %+v", resp)
	}
	if s.Now() != before {
		t.Fatalf("admission skip must not spend EvalCost: clock %d → %d", before, s.Now())
	}
	m := s.Metrics.Snapshot()
	if m.AdmissionSkip != 1 || m.DeadlineMiss != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestSoftDeadlineUsefulness(t *testing.T) {
	cfg := testConfig()
	cfg.EvalCost = 6 // finishes at relative time 6, past the deadline of 4
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

	// Linear decay from 8 over 8 chronons past t_d=4: at rel 6, u = 8-8*2/8 = 6.
	u := deadline.Linear(8, 4, 8)
	resp, err := c.Query(QueryRequest{
		Query: "status_q", Candidate: "ok",
		Kind: deadline.Soft, Deadline: 4, MinUseful: 5, U: u,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Missed || resp.Useful != 6 {
		t.Fatalf("soft still-useful query: %+v", resp)
	}

	// A higher bar turns the same lateness into an accounted miss, without
	// evaluation (admission control can tell in advance).
	resp, err = c.Query(QueryRequest{
		Query: "status_q", Candidate: "ok",
		Kind: deadline.Soft, Deadline: 4, MinUseful: 7, U: u,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Missed || resp.Evaluated {
		t.Fatalf("soft below-minimum query: %+v", resp)
	}
}

// TestStopRefusesWhatItAbandons: a sample and a query still queued when the
// server stops are booked refused, so the books close after the stop.
func TestStopRefusesWhatItAbandons(t *testing.T) {
	s, err := New(testConfig()) // never started: its queue only fills
	if err != nil || s.Session(0).InjectSample("temp", "20") != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		_, err := s.Session(0).Query(QueryRequest{Query: "status_q", Kind: deadline.Firm, Deadline: 3, MinUseful: 1})
		done <- err
	}()
	for len(s.Session(0).queue) < 2 {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	m := s.Metrics.Snapshot()
	if err := <-done; err != ErrClosed || m.SamplesRejected != 1 || m.QueriesRejected != 1 || m.RejectMiss != 1 {
		t.Fatalf("query returned %v; rejected %d samples, %d queries (%d missed)", err, m.SamplesRejected, m.QueriesRejected, m.RejectMiss)
	}
	booksClose(t, "after the stop", m)
}

// TestStopRacingSubmitters: a submission that passes the closed check as
// Stop begins, and lands in its queue after Stop emptied it, is booked
// refused too, so the books close after a stop under load.
func TestStopRacingSubmitters(t *testing.T) {
	for i := 0; i < 100; i++ {
		s, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for err := error(nil); err != ErrClosed; runtime.Gosched() {
					err = s.Session(0).InjectSample("temp", "20")
					if g%2 == 1 {
						_, err = s.Session(0).Query(QueryRequest{Query: "status_q"})
					}
				}
			}()
		}
		for s.Metrics.QueriesIn.Load() < 20 {
			runtime.Gosched()
		}
		s.Stop()
		wg.Wait()
		booksClose(t, fmt.Sprintf("stop %d", i), s.Metrics.Snapshot())
	}
}

func TestBackpressureRejectsNotBlocks(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Not started: nothing drains, so the bounded queue must fill and then
	// reject. Submissions never block.
	c := s.Session(0)
	rejected := 0
	for i := 0; i < 10; i++ {
		if err := c.InjectSample("temp", "20"); err == ErrBackpressure {
			rejected++
		}
	}
	if rejected != 6 {
		t.Fatalf("rejected %d of 10 submissions with depth 4, want 6", rejected)
	}
	// A firm query against the full queue is rejected with a miss, not
	// silently dropped and not blocked.
	resp, err := c.Query(QueryRequest{Query: "status_q", Kind: deadline.Firm, Deadline: 3, MinUseful: 1})
	if err != ErrBackpressure {
		t.Fatalf("err = %v, want ErrBackpressure", err)
	}
	if !resp.Missed {
		t.Fatal("rejected firm query must report a miss")
	}
	m := s.Metrics.Snapshot()
	if m.SamplesRejected != 6 || m.QueriesRejected != 1 || m.RejectMiss != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	s.Start()
	s.Stop()
	booksClose(t, "after the stop", s.Metrics.Snapshot())
}

// TestUnknownImageSampleRejected: a sample the apply loop refuses — its
// image is not in the database — leaves samples_in and is counted in
// samples_rejected, so samples_in == samples_applied still holds.
func TestUnknownImageSampleRejected(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	c := s.Session(0)
	for _, image := range []string{"nope", "temp"} {
		if err := c.InjectSample(image, "1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics.Snapshot(); m.SamplesIn != 1 || m.SamplesApplied != 1 || m.SamplesRejected != 1 {
		t.Fatalf("samples_in %d samples_applied %d samples_rejected %d, want 1 1 1",
			m.SamplesIn, m.SamplesApplied, m.SamplesRejected)
	}
}

func TestPeriodicScheduler(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterPeriodic(PeriodicQuery{
		Name: "watch", Query: "status_q", Period: 5,
		Kind: deadline.Firm, Deadline: 3, MinUseful: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterPeriodic(PeriodicQuery{Name: "bad", Query: "nope", Period: 5}); err == nil {
		t.Fatal("unknown catalog query must be rejected at registration")
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
	if err := s.Tick(48); err != nil {
		t.Fatal(err)
	}
	rep := s.PeriodicReport()
	if len(rep) != 1 {
		t.Fatalf("report: %+v", rep)
	}
	w := rep[0]
	// Invocations at 0,5,10,… each served immediately (EvalCost 1 < 3).
	if w.Issued < 9 || w.Hit != w.Issued || w.Missed != 0 {
		t.Fatalf("well-provisioned periodic query: %+v", w)
	}
}

func TestPeriodicOverloadShedsWork(t *testing.T) {
	cfg := testConfig()
	cfg.EvalCost = 3 // each evaluation costs more than the period below
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterPeriodic(PeriodicQuery{
		Name: "hot", Query: "temp_q", Period: 2,
		Kind: deadline.Firm, Deadline: 2, MinUseful: 1,
	}); err != nil {
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
	if err := s.Tick(40); err != nil {
		t.Fatal(err)
	}
	rep := s.PeriodicReport()[0]
	if rep.Missed == 0 {
		t.Fatalf("period 2 with EvalCost 3 must shed invocations: %+v", rep)
	}
	if rep.Issued != rep.Hit+rep.Missed {
		t.Fatalf("periodic accounting leak: %+v", rep)
	}
	booksClose(t, "after 40 ticks", s.Metrics.Snapshot())
}

func TestAsOfReads(t *testing.T) {
	cfg := testConfig()
	cfg.SnapshotEvery = 1 // publish eagerly so the test can see history
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	c := s.Session(0)

	if err := c.InjectSample("temp", "v0"); err != nil { // applied at chronon 0
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Tick(9); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectSample("temp", "v10"); err != nil { // applied at chronon 10
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Tick(5); err != nil {
		t.Fatal(err)
	}

	if v, ok := s.ValueAsOf("temp", 5); !ok || v != "v0" {
		t.Fatalf("ValueAsOf(5) = %q, %v", v, ok)
	}
	if v, ok := s.ValueAsOf("temp", 12); !ok || v != "v10" {
		t.Fatalf("ValueAsOf(12) = %q, %v", v, ok)
	}

	schema := relational.Schema{Name: "temp", Attrs: []relational.Attribute{"Object", "Value"}}
	q := relational.Project{
		Input: relational.From{Name: "temp", Schema: schema},
		Attrs: []relational.Attribute{"Value"},
	}
	rel, err := s.AsOf(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Tuples(); len(got) != 1 || got[0][0] != "v0" {
		t.Fatalf("AsOf(5) tuples = %v", got)
	}
	if s.HistoryHorizon() == 0 {
		t.Fatal("no snapshot horizon published")
	}
	if m := s.Metrics.Snapshot(); m.AsOfReads != 3 {
		t.Fatalf("AsOfReads = %d, want 3", m.AsOfReads)
	}
}

func TestRulesFireOnInjectedSamples(t *testing.T) {
	cfg := testConfig()
	alarms := 0
	cfg.Rules = []rtdb.Rule{{
		Name: "alarm", On: "sample:temp", Mode: rtdb.Immediate,
		If:   func(db *rtdb.DB, e rtdb.Event) bool { return e.Attr["value"] > "24" },
		Then: func(db *rtdb.DB, e rtdb.Event) { alarms++ },
	}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	c := s.Session(0)
	for _, v := range []string{"21", "25", "30", "22"} {
		if err := c.InjectSample("temp", v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if alarms != 2 {
		t.Fatalf("alarms = %d, want 2", alarms)
	}
	if m := s.Metrics.Snapshot(); m.RuleFirings != 2 {
		t.Fatalf("RuleFirings = %d, want 2", m.RuleFirings)
	}
	// The server takes each firing once it is logged: a long-running
	// server's database holds none.
	if n := len(s.DB().Firings()); n != 0 {
		t.Fatalf("database holds %d firings after the drain, want 0", n)
	}
}

func TestWalAndRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := wal.Open(wal.Options{Dir: dir, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Log = l
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	c := s.Session(0)
	for i := 0; i < 20; i++ {
		if err := c.InjectSample("temp", "v"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(QueryRequest{Query: "status_q", Candidate: "ok"}); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	refState := l.State()
	refHist := refState.Historical(refState.LastAt)
	img, _ := s.DB().Image("temp")
	refSamples := append([]rtdb.Sample{}, img.History()...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the log must recover, and a server built over it must carry
	// the same catalog, history, and clock as the one that wrote it.
	l2, err := wal.Open(wal.Options{Dir: dir, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(l2.State(), refState) {
		t.Fatal("recovered log state differs from the writing server's state")
	}
	if !reflect.DeepEqual(l2.State().Historical(refState.LastAt), refHist) {
		t.Fatal("recovered historical database differs")
	}
	cfg2 := testConfig()
	cfg2.Log = l2
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Now() != refState.LastAt {
		t.Fatalf("recovered clock = %d, want %d", s2.Now(), refState.LastAt)
	}
	img2, ok := s2.DB().Image("temp")
	if !ok {
		t.Fatal("image lost in recovery")
	}
	if !reflect.DeepEqual(img2.History(), refSamples) {
		t.Fatalf("recovered history differs:\n got %v\nwant %v", img2.History(), refSamples)
	}
	s2.Start()
	defer s2.Stop()
	resp, err := s2.Session(0).Query(QueryRequest{Query: "status_q", Candidate: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Evaluated || len(resp.Answers) == 0 {
		t.Fatalf("query after recovery: %+v", resp)
	}
}

// TestRecoveredCatalogWinsOverSpec pins Config.Log's contract in both
// directions: over a log that already holds state, cfg.Spec is ignored. A
// spec naming an image the log never held must not reach the as-of snapshot
// (it used to be looked up in the recovered database and dereferenced nil
// inside New — the crash a standby promoted over a foreign keyspace died
// of), and an image the log holds but the spec lacks must still be served.
func TestRecoveredCatalogWinsOverSpec(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Log = l
	cfg.Spec.Images = append(cfg.Spec.Images, &rtdb.ImageObject{Name: "pressure", Period: 3})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if err := s.Session(0).InjectSample("pressure", "990"); err != nil {
		t.Fatal(err)
	}
	if err := s.Session(0).Flush(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	at := l.State().LastAt
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for name, images := range map[string][]*rtdb.ImageObject{
		"spec_names_more": {{Name: "temp", Period: 5}, {Name: "pressure", Period: 3}, {Name: "humidity", Period: 7}},
		"spec_names_less": {{Name: "temp", Period: 5}},
	} {
		t.Run(name, func(t *testing.T) {
			l, err := wal.Open(wal.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			cfg := testConfig()
			cfg.Log, cfg.Spec.Images = l, images
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := s.ValueAsOf("pressure", at); !ok || v != "990" {
				t.Fatalf("recovered image pressure as of %d = %q, %v; want 990", at, v, ok)
			}
			if _, ok := s.ValueAsOf("humidity", at); ok {
				t.Fatal("an image only the spec names reached the as-of snapshot")
			}
			if _, ok := s.DB().Image("humidity"); ok {
				t.Fatal("an image only the spec names was installed over a recovered log")
			}
		})
	}
}

// TestValueAsOfLongHistory pins the indexed as-of fast path to the
// relational evaluation it replaced: on a multi-hundred-sample history,
// ValueAsOf must agree with AsOf at every probe instant, including before
// the first sample and at the horizon.
func TestValueAsOfLongHistory(t *testing.T) {
	cfg := testConfig()
	cfg.SnapshotEvery = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	c := s.Session(0)

	const n = 300
	for i := 0; i < n; i++ {
		if err := c.InjectSample("temp", "v"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Tick(1); err != nil {
			t.Fatal(err)
		}
	}

	schema := relational.Schema{Name: "temp", Attrs: []relational.Attribute{"Object", "Value"}}
	q := relational.Project{
		Input: relational.From{Name: "temp", Schema: schema},
		Attrs: []relational.Attribute{"Value"},
	}
	horizon := s.HistoryHorizon()
	if horizon == 0 {
		t.Fatal("no snapshot horizon")
	}
	for at := timeseq.Time(0); at <= horizon+2; at++ {
		v, ok := s.ValueAsOf("temp", at)
		rel, err := s.AsOf(q, at)
		if err != nil {
			t.Fatal(err)
		}
		tuples := rel.Tuples()
		if ok != (len(tuples) == 1) {
			t.Fatalf("at %d: ValueAsOf ok=%v but AsOf returned %d tuples", at, ok, len(tuples))
		}
		if ok && rtdb.Value(tuples[0][0]) != v {
			t.Fatalf("at %d: ValueAsOf=%q, AsOf=%q", at, v, tuples[0][0])
		}
		if at > horizon && ok {
			t.Fatalf("at %d: value %q served beyond horizon %d", at, v, horizon)
		}
	}
}
