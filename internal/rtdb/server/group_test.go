package server

import (
	"runtime"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultfs"
	wal "rtc/internal/rtdb/log"
)

// TestGroupCommitAckBarrier: with group commit enabled the server must not
// acknowledge state-dependent work before the covering fsync. The window
// here is an hour long, so the test only passes if the server's own
// durability barriers seal it: Flush closes the open window, and a firm
// query's WAL record seals it at append. A server that forgot either
// barrier hangs here for the rest of the window.
func TestGroupCommitAckBarrier(t *testing.T) {
	mem := faultfs.NewMem(31)
	l, err := wal.Open(wal.Options{
		Dir: "wal", FS: mem, SegmentSize: 1 << 20, SnapshotEvery: 1 << 20,
		Sync: true, GroupWindow: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cfg := testConfig()
	cfg.Log = l
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
	// Flush is a durability barrier: it must close the commit window and
	// return only after the sample's WAL record is fsynced.
	flushed := make(chan error, 1)
	go func() { flushed <- c.Flush() }()
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Flush stuck behind the open commit window: the barrier never sealed it")
	}
	if ds, sq := l.DurableSeq(), l.Seq(); ds != sq {
		t.Fatalf("Flush acked with DurableSeq=%d Seq=%d: replied before the fsync", ds, sq)
	}
	if st := l.Stats(); st.GroupCommits == 0 {
		t.Fatal("barrier flush never produced a group commit")
	}

	// A firm query's own WAL record seals the window (§4.1: firm acks stay
	// off the window's tail latency) — its reply must not wait out the hour.
	type result struct {
		resp Response
		err  error
	}
	answered := make(chan result, 1)
	go func() {
		resp, err := c.Query(QueryRequest{
			Query: "status_q", Candidate: "ok",
			Kind: deadline.Firm, Deadline: 1000, MinUseful: 1,
		})
		answered <- result{resp, err}
	}()
	select {
	case r := <-answered:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !r.resp.Match || r.resp.Missed {
			t.Fatalf("firm query under group commit: %+v", r.resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("firm query reply waited on the window: its firm append did not seal it")
	}
	if ds, sq := l.DurableSeq(), l.Seq(); ds != sq {
		t.Fatalf("firm reply with DurableSeq=%d Seq=%d: acked before its record's fsync", ds, sq)
	}
}

// TestSampleStepAllocs: a WAL'd sample costs the apply loop no allocation of
// its own under group commit — its ticket is kept by value — only its share
// of each commit batch. Averaged over many batches, that is a fraction of an
// allocation per sample; the value string is the caller's here, and no
// as-of publish falls inside the run (TestPublishAllocs gates those).
func TestSampleStepAllocs(t *testing.T) {
	l, err := wal.Open(wal.Options{
		Dir: t.TempDir(), SegmentSize: 64 << 20, SnapshotEvery: 1 << 20,
		Sync: true, GroupWindow: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cfg := testConfig()
	cfg.Log, cfg.SnapshotEvery = l, 1<<20
	s, err := New(cfg) // not started: the test is the apply loop
	if err != nil {
		t.Fatal(err)
	}
	r := request{kind: reqSample, image: "temp", value: "21"}
	steps := func(n int) {
		for i := 0; i < n; i++ {
			s.step(r)
		}
	}
	const warm, n = 1 << 14, 1 << 13 // past warm, the history grows by a rare copy
	steps(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steps(n)
	runtime.ReadMemStats(&after)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	per := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.3f allocs per WAL'd sample", per)
	if per > 0.25 {
		t.Errorf("a WAL'd sample step: %.3f allocs per sample, want ≤ 0.25", per)
	}
	if m := s.Metrics.Snapshot(); m.SamplesApplied != warm+n || m.WalErrors != 0 {
		t.Fatalf("applied %d samples with %d WAL errors, want %d and none", m.SamplesApplied, m.WalErrors, warm+n)
	}
}
