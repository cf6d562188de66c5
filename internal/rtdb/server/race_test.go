package server

import (
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"rtc/internal/deadline"
	wal "rtc/internal/rtdb/log"
)

// TestRaceHammer drives one rtdb.DB through the server from 64 concurrent
// sessions (the ISSUE acceptance bar) mixing samples, deadline-carrying
// queries, as-of reads, and metric snapshots, then asserts the conservation
// law: every query submission is accounted as exactly one of rejected /
// hit / miss / no-deadline — firm misses are never silently dropped.
// Run under -race via the race-rtdb make target.
func TestRaceHammer(t *testing.T) {
	const (
		sessions = 64
		opsEach  = 100
	)
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := wal.Open(wal.Options{Dir: dir, SegmentSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	cfg := testConfig()
	cfg.Sessions = sessions
	cfg.QueueDepth = 8 // small on purpose: force backpressure rejections
	cfg.Log = l
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterPeriodic(PeriodicQuery{
		Name: "watch", Query: "status_q", Period: 7,
		Kind: deadline.Firm, Deadline: 5, MinUseful: 1,
	}); err != nil {
		t.Fatal(err)
	}
	s.Start()

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := s.Session(id)
			for op := 0; op < opsEach; op++ {
				switch op % 4 {
				case 0, 1:
					_ = c.InjectSample("temp", strconv.Itoa(15+(id+op)%15))
				case 2:
					_, err := c.Query(QueryRequest{
						Query: "status_q", Candidate: "ok",
						Kind: deadline.Firm, Deadline: 20, MinUseful: 1,
					})
					if err != nil && err != ErrBackpressure {
						t.Errorf("session %d: %v", id, err)
						return
					}
				case 3:
					if op%8 == 3 {
						_, _ = c.Query(QueryRequest{
							Query: "temp_q",
							Kind:  deadline.Soft, Deadline: 10, MinUseful: 3,
							U: deadline.Hyperbolic(8, 10),
						})
					} else {
						_, _ = s.ValueAsOf("temp", s.Now()/2)
						_ = s.Metrics.Snapshot()
						_ = s.HistoryHorizon()
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if err := s.Session(i).Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics.Snapshot()
	s.Stop()

	booksClose(t, "after the hammer", m)
	if m.QueriesIn == 0 || m.SamplesIn == 0 {
		t.Fatalf("hammer did no work: %+v", m)
	}
	// With QueueDepth 8 and 64 producers the test is only meaningful if
	// backpressure actually engaged; with deadline 20 and 64 interleaved
	// sessions some served queries must also have been late.
	t.Logf("hammer: %d samples (%d rejected), %d queries (%d rejected, %d hit, %d miss, %d soft/no-deadline)",
		m.SamplesIn, m.SamplesRejected, m.QueriesIn, m.QueriesRejected,
		m.DeadlineHit, m.DeadlineMiss, m.NoDeadline)

	// The WAL survived the stampede: reopen and compare against the final
	// database state.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := wal.Open(wal.Options{Dir: dir, SegmentSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	img, ok := s.DB().Image("temp")
	if !ok {
		t.Fatal("image missing")
	}
	recovered := l2.State().Images["temp"]
	if recovered == nil || len(recovered.Samples) != len(img.History()) {
		t.Fatalf("wal sample count %d != live history %d",
			len(recovered.Samples), len(img.History()))
	}
}
