package server

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"rtc/internal/timeseq"
)

// startHeld starts a server on cfg and parks its apply loop inside an apply
// closure: nothing is taken from any queue until release is called. A test
// that fails first still has the loop released and the server stopped.
func startHeld(t *testing.T, cfg Config) (s *Server, release func()) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Stop)
	entered, held := make(chan struct{}), make(chan struct{})
	go func() { _ = s.apply(func() { close(entered); <-held }) }()
	<-entered
	var once sync.Once
	release = func() { once.Do(func() { close(held) }) }
	t.Cleanup(release)
	return s, release
}

// settledGoroutines returns the goroutine count once it has held still, so
// that goroutines of earlier tests still on their way out are not counted.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestQueueDepthIsTheBound: with the apply loop held, every session accepts
// exactly QueueDepth samples and refuses the next with ErrBackpressure,
// counted in samples_rejected — nothing off the loop holds a request the
// queue no longer counts.
func TestQueueDepthIsTheBound(t *testing.T) {
	const depth = 4
	for _, sessions := range []int{1, 3} {
		t.Run(fmt.Sprintf("sessions=%d", sessions), func(t *testing.T) {
			cfg := testConfig()
			cfg.Sessions, cfg.QueueDepth = sessions, depth
			s, release := startHeld(t, cfg)
			var err error
			for i := 0; i < sessions; i++ {
				c := s.Session(i)
				accepted := 0
				for ; accepted <= 2*depth; accepted++ {
					if err = c.InjectSample("temp", strconv.Itoa(accepted)); err != nil {
						break
					}
					runtime.Gosched() // let anything that could drain the queue run
				}
				if accepted != depth || err != ErrBackpressure {
					t.Fatalf("session %d accepted %d samples, then %v; want %d, then %v",
						i, accepted, err, depth, ErrBackpressure)
				}
			}
			if m := s.Metrics.Snapshot(); m.SamplesRejected != uint64(sessions) || m.SamplesIn != uint64(sessions*depth) {
				t.Fatalf("samples_in %d samples_rejected %d, want %d and %d",
					m.SamplesIn, m.SamplesRejected, sessions*depth, sessions)
			}
			release()
			for i := 0; i < sessions; i++ {
				if err := s.Session(i).Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if m := s.Metrics.Snapshot(); m.SamplesApplied != uint64(sessions*depth) {
				t.Fatalf("samples_applied %d, want %d", m.SamplesApplied, sessions*depth)
			}
		})
	}
}

// TestSessionsShareTheApplyLoop: the apply loop takes one request per
// session per pass, so a query queued behind nothing waits for at most one
// request of a session whose queue is full; each session's own requests are
// applied in order; and the loop is the server's only goroutine.
func TestSessionsShareTheApplyLoop(t *testing.T) {
	t.Run("one goroutine", func(t *testing.T) {
		cfg := testConfig()
		cfg.Sessions = 64
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := settledGoroutines()
		s.Start()
		if n := runtime.NumGoroutine(); n != base+1 {
			t.Fatalf("Start with %d sessions: %d goroutines over %d, want 1", cfg.Sessions, n-base, base)
		}
		s.Stop()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() != base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("after Stop: %d goroutines, want %d", runtime.NumGoroutine(), base)
			}
		}
	})

	t.Run("round robin and FIFO", func(t *testing.T) {
		cfg := testConfig()
		cfg.Sessions, cfg.QueueDepth = 2, 8
		s, release := startHeld(t, cfg)
		a, b := s.Session(0), s.Session(1)
		for i := 0; i < cfg.QueueDepth; i++ {
			if err := a.InjectSample("temp", strconv.Itoa(i)); err != nil {
				t.Fatalf("sample %d: %v", i, err)
			}
		}
		type answer struct {
			resp Response
			err  error
		}
		got := make(chan answer, 1)
		go func() {
			resp, err := b.Query(QueryRequest{Query: "temp_q"})
			got <- answer{resp, err}
		}()
		for deadline := time.Now().Add(5 * time.Second); len(b.queue) == 0; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatal("B's query never reached B's queue")
			}
		}
		release()
		var ans answer
		select {
		case ans = <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("B's query was never answered")
		}
		if ans.err != nil {
			t.Fatal(ans.err)
		}
		// Each sample applied between the query's issue and its evaluation
		// moved the clock one chronon.
		if ahead := ans.resp.Served - ans.resp.Issue - timeseq.Time(s.cfg.EvalCost); ahead > 1 {
			t.Fatalf("%d of A's samples applied ahead of B's query, want at most 1 (%+v)", ahead, ans.resp)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		if m := s.Metrics.Snapshot(); m.SamplesApplied != uint64(cfg.QueueDepth) {
			t.Fatalf("A's Flush returned with %d of its %d samples applied", m.SamplesApplied, cfg.QueueDepth)
		}
		s.Stop()
		img, _ := s.DB().Image("temp")
		if n := len(img.History()); n != cfg.QueueDepth {
			t.Fatalf("temp holds %d samples, want %d", n, cfg.QueueDepth)
		}
		for i, smp := range img.History() {
			if smp.Value != strconv.Itoa(i) {
				t.Fatalf("A's samples applied out of order: sample %d is %q", i, smp.Value)
			}
		}
	})
}
