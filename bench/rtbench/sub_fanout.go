package main

import (
	"fmt"
	"rtc/internal/stats"
	"sync"
	"sync/atomic"
	"time"

	"rtc/bench/workload"
	"rtc/internal/deadline"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtdb/sub"
	"rtc/internal/rtwire"
)

// sub_fanout: the push path. fanSubs standing queries on status_q share one
// connection; one writer connection drives the clock. Op = one round:
// RoundSamples InjectSample("temp") and a Flush, then wait until the clients
// hold every push the round matured. The loop is closed on delivery, so the
// bounded queues never overflow and pushes per round repeat exactly.
const (
	fanSubs     = 32
	fanPeriod   = 4  // chronons between ticks
	fanDeadline = 16 // chronons, soft
	fanDepth    = 64
	fanBuffer   = 256
	fanLimit    = 10 * time.Millisecond
)

type subFanout struct {
	env
	st     *stack
	writer *client.Client
	ctl    *client.Client
	gen    *workload.Gen
	subs   []*client.Subscription

	consumers sync.WaitGroup
	received  atomic.Uint64 // pushes the consumers hold
	missed    atomic.Uint64 // pushes whose §4.1 verdict is a miss
	badPush   atomic.Uint64 // pushes out of cursor order or with an impossible answer
	target    atomic.Uint64 // pushes the current round must reach
	wake      chan struct{}

	marks wireMarks
}

func (f *subFanout) loaders() int { return 1 }

func fanSpec() client.SubSpec {
	return client.SubSpec{
		Query: "status_q", Period: fanPeriod, Kind: deadline.Soft,
		Deadline: fanDeadline, MinUseful: 1, Depth: fanDepth, Buffer: fanBuffer,
	}
}

func (f *subFanout) setup() error {
	st, err := newStack(3, "")
	if err != nil {
		return err
	}
	f.st = st
	f.wake = make(chan struct{}, 1)
	f.gen = workload.New(workload.SubFanout, f.seed, 0)
	if f.writer, err = st.dial("fan-writer"); err != nil {
		return err
	}
	// One sample before anyone subscribes, so status is defined on the
	// first tick.
	if err := f.writer.InjectSample("temp", workload.Value(f.gen.Temp())); err != nil {
		return err
	}
	if err := f.writer.Flush(); err != nil {
		return err
	}
	subConn, err := st.dial("fan-subs")
	if err != nil {
		return err
	}
	for i := 0; i < fanSubs; i++ {
		s, err := subConn.Subscribe(fanSpec())
		if err != nil {
			return fmt.Errorf("subscribe %d: %w", i, err)
		}
		f.subs = append(f.subs, s)
		f.consumers.Add(1)
		go f.consume(s)
	}
	f.ctl, err = st.dial("ctl")
	return err
}

// consume is one subscriber: it checks each push and wakes the writer when
// the round's last push has arrived.
func (f *subFanout) consume(s *client.Subscription) {
	defer f.consumers.Done()
	var last uint64
	for p := range s.Pushes() {
		okAnswer := len(p.Answers) == 1 && (p.Answers[0] == "ok" && !f.wrong || p.Answers[0] == "high")
		if p.Cursor <= last || !p.Evaluated || !okAnswer {
			f.badPush.Add(1)
		}
		last = p.Cursor
		if p.Missed {
			f.missed.Add(1)
		}
		if f.received.Add(1) >= f.target.Load() {
			select {
			case f.wake <- struct{}{}:
			default:
			}
		}
	}
}

// matured is how many pushes the server has scheduled for delivery so far.
func (f *subFanout) matured() uint64 {
	m := f.st.srv.Metrics.Snapshot()
	return m.PushScheduled - m.PushDropped - m.PushExpired
}

// await blocks until the consumers hold target pushes. It sleeps on the
// wake channel; the timeout turns a lost push into a failed op, not a hang.
func (f *subFanout) await(target uint64) bool {
	f.target.Store(target)
	timeout := time.NewTimer(5 * time.Second)
	defer timeout.Stop()
	for f.received.Load() < target {
		select {
		case <-f.wake:
		case <-timeout.C:
			return false
		}
	}
	return true
}

// window does fixed work: every round appends to temp's history and to the
// firing log, so the heap at the end of a pass depends on the rounds done.
func (f *subFanout) window(recs []*clientRec, warm bool) {
	rec := recs[0]
	rounds := f.sz.roundsPerWindow
	if warm {
		rounds = max(1, rounds/warmShare)
	}
	for n := 0; n < rounds; n++ {
		t0 := time.Now()
		missed0, wrong0 := f.missed.Load(), f.badPush.Load()
		ok := true
		for s := 0; s < workload.RoundSamples; s++ {
			if err := f.writer.InjectSample("temp", workload.Value(f.gen.Temp())); err != nil {
				ok = false
			}
		}
		t1 := time.Now()
		if err := f.writer.Flush(); err != nil {
			ok = false
		}
		t2 := time.Now()
		// After the Flush ack every tick the round's samples matured is
		// scheduled, so the target is final.
		if !f.await(f.matured()) {
			ok = false
		}
		t3 := time.Now()
		ok = ok && f.badPush.Load() == wrong0
		rec.add(t3.Sub(t0), ok, f.missed.Load() == missed0 && t3.Sub(t0) <= fanLimit)
		if rec.tr != nil {
			root := rec.tr.begin("sub_fanout.op", t0)
			rec.tr.add("client.InjectSample x32", root, t0, t1)
			rec.tr.add("client.Flush", root, t1, t2)
			rec.tr.add("push.receipt", root, t2, t3)
			rec.tr.end(root, t3)
		}
	}
}

func (f *subFanout) finish() (failed []string) {
	if f.st == nil {
		return nil
	}
	// Per-subscription delivery audit, with the coordinates read before
	// Close tears the stream down. The loop is delivery-closed, so every
	// queue is empty here.
	for i, s := range f.subs {
		dropped, expired := s.Tallies()
		if got, want := s.Received(), s.Cursor()-dropped-expired-s.LocalDrops(); got != want {
			failed = append(failed, fmt.Sprintf("sub %d audit (received %d != cursor %d - dropped %d - expired %d - local %d)",
				i, got, s.Cursor(), dropped, expired, s.LocalDrops()))
		}
		if dropped+expired+s.LocalDrops() != 0 {
			failed = append(failed, fmt.Sprintf("sub %d lost pushes (dropped %d expired %d local %d)", i, dropped, expired, s.LocalDrops()))
		}
		if err := s.Close(); err != nil {
			failed = append(failed, fmt.Sprintf("sub %d close: %v", i, err))
		}
	}
	f.consumers.Wait()
	if n := f.badPush.Load(); n != 0 {
		failed = append(failed, fmt.Sprintf("push cursor order and answers (%d wrong)", n))
	}
	m := f.st.srv.Metrics.Snapshot()
	if m.PushScheduled != m.PushAccounted() {
		failed = append(failed, fmt.Sprintf("push_scheduled==accounted (%d != %d)", m.PushScheduled, m.PushAccounted()))
	}
	if m.SubsOpened != m.SubsClosed {
		failed = append(failed, fmt.Sprintf("subs_opened==subs_closed (%d != %d)", m.SubsOpened, m.SubsClosed))
	}
	if m.SamplesRejected != 0 {
		failed = append(failed, fmt.Sprintf("samples_rejected==0 (%d)", m.SamplesRejected))
	}
	return append(failed, f.st.shutdown()...)
}

func (f *subFanout) mark() { f.marks.take(f.st) }

func (f *subFanout) layers(traced, e2e *summary, m map[string]float64) (err error) {
	if err := f.marks.fill(m, f.st, f.ctl, float64(traced.ops), f.sz.replayOps/10); err != nil {
		return err
	}

	// rtwire alone: a round is RoundSamples Sample frames, a Flush, a
	// Flushed, and the pushes it matures, about a third of a tick per
	// sample for each subscription.
	g := workload.New(workload.SubFanout, f.seed, 0)
	var frames []wireMsg
	for s := 0; s < workload.RoundSamples; s++ {
		frames = append(frames, rtwire.Sample{ID: uint64(s + 1), Image: "temp", Value: workload.Value(g.Temp())})
	}
	frames = append(frames, rtwire.Flush{ID: 99}, rtwire.Flushed{ID: 99, Chronon: 100_000})
	pushes := int((m["netserve.frames_per_op"] - float64(len(frames))))
	for p := 0; p < pushes; p++ {
		frames = append(frames, rtwire.Push{
			ID: uint64(p%fanSubs + 1), Cursor: uint64(1000 + p/fanSubs), Useful: 1, Evaluated: true,
			Issue: 100_000, Served: 100_001, Answers: []string{"ok"},
		})
	}
	if err := codecReplay(m, frames, f.sz.replayOps); err != nil {
		return err
	}

	if m["server.sample_ns_per_op"], err = sampleReplay(f.env, workload.SubFanout, workload.RoundSamples); err != nil {
		return err
	}
	roundUs, allocsPerPush, err := f.subReplay()
	if err != nil {
		return err
	}
	m["sub.round_us_p50"] = roundUs
	m["sub.allocs_per_push"] = allocsPerPush
	m["netserve.push_self_us_p50"] = e2e.rawP50us() - roundUs
	m["sub.queue_putpop_ns"] = queueReplay(f.sz.replayOps)
	return nil
}

// subReplay is server and sub alone on the push path: the same rounds
// through a session in process, with fanSubs subscriptions attached through
// server.Subscribe and one popper each, no wire. A round ends when every
// push it matured has been popped.
func (f *subFanout) subReplay() (roundUsP50, allocsPerPush float64, err error) {
	srv, err := server.New(serverConfig(1, nil))
	if err != nil {
		return 0, 0, err
	}
	srv.Start()
	defer srv.Stop()
	sess := srv.Session(0)
	g := workload.New(workload.SubFanout, f.seed, 0)
	if err := sess.InjectSample("temp", workload.Value(g.Temp())); err != nil {
		return 0, 0, err
	}
	if err := sess.Flush(); err != nil {
		return 0, 0, err
	}

	var (
		popped  atomic.Uint64
		target  atomic.Uint64
		wake    = make(chan struct{}, 1)
		stop    = make(chan struct{})
		poppers sync.WaitGroup
		subs    []*server.ServerSub
	)
	spec := sub.Spec{Query: "status_q", Period: fanPeriod, Kind: deadline.Soft, Deadline: fanDeadline, MinUseful: 1}
	defer func() {
		close(stop)
		poppers.Wait()
		for _, ss := range subs {
			_, _ = ss.Cancel()
		}
	}()
	for i := 0; i < fanSubs; i++ {
		ss, err := srv.Subscribe(spec, 0, fanDepth)
		if err != nil {
			return 0, 0, fmt.Errorf("sub replay subscribe: %w", err)
		}
		subs = append(subs, ss)
		poppers.Add(1)
		go func() {
			defer poppers.Done()
			for {
				for {
					if _, _, ok := ss.Pop(); !ok {
						break
					}
					if popped.Add(1) >= target.Load() {
						select {
						case wake <- struct{}{}:
						default:
						}
					}
				}
				select {
				case <-ss.Notify():
				case <-stop:
					return
				}
			}
		}()
	}

	rounds := max(2, f.sz.replayOps/workload.RoundSamples/4)
	lat := make([]float64, 0, rounds)
	var m0, p0 uint64
	for r := -rounds / 4; r < rounds; r++ { // negative rounds warm up
		if r == 0 {
			m0, p0 = mallocs(), popped.Load()
		}
		t0 := time.Now()
		for s := 0; s < workload.RoundSamples; s++ {
			if err := sess.InjectSample("temp", workload.Value(g.Temp())); err != nil {
				return 0, 0, fmt.Errorf("sub replay: %w", err)
			}
		}
		if err := sess.Flush(); err != nil {
			return 0, 0, fmt.Errorf("sub replay: %w", err)
		}
		ms := srv.Metrics.Snapshot()
		want := ms.PushScheduled - ms.PushDropped - ms.PushExpired
		target.Store(want)
		deadline := time.After(5 * time.Second)
		for popped.Load() < want {
			select {
			case <-wake:
			case <-deadline:
				return 0, 0, fmt.Errorf("sub replay: %d of %d pushes popped", popped.Load(), want)
			}
		}
		if r >= 0 {
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return stats.Median(lat), float64(mallocs()-m0) / float64(popped.Load()-p0), nil
}

// queueReplay is sub.Queue alone: one Put and one Pop, ns per pair.
func queueReplay(n int) float64 {
	q := sub.NewQueue(fanDepth)
	p := sub.Push{Useful: 1, Evaluated: true, Answers: []string{"ok"}}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p.Cursor = uint64(i + 1)
		q.Put(p)
		q.Pop()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}
