package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"rtc/bench/workload"
	"rtc/internal/deadline"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// wire_query: the read path. Op = one client.Query round trip under a firm
// deadline of 8 chronons; 3 in 4 ops are point reads latest_q/<sensor> on a
// seeded-uniform sensor, 1 in 4 is hot_set_q, which scans the bank and
// answers with HotSensors names. No WAL, no subscriptions.
const (
	queryDeadline = 8 // chronons, firm
	queryLimit    = time.Millisecond
)

type wireQuery struct {
	env
	st    *stack
	pre   *workload.Preload
	conns []*client.Client
	ctl   *client.Client
	gens  []*workload.Gen
	marks wireMarks
}

func (w *wireQuery) loaders() int { return w.env.loaders }

func (w *wireQuery) setup() error {
	st, err := newStack(w.env.loaders+1, "")
	if err != nil {
		return err
	}
	w.st = st
	w.pre = workload.NewPreload(w.seed)
	if w.wrong {
		w.pre.Final[0] = (w.pre.Final[0] + 1) % (workload.MaxValue + 1)
		w.pre.Hot = w.pre.Hot[1:]
	}
	if err := preload(st.srv, workload.NewPreload(w.seed), w.sz.preloadPerSensor); err != nil {
		return err
	}
	for i := 0; i < w.env.loaders; i++ {
		w.gens = append(w.gens, workload.New(workload.WireQuery, w.seed, i))
	}
	w.conns, w.ctl, err = st.dialLoaders("query", w.env.loaders)
	return err
}

// preload injects the static history through a session, in process: the
// wire is not what this set-up measures. A batch stays below the session's
// queue depth, so nothing is refused.
func preload(srv *server.Server, pre *workload.Preload, perSensor int) error {
	sess := srv.Session(0)
	var err error
	n := 0
	pre.Each(perSensor, func(s, v int) {
		if err != nil {
			return
		}
		if err = sess.InjectSample(workload.SensorName(s), workload.Value(v)); err != nil {
			return
		}
		if n++; n%(queueDepth/2) == 0 {
			err = sess.Flush()
		}
	})
	if err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return sess.Flush()
}

// queryName and wantAnswers map a generated op to its catalog query and the
// answer the static preload fixes for it.
func (w *wireQuery) queryName(sensor int) string {
	if sensor < 0 {
		return workload.HotSetQuery
	}
	return workload.LatestQuery(sensor)
}

func (w *wireQuery) rightAnswer(sensor int, got []string) bool {
	if sensor < 0 {
		return slices.Equal(got, w.pre.Hot)
	}
	return len(got) == 1 && got[0] == workload.Value(w.pre.Final[sensor])
}

// window is the one time-based window of the benchmark: the preload is
// static, so no state grows with the ops done. The warm-up does fixed work,
// because it is part of the set-up time.
func (w *wireQuery) window(recs []*clientRec, warm bool) {
	var wg sync.WaitGroup
	stop := time.Now().Add(w.sz.window)
	for i := range recs {
		wg.Add(1)
		go func(c *client.Client, g *workload.Gen, rec *clientRec) {
			defer wg.Done()
			for n := 0; ; n++ {
				t0 := time.Now()
				if warm && n == w.sz.warmQueries || !warm && !t0.Before(stop) {
					return
				}
				sensor := g.Query()
				res, err := c.Query(client.Query{
					Query: w.queryName(sensor), Kind: deadline.Firm,
					Deadline: queryDeadline, MinUseful: 1,
				})
				t1 := time.Now()
				// A query the server shed unevaluated is late, not wrong.
				ok := err == nil && (!res.Evaluated || w.rightAnswer(sensor, res.Answers))
				rec.add(t1.Sub(t0), ok, res.Evaluated && !res.Missed && t1.Sub(t0) <= queryLimit)
				if rec.tr != nil {
					root := rec.tr.begin("wire_query.op", t0)
					rec.tr.add("client.Query", root, t0, t1)
					rec.tr.end(root, time.Now())
				}
			}
		}(w.conns[i], w.gens[i], recs[i])
	}
	wg.Wait()
}

func (w *wireQuery) finish() (failed []string) {
	if w.st == nil {
		return nil
	}
	m := w.st.srv.Metrics.Snapshot()
	if m.QueriesIn != m.QueriesAccounted() {
		failed = append(failed, fmt.Sprintf("queries_in==accounted (%d != %d)", m.QueriesIn, m.QueriesAccounted()))
	}
	return append(failed, w.st.shutdown()...)
}

func (w *wireQuery) mark() { w.marks.take(w.st) }

func (w *wireQuery) layers(traced, e2e *summary, m map[string]float64) error {
	if err := w.marks.fill(m, w.st, w.ctl, float64(traced.ops), w.sz.replayOps/10); err != nil {
		return err
	}

	// rtwire alone: the Query and Result frames of the generated ops.
	g := workload.New(workload.WireQuery, w.seed, 0)
	var frames []wireMsg
	for i := 0; i < 256; i++ {
		sensor := g.Query()
		frames = append(frames, rtwire.Query{
			ID: uint64(i + 1), Query: w.queryName(sensor), Kind: deadline.Firm,
			Deadline: queryDeadline, MinUseful: 1,
		})
		answers := w.pre.Hot
		if sensor >= 0 {
			answers = []string{workload.Value(w.pre.Final[sensor])}
		}
		frames = append(frames, rtwire.Result{
			ID: uint64(i + 1), Answers: answers, Useful: 1, Evaluated: true, Issue: 1000, Served: 1001,
		})
	}
	if err := codecReplay(m, frames, w.sz.replayOps); err != nil {
		return err
	}

	// server alone: the same ops through Session.Query in process, the same
	// number of concurrent callers, no wire and no WAL.
	p50, allocs, err := w.sessionReplay()
	if err != nil {
		return err
	}
	m["server.query_us_p50"] = p50
	m["server.query_allocs_per_op"] = allocs
	m["netserve.wire_self_us_p50"] = e2e.rawP50us() - p50
	return nil
}

func (w *wireQuery) sessionReplay() (p50us, allocsPerOp float64, err error) {
	srv, err := server.New(serverConfig(w.env.loaders, nil))
	if err != nil {
		return 0, 0, err
	}
	srv.Start()
	defer srv.Stop()
	if err := preload(srv, workload.NewPreload(w.seed), w.sz.preloadPerSensor); err != nil {
		return 0, 0, err
	}
	recs := make([]*clientRec, w.env.loaders)
	for i := range recs {
		recs[i] = &clientRec{lat: make([]int64, 0, w.sz.replayOps)}
	}
	run := func() {
		var wg sync.WaitGroup
		for i := range recs {
			wg.Add(1)
			go func(sess *server.Session, g *workload.Gen, rec *clientRec) {
				defer wg.Done()
				for n := 0; n < w.sz.replayOps; n++ {
					sensor := g.Query()
					t0 := time.Now()
					res, err := sess.Query(server.QueryRequest{
						Query: w.queryName(sensor), Kind: deadline.Firm,
						Deadline: queryDeadline, MinUseful: 1,
					})
					rec.add(time.Since(t0), err == nil && (!res.Evaluated || w.rightAnswer(sensor, res.Answers)), !res.Missed)
				}
			}(srv.Session(i), workload.New(workload.WireQuery, w.seed, i), recs[i])
		}
		wg.Wait()
	}
	measure(recs, run) // warm-up
	win := measure(recs, run)
	if win.ok != win.ops() {
		return 0, 0, fmt.Errorf("session replay: %d of %d answers wrong", win.ops()-win.ok, win.ops())
	}
	return win.pctUs(50), win.allocsPerOp(), nil
}
