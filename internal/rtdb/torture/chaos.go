package torture

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"

	"rtc/internal/deadline"
	"rtc/internal/faultfs"
	"rtc/internal/rtdb"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/server"
	"rtc/internal/timeseq"
)

// The chaos run's fixed shape: session queues are kept small so
// backpressure engages, and a transient write fault (alternating EIO and
// torn short write) lands every so many data writes.
const (
	chaosQueueDepth = 8
	chaosFaultEvery = 25
)

func chaosDerive(src map[string]rtdb.Value) rtdb.Value {
	t, _ := strconv.Atoi(src["temp"])
	l, _ := strconv.Atoi(src["limit"])
	if t > l {
		return "high"
	}
	return "ok"
}

// chaosCatalog is the query catalog of every server the harness builds,
// primary or follower.
var chaosCatalog = rtdb.Catalog{
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
}

func chaosServerConfig(l *wal.Log, sessions, depth int) server.Config {
	return server.Config{
		Spec: rtdb.Spec{
			Invariants: map[string]rtdb.Value{"limit": "22"},
			Images: []*rtdb.ImageObject{
				{Name: "temp", Period: 5},
				{Name: "press", Period: 3},
			},
			Derived: []*rtdb.DerivedObject{{
				Name: "status", Sources: []string{"temp", "limit"}, Derive: chaosDerive,
			}},
		},
		Catalog:  chaosCatalog,
		Registry: rtdb.DeriveRegistry{"status": chaosDerive},
		Rules: []rtdb.Rule{{
			Name: "alarm", On: "sample:temp", Mode: rtdb.Immediate,
			If:   func(db *rtdb.DB, e rtdb.Event) bool { return e.Attr["value"] > "24" },
			Then: func(db *rtdb.DB, e rtdb.Event) {},
		}},
		Sessions:   sessions,
		QueueDepth: depth,
		Log:        l,
	}
}

// chaosRun is the chaos row's one point: `sessions` seeded racing sessions of
// opsEach ops against one server — samples, deadline-carrying queries
// (including the firm boundary deadline == EvalCost), as-of reads and idle
// ticks — while the WAL underneath them takes transient write faults
// mid-apply-loop. Afterwards every book must close — every query accounted
// exactly once, every accepted sample applied, every periodic invocation
// tallied — and the WAL must have survived: never poisoned,
// recoverable, with exactly WalAppends events, and a fresh server
// rebuildable from the recovered state. Every law is checked even after one
// fails; the violations come back joined.
func chaosRun(seed uint64, sessions, opsEach int) (m server.MetricsSnapshot, err error) {
	var errs []error // Join drops the nil ones
	check := func(err error) { errs = append(errs, err) }
	fail := func(format string, args ...any) { check(fmt.Errorf(format, args...)) }
	defer func() { err = errors.Join(errs...) }()

	mem := faultfs.NewMem(pointSeed(seed, 0xc4a05))
	// Schedule transient write faults across the whole run, alternating
	// plain EIO and torn short writes. Only data writes are targeted, so
	// the log heals every one of them (fsync faults would rightly poison).
	maxWrites := uint64(sessions*opsEach*2 + 1024)
	for k, i := uint64(chaosFaultEvery), 0; k < maxWrites; k, i = k+chaosFaultEvery, i+1 {
		if i%2 == 0 {
			mem.FailWrite(k)
		} else {
			mem.TearWrite(k)
		}
	}

	opts := wal.Options{Dir: walDir, FS: mem, SegmentSize: 4096, SnapshotEvery: 64, Sync: true}
	l, err := wal.Open(opts)
	if err != nil {
		fail("Open: %v", err)
		return
	}
	defer l.Close()
	s, err := server.New(chaosServerConfig(l, sessions, chaosQueueDepth))
	if err != nil {
		fail("server.New: %v", err)
		return
	}
	defer s.Stop()
	if err = s.RegisterPeriodic(server.PeriodicQuery{
		Name: "watch", Query: "status_q", Period: 7,
		Kind: deadline.Firm, Deadline: 5, MinUseful: 1,
	}); err != nil {
		fail("RegisterPeriodic: %v", err)
		return
	}
	s.Start()

	var wg sync.WaitGroup
	opErrs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(pointSeed(seed, uint64(id)+1), 0x2545f4914f6cdd1d))
			c := s.Session(id)
			for op := 0; op < opsEach; op++ {
				// A random yield shakes the interleaving between sessions
				// so repeated runs explore different apply orders.
				if rng.IntN(8) == 0 {
					runtime.Gosched()
				}
				var err error
				what := ""
				switch r := rng.IntN(100); {
				case r < 55:
					img := "temp"
					if rng.IntN(3) == 0 {
						img = "press"
					}
					what, err = "inject", c.InjectSample(img, strconv.Itoa(15+rng.IntN(15)))
				case r < 70:
					// Firm queries, including the boundary envelope where
					// the relative deadline equals EvalCost (provably late).
					d := 1 + rng.IntN(20)
					what = "firm query"
					_, err = c.Query(server.QueryRequest{
						Query: "status_q", Candidate: "ok",
						Kind: deadline.Firm, Deadline: timeseq.Time(d), MinUseful: 1,
					})
				case r < 80:
					what = "soft query"
					_, err = c.Query(server.QueryRequest{
						Query: "temp_q",
						Kind:  deadline.Soft, Deadline: timeseq.Time(2 + rng.IntN(8)), MinUseful: uint64(rng.IntN(5)),
						U: deadline.Hyperbolic(8, 10),
					})
				case r < 90:
					_, _ = s.ValueAsOf("temp", s.Now()/2)
					_ = s.Metrics.Snapshot()
				default:
					what, err = "tick", s.Tick(uint64(1+rng.IntN(3)))
				}
				if err != nil && err != server.ErrBackpressure {
					opErrs <- fmt.Errorf("session %d: %s: %w", id, what, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(opErrs)
	for err := range opErrs {
		check(err)
	}
	for i := 0; i < sessions; i++ {
		if err := s.Session(i).Flush(); err != nil {
			fail("flush session %d: %v", i, err)
		}
	}
	if err := s.Barrier(); err != nil {
		fail("barrier: %v", err)
	}
	s.Stop()
	m = s.MetricsSnapshot()

	// Nothing is silently dropped, under faults or not.
	check(booksClosed("chaos", m))
	if m.QueriesIn == 0 || m.SamplesIn == 0 {
		fail("chaos run did no work: %+v", m)
	}

	// The WAL took mid-apply-loop faults and must have healed every one:
	// a transient segment write fault is healed and retried (wal_heals),
	// one on a snapshot write defers the snapshot (SnapshotErrors), and
	// neither costs the log. Every fault that fired is counted in one of
	// those books or in WalErrors.
	if err := l.Err(); err != nil {
		fail("WAL poisoned by transient faults: %v", err)
	}
	if n, counted := mem.Injected(), m.Heals+m.WalErrors+l.Stats().SnapshotErrors; counted != n {
		fail("%d faults injected but %d counted in wal_heals (%d), WalErrors (%d) or SnapshotErrors",
			n, counted, m.Heals, m.WalErrors)
	}
	if err := l.Close(); err != nil {
		fail("close WAL: %v", err)
	}

	// Recovery: exactly the successfully appended events come back, and a
	// fresh server rebuilds from them (load-or-recover).
	l2, err := wal.Open(opts)
	if err != nil {
		fail("recovery Open: %v", err)
		return
	}
	defer l2.Close()
	check(walConservation(l2.State().Events, m.WalAppends))
	s2, err := server.New(chaosServerConfig(l2, 1, chaosQueueDepth))
	if err != nil {
		fail("server rebuild from recovered WAL: %v", err)
		return
	}
	if s2.Now() != l2.State().LastAt {
		fail("rebuilt server clock %d != recovered LastAt %d", s2.Now(), l2.State().LastAt)
	}
	return
}
