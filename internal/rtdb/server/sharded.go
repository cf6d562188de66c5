// Keyspace sharding: a ShardedServer is N complete single-shard stacks —
// each with its own database, apply loop, WAL directory, and group-commit
// window — composed behind one deterministic router. Object names map to
// shards through rtwire.ShardOf, the stable hash clients use to compute
// placement, so a sample for "temp" lands on the same shard whether it is
// routed here, by a remote client, or replayed from a per-shard WAL.
//
// What stays exactly single-shard: everything inside a shard. Group commit,
// replication fan-out, snapshot publication, admission control, and the
// conservation laws all run per shard, untouched — the sharded layer only
// routes, stamps, and aggregates. What the layer adds:
//
//   - A global routing clock (rc). Every routed request is stamped with the
//     chronon it would have landed at on a single-shard server: samples take
//     rc and advance it by one, evaluated queries advance it by EvalCost,
//     ticks by their span. A shard receiving a stamped request jumps its
//     local clock to the stamp (firing its own periodic/subscription dues at
//     their instants on the way), so under a sequential driver the per-shard
//     WALs carry the same timestamps a single shard would have written.
//   - A consistent read horizon: HistoryHorizon is the minimum over the
//     shard horizons, and Flush pulls every shard up to rc before the
//     durability barrier so an idle lane never pins the horizon.
//   - Aggregated metrics: per-shard counter blocks stay intact (each obeys
//     its own conservation laws) and MetricsSnapshot sums them — the
//     cross-shard sums obey the same laws, which the shard suites check.
//
// With Shards == 1 the composition degrades to a pass-through: one shard,
// the base WAL directory used verbatim, byte-identical log output.

package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"rtc/internal/relational"
	"rtc/internal/rtdb"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// ShardedConfig describes a sharded deployment.
type ShardedConfig struct {
	// Base is the per-shard configuration template. Base.Log must be nil:
	// per-shard logs come through Logs. Base.Spec is the whole catalog; it
	// is split across the shards by NewSharded (invariants replicated
	// everywhere, images placed by rtwire.ShardOf, derived objects
	// co-located with their image sources, rules installed on every shard).
	Base Config
	// Shards is the shard count (default 1).
	Shards int
	// Logs, when non-nil, holds one write-ahead log per shard (len must
	// equal Shards). Open them against ShardDir so recovery finds the same
	// layout. Nil runs every shard log-less.
	Logs []*wal.Log
	// QueryHome maps a catalog query name to the object name whose shard
	// owns it — the query's read set must live on that shard. Queries not
	// listed route by ShardOf(query name).
	QueryHome map[string]string
}

// ShardDir is the conventional per-shard WAL layout: the base directory
// itself for a single shard (byte-identical to an unsharded deployment),
// base/shard-NN for a sharded one.
func ShardDir(base string, shard, shards int) string {
	if shards < 2 {
		return base
	}
	return filepath.Join(base, fmt.Sprintf("shard-%02d", shard))
}

// ShardedServer routes sessions over N single-shard servers.
type ShardedServer struct {
	cfg    ShardedConfig
	shards []*Server
	// rc is the global routing clock (see the package comment above).
	rc       atomic.Uint64
	sessions []*ShardedSession
}

// NewSharded builds the composition: the spec is split, each shard gets a
// full single-shard Server (recovering from its own log if one is given),
// and the routing clock starts at the newest recovered chronon.
func NewSharded(cfg ShardedConfig) (*ShardedServer, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Base.Log != nil {
		return nil, errors.New("server: ShardedConfig.Base.Log must be nil; per-shard logs go in Logs")
	}
	if cfg.Logs != nil && len(cfg.Logs) != cfg.Shards {
		return nil, fmt.Errorf("server: %d logs for %d shards", len(cfg.Logs), cfg.Shards)
	}
	specs, err := splitSpec(cfg.Base.Spec, cfg.Shards)
	if err != nil {
		return nil, err
	}
	ss := &ShardedServer{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		c := cfg.Base
		c.Spec = specs[i]
		if cfg.Logs != nil {
			c.Log = cfg.Logs[i]
		}
		sh, err := New(c)
		if err != nil {
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
		ss.shards = append(ss.shards, sh)
	}
	// Resume global time at the frontier: the routing clock must not hand
	// out chronons any shard's recovered history already passed.
	for _, sh := range ss.shards {
		if now := uint64(sh.Now()); now > ss.rc.Load() {
			ss.rc.Store(now)
		}
	}
	for i := 0; i < ss.shards[0].Sessions(); i++ {
		t := &ShardedSession{id: i, ss: ss}
		for _, sh := range ss.shards {
			t.per = append(t.per, sh.Session(i))
		}
		ss.sessions = append(ss.sessions, t)
	}
	return ss, nil
}

// splitSpec partitions the catalog: invariants are replicated to every
// shard (they are constants — replication keeps every shard's rule and
// derive closures self-contained), images are placed by ShardOf, and each
// derived object lands on the shard owning its image sources. Sources that
// span shards are a configuration error, reported here rather than as a
// silent wrong answer at derive time.
func splitSpec(sp rtdb.Spec, shards int) ([]rtdb.Spec, error) {
	out := make([]rtdb.Spec, shards)
	for i := range out {
		out[i].Invariants = sp.Invariants
	}
	imgShard := make(map[string]int, len(sp.Images))
	for _, o := range sp.Images {
		k := rtwire.ShardOf(o.Name, shards)
		imgShard[o.Name] = k
		out[k].Images = append(out[k].Images, o)
	}
	placed := make(map[string]int, len(sp.Derived))
	for _, d := range sp.Derived {
		home := -1
		for _, src := range d.Sources {
			k, ok := imgShard[src]
			if !ok {
				if pk, pok := placed[src]; pok {
					k = pk
				} else if _, inv := sp.Invariants[src]; inv {
					continue // invariants exist on every shard
				} else {
					return nil, fmt.Errorf("server: derived object %q reads unknown source %q (derived sources must be declared before their readers)", d.Name, src)
				}
			}
			if home >= 0 && home != k {
				return nil, fmt.Errorf("server: derived object %q reads sources on shards %d and %d; co-locate its image sources or lower the shard count", d.Name, home, k)
			}
			home = k
		}
		if home < 0 {
			home = rtwire.ShardOf(d.Name, shards)
		}
		placed[d.Name] = home
		out[home].Derived = append(out[home].Derived, d)
	}
	return out, nil
}

// Start launches every shard's apply loop.
func (ss *ShardedServer) Start() {
	for _, sh := range ss.shards {
		sh.Start()
	}
}

// Stop stops every shard (concurrently: each shard's final sync is an
// independent fsync, and overlapping them is the whole point of sharding).
func (ss *ShardedServer) Stop() {
	_ = ss.each(func(sh *Server) error { sh.Stop(); return nil })
}

// NumShards returns the shard count.
func (ss *ShardedServer) NumShards() int { return len(ss.shards) }

// Shard exposes the i-th single-shard server — the transport layer wraps
// each in its own listener, and the suites reach per-shard state through it.
func (ss *ShardedServer) Shard(i int) *Server { return ss.shards[i] }

// ShardFor returns the shard index owning an object name.
func (ss *ShardedServer) ShardFor(name string) int {
	return rtwire.ShardOf(name, len(ss.shards))
}

// Session returns the i-th sharded session handle.
func (ss *ShardedServer) Session(i int) *ShardedSession { return ss.sessions[i] }

// Sessions returns the session count.
func (ss *ShardedServer) Sessions() int { return len(ss.sessions) }

// Now returns the global routing clock.
func (ss *ShardedServer) Now() timeseq.Time { return timeseq.Time(ss.rc.Load()) }

// homeShard resolves a query name to its owning shard.
func (ss *ShardedServer) homeShard(query string) int {
	if obj, ok := ss.cfg.QueryHome[query]; ok {
		return rtwire.ShardOf(obj, len(ss.shards))
	}
	return rtwire.ShardOf(query, len(ss.shards))
}

// rcMax advances the routing clock to at least t (CAS-max, never backward).
func (ss *ShardedServer) rcMax(t uint64) {
	for {
		cur := ss.rc.Load()
		if t <= cur || ss.rc.CompareAndSwap(cur, t) {
			return
		}
	}
}

// each runs fn on every shard concurrently and joins the errors. The
// concurrency is load-bearing, not a nicety: a barrier that visited shards
// serially would serialize their fsyncs and forfeit the overlap.
func (ss *ShardedServer) each(fn func(sh *Server) error) error {
	errs := make([]error, len(ss.shards))
	var wg sync.WaitGroup
	for i, sh := range ss.shards {
		wg.Add(1)
		go func(i int, sh *Server) {
			defer wg.Done()
			errs[i] = fn(sh)
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Tick advances the global clock by n chronons and pulls every shard up to
// the new target — idle time is global, so periodic queries on every shard
// see it.
func (ss *ShardedServer) Tick(n uint64) error {
	target := timeseq.Time(ss.rc.Add(n))
	return ss.each(func(sh *Server) error { return sh.TickTo(target) })
}

// Barrier blocks until every request enqueued on every shard's inbox
// before it has been applied.
func (ss *ShardedServer) Barrier() error {
	return ss.each(func(sh *Server) error { return sh.Barrier() })
}

// Flush is the global quiescence point: every session queue on every shard
// drains (FIFO behind its pending samples), every shard's clock reaches the
// routing clock, every shard's open commit window closes, and a fresh as-of
// snapshot publishes — after it returns, HistoryHorizon() >= the routing
// clock at call time, and cross-shard reads at or before that horizon see
// one consistent cut.
func (ss *ShardedServer) Flush() error {
	at := timeseq.Time(ss.rc.Load())
	return ss.each(func(sh *Server) error {
		for i := 0; i < sh.Sessions(); i++ {
			served, err := sh.Session(i).flush(at, true)
			if err != nil {
				return err
			}
			ss.rcMax(uint64(served))
		}
		return sh.apply(sh.publishSnapshot)
	})
}

// RegisterPeriodic installs a standing periodic query on the shard owning
// it. Must be called before Start.
func (ss *ShardedServer) RegisterPeriodic(pq PeriodicQuery) error {
	return ss.shards[ss.homeShard(pq.Query)].RegisterPeriodic(pq)
}

// HistoryHorizon is the consistent cross-shard read horizon: the minimum
// over the shard horizons. Reads at or before it see every shard's state.
func (ss *ShardedServer) HistoryHorizon() timeseq.Time {
	var min timeseq.Time
	for i, sh := range ss.shards {
		if h := sh.HistoryHorizon(); i == 0 || h < min {
			min = h
		}
	}
	return min
}

// ValueAsOf routes a temporal point read to the shard owning the image.
func (ss *ShardedServer) ValueAsOf(image string, t timeseq.Time) (rtdb.Value, bool) {
	return ss.shards[ss.ShardFor(image)].ValueAsOf(image, t)
}

// AsOf evaluates a relational query against the published snapshots. A
// stored-relation read routes straight to the owner; anything else
// scatters — the first shard holding the query's whole read set answers
// (cross-shard joins are not served; co-locate the objects instead).
func (ss *ShardedServer) AsOf(q relational.Query, t timeseq.Time) (*relational.Relation, error) {
	if f, ok := q.(relational.From); ok {
		return ss.shards[ss.ShardFor(f.Name)].AsOf(q, t)
	}
	var firstErr error
	for _, sh := range ss.shards {
		rel, err := sh.AsOf(q, t)
		if err == nil {
			return rel, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// MetricsSnapshot aggregates the per-shard counter blocks. Each shard's
// block satisfies the conservation laws independently, so their sum does
// too — the cross-shard invariant the shard suites assert. Chronon reports
// the routing clock; the max-semantics gauges take the max across shards.
func (ss *ShardedServer) MetricsSnapshot() MetricsSnapshot {
	var out MetricsSnapshot
	for _, sh := range ss.shards {
		out.accumulate(sh.Metrics.Snapshot())
	}
	out.Chronon = ss.rc.Load()
	return out
}

// accumulate folds another shard's snapshot into s: counters add, the
// max-gauges (cascade depth, fsync max) take the max, and Chronon is left
// to the caller (a sum of clocks means nothing).
func (s *MetricsSnapshot) accumulate(o MetricsSnapshot) {
	s.SamplesIn += o.SamplesIn
	s.SamplesRejected += o.SamplesRejected
	s.SamplesApplied += o.SamplesApplied
	s.QueriesIn += o.QueriesIn
	s.QueriesRejected += o.QueriesRejected
	s.RejectMiss += o.RejectMiss
	s.DeadlineHit += o.DeadlineHit
	s.DeadlineMiss += o.DeadlineMiss
	s.NoDeadline += o.NoDeadline
	s.AdmissionSkip += o.AdmissionSkip
	s.ExpiredOnArrival += o.ExpiredOnArrival
	s.Degraded += o.Degraded
	s.PeriodicIssued += o.PeriodicIssued
	s.PeriodicHit += o.PeriodicHit
	s.PeriodicMiss += o.PeriodicMiss
	s.SubsOpened += o.SubsOpened
	s.SubsClosed += o.SubsClosed
	s.PushScheduled += o.PushScheduled
	s.Pushed += o.Pushed
	s.PushDropped += o.PushDropped
	s.PushExpired += o.PushExpired
	s.AsOfReads += o.AsOfReads
	s.RuleFirings += o.RuleFirings
	if o.CascadeDepthMax > s.CascadeDepthMax {
		s.CascadeDepthMax = o.CascadeDepthMax
	}
	s.WalAppends += o.WalAppends
	s.WalErrors += o.WalErrors
	s.FsyncCount += o.FsyncCount
	s.FsyncNanos += o.FsyncNanos
	if o.FsyncMaxNanos > s.FsyncMaxNanos {
		s.FsyncMaxNanos = o.FsyncMaxNanos
	}
	s.GroupCommits += o.GroupCommits
	s.GroupedAppends += o.GroupedAppends
}

// ShardedSession is one client's handle on the composition: the same id on
// every shard, with submissions routed and stamped.
type ShardedSession struct {
	id  int
	ss  *ShardedServer
	per []*Session
}

// ID returns the session index.
func (t *ShardedSession) ID() int { return t.id }

// InjectSample routes one sample to the owning shard, stamped with the
// routing chronon it claims (each sample claims one chronon, exactly as a
// single-shard apply loop spends one per sample).
func (t *ShardedSession) InjectSample(image, value string) error {
	at := timeseq.Time(t.ss.rc.Add(1) - 1)
	return t.per[t.ss.ShardFor(image)].sample(image, value, at, true)
}

// Query routes one aperiodic query to its home shard, issued at the
// routing chronon. An evaluated query advances the routing clock by its
// EvalCost (mirrored from the response's completion stamp); a rejected or
// admission-skipped one spends nothing, exactly like the single-shard path.
func (t *ShardedSession) Query(q QueryRequest) (Response, error) {
	issue := timeseq.Time(t.ss.rc.Load())
	resp, err := t.per[t.ss.homeShard(q.Query)].query(q, issue, true)
	if err == nil && resp.Evaluated {
		t.ss.rcMax(uint64(resp.Served))
	}
	return resp, err
}

// Flush blocks until everything this session enqueued on any shard has
// been applied and is durable, pulling each shard's clock up to the
// routing clock on the way so idle lanes keep pace. The flush also folds
// each shard's clock back into the routing clock: periodic invocations
// advance a shard on their own (the router never stamps them), and flush
// points are where that spent time becomes global.
func (t *ShardedSession) Flush() error {
	at := timeseq.Time(t.ss.rc.Load())
	var firstErr error
	for _, s := range t.per {
		served, err := s.flush(at, true)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		t.ss.rcMax(uint64(served))
	}
	return firstErr
}
