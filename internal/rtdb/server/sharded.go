// Keyspace sharding: a ShardedServer is N complete single-shard stacks —
// each with its own database, apply loop, clock, WAL directory, and
// group-commit window — split from one catalog (splitSpec) and started and
// stopped together. It is not a router: a Server is the shard and placement
// is the client's. Object names map to shards through rtwire.ShardOf, the
// stable hash clients compute, so whoever holds a sample for "temp" — a
// remote client, a test, a replay of a per-shard WAL — takes it to the same
// Shard(i) and talks to that shard's own sessions.
//
// Everything inside a shard stays exactly single-shard: group commit,
// replication fan-out, snapshot publication, admission control and the
// conservation laws run per shard, untouched. So does time: each shard runs
// its own clock and publishes its own read horizon (the paper's §6
// per-process words c_k l_k r_k; one shared clock is the Shards == 1 case),
// and no cut across shards is offered. The per-shard counter blocks each obey
// the conservation laws, so MetricsSnapshot's sums obey them too — the
// cross-shard invariant the shard suites check.
//
// With Shards == 1 the composition is one Server: the base WAL directory
// used verbatim, byte-identical log output.

package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

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

// ShardedServer holds N single-shard servers built from one catalog.
type ShardedServer struct {
	shards []*Server
	home   map[string]string // ShardedConfig.QueryHome
}

// NewSharded builds the composition: the spec is split and each shard gets a
// full single-shard Server (recovering from its own log if one is given).
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
	ss := &ShardedServer{home: cfg.QueryHome}
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
	var wg sync.WaitGroup
	for _, sh := range ss.shards {
		wg.Add(1)
		go func(sh *Server) {
			defer wg.Done()
			sh.Stop()
		}(sh)
	}
	wg.Wait()
}

// NumShards returns the shard count.
func (ss *ShardedServer) NumShards() int { return len(ss.shards) }

// Shard returns the i-th single-shard server: the transport layer wraps each
// in its own listener, and whoever computes rtwire.ShardOf(object, NumShards)
// finds the object's sessions, clock and read horizon here.
func (ss *ShardedServer) Shard(i int) *Server { return ss.shards[i] }

// Now returns the furthest shard clock — no shard runs on it; it is the
// chronon no recovered history has passed, for dating a registration made
// before Start.
func (ss *ShardedServer) Now() timeseq.Time {
	var now timeseq.Time
	for _, sh := range ss.shards {
		now = max(now, sh.Now())
	}
	return now
}

// homeShard resolves a query name to its owning shard.
func (ss *ShardedServer) homeShard(query string) int {
	if obj, ok := ss.home[query]; ok {
		return rtwire.ShardOf(obj, len(ss.shards))
	}
	return rtwire.ShardOf(query, len(ss.shards))
}

// RegisterPeriodic installs a standing periodic query on the shard owning
// it. Must be called before Start.
func (ss *ShardedServer) RegisterPeriodic(pq PeriodicQuery) error {
	return ss.shards[ss.homeShard(pq.Query)].RegisterPeriodic(pq)
}

// MetricsSnapshot aggregates the per-shard counter blocks through
// MetricsSnapshot.Add. Each shard's block satisfies the conservation laws
// independently, so their sum does too — the cross-shard invariant the
// shard suites assert.
func (ss *ShardedServer) MetricsSnapshot() MetricsSnapshot {
	var out MetricsSnapshot
	for _, sh := range ss.shards {
		out.Add(sh.MetricsSnapshot())
	}
	return out
}
