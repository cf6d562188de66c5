// Keyspace sharding: NewShards splits one catalog into N complete
// single-shard Servers — each with its own database, apply loop, clock, WAL
// directory, and group-commit window. There is no composition type and no
// router: a Server is the shard, and starting, serving and placement are the
// caller's. Object names map to shards through rtwire.ShardOf, the stable
// hash clients compute, so whoever holds a sample for "temp" — a remote
// client, a test, a replay of a per-shard WAL — takes it to the same shard
// and talks to that shard's own sessions.
//
// Everything inside a shard stays exactly single-shard: group commit,
// replication fan-out, snapshot publication, admission control and the
// conservation laws run per shard, untouched. So does time: each shard runs
// its own clock and publishes its own read horizon (the paper's §6
// per-process words c_k l_k r_k; one shared clock is the one-shard case),
// and no cut across shards is offered. The per-shard counter blocks each obey
// the conservation laws, so their MetricsSnapshot.Add sum obeys them too —
// the cross-shard invariant the shard suites check.
//
// With one shard the split returns the catalog unchanged: NewShards(cfg, 1,
// logs)[0] is New(cfg) over logs[0], byte-identical log output.

package server

import (
	"errors"
	"fmt"
	"path/filepath"

	"rtc/internal/rtdb"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
)

// ShardDir is the conventional per-shard WAL layout: the base directory
// itself for a single shard (byte-identical to an unsharded deployment),
// base/shard-NN for a sharded one.
func ShardDir(base string, shard, shards int) string {
	if shards < 2 {
		return base
	}
	return filepath.Join(base, fmt.Sprintf("shard-%02d", shard))
}

// NewShards splits cfg.Spec across shards (splitSpec; rules go to every
// shard) and builds one Server per shard. cfg.Log must be nil; logs, if
// given, holds one log per shard, opened against ShardDir so recovery finds
// the same layout.
func NewShards(cfg Config, shards int, logs []*wal.Log) ([]*Server, error) {
	shards = max(shards, 1)
	if cfg.Log != nil {
		return nil, errors.New("server: NewShards takes per-shard logs, not Config.Log")
	}
	if logs != nil && len(logs) != shards {
		return nil, fmt.Errorf("server: %d logs for %d shards", len(logs), shards)
	}
	specs, err := splitSpec(cfg.Spec, shards)
	if err != nil {
		return nil, err
	}
	out := make([]*Server, shards)
	for i := range out {
		c := cfg
		c.Spec = specs[i]
		if logs != nil {
			c.Log = logs[i]
		}
		if out[i], err = New(c); err != nil {
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
	}
	return out, nil
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
