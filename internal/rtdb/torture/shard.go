package torture

import (
	"fmt"
	"math/rand/v2"

	"rtc/internal/faultfs"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// shardSalt decorrelates the per-shard filesystems of one fault point.
func shardSalt(shard int) uint64 { return 0x100000001b3 * uint64(shard+1) }

// shardWorkload is the seeded event stream of one sharded run, pre-routed:
// step i carries the events issued at step i for each shard. A sample or
// firing lands on its object's owner (rtwire.ShardOf — the same placement
// clients compute); an invariant overwrite is broadcast to every shard,
// exactly as splitSpec replicates invariants.
type shardWorkload struct {
	objects []string
	owner   []int          // objects[i] -> owning shard
	steps   [][]shardEvent // per step, the routed events
}

type shardEvent struct {
	shard int
	e     wal.Event
}

// makeShardWorkload builds the routed workload: a per-shard catalog
// prologue (shared invariant + owned images), then n seeded steps mixing
// samples, invariant broadcasts, and rule firings across a keyspace wide
// enough that every shard owns at least one object.
func makeShardWorkload(seed uint64, n, shards int) *shardWorkload {
	w := &shardWorkload{}
	for i := 0; len(w.objects) < 3*shards; i++ {
		w.objects = append(w.objects, fmt.Sprintf("obj-%02d", i))
	}
	for _, o := range w.objects {
		w.owner = append(w.owner, int(rtwire.ShardOf(o, shards)))
	}

	// Prologue: every shard gets the invariant; each image goes to its
	// owner. One prologue step per event keeps fault points fine-grained.
	broadcast := func(e wal.Event) {
		var step []shardEvent
		for s := 0; s < shards; s++ {
			step = append(step, shardEvent{shard: s, e: e})
		}
		w.steps = append(w.steps, step)
	}
	broadcast(wal.Invariant("limit", "22"))
	for i, o := range w.objects {
		w.steps = append(w.steps, []shardEvent{{shard: w.owner[i], e: wal.Image(o, timeseq.Time(3+i%5))}})
	}

	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	at := timeseq.Time(0)
	for i := 0; i < n; i++ {
		at += timeseq.Time(rng.IntN(3))
		oi := rng.IntN(len(w.objects))
		switch rng.IntN(12) {
		case 0:
			w.steps = append(w.steps, []shardEvent{{shard: w.owner[oi], e: wal.Firing(at, "alarm")}})
		case 1:
			broadcast(wal.Invariant("limit", fmt.Sprintf("%d", 20+rng.IntN(5))))
		default:
			w.steps = append(w.steps, []shardEvent{{shard: w.owner[oi], e: wal.Sample(at, w.objects[oi], fmt.Sprintf("v%d", i))}})
		}
	}
	return w
}

// shardPoint is the sharded variant of the crash point: a power cut armed at
// mutating op p.at of the victim shard's WAL while the routed workload runs
// — the surviving shards keep committing after the victim dies. It asserts
//
//   - per-shard durability: the victim recovers acked ≤ n ≤ acked+1 of the
//     events issued to it, deep-equal to the reference prefix; every
//     survivor recovers exactly its acked events,
//   - cross-shard sum conservation: Σ recovered lies within
//     [Σ acked, Σ acked + 1],
//   - no horizon regression: the group's consistent horizon is never behind
//     the one computed from acknowledged writes,
//   - liveness: the recovered victim accepts a post-crash append.
func (c Config) shardPoint(p *point, w *shardWorkload, victim int) error {
	mems := make([]*faultfs.Mem, c.Shards)
	logs := make([]*wal.Log, c.Shards)
	for s := range mems {
		mems[s] = faultfs.NewMem(pointSeed(c.Seed, p.at) ^ shardSalt(s))
	}
	p.mem = mems[victim]
	defer func() {
		for _, l := range logs {
			if l != nil {
				l.Close()
			}
		}
	}()
	for s := range logs {
		l, err := wal.Open(c.walOptions(mems[s]))
		if err != nil {
			return fmt.Errorf("shard %d Open: %v", s, err)
		}
		logs[s] = l
	}
	mems[victim].CrashAt(p.at)

	// Drive the routed workload. The victim's first failed append kills it
	// (power cut); every other shard must keep acking to the end.
	issued := make([][]wal.Event, c.Shards) // per-shard issue order
	acked := make([]int, c.Shards)
	ackedAt := make([]timeseq.Time, c.Shards) // last acked chronon per shard
	victimDead := false
	for _, step := range w.steps {
		for _, se := range step {
			if se.shard == victim && victimDead {
				continue
			}
			issued[se.shard] = append(issued[se.shard], se.e)
			if err := logs[se.shard].Append(se.e); err != nil {
				if se.shard != victim {
					return fmt.Errorf("survivor shard %d append failed: %v", se.shard, err)
				}
				victimDead = true
				continue
			}
			acked[se.shard]++
			ackedAt[se.shard] = max(ackedAt[se.shard], se.e.At)
		}
	}
	if !mems[victim].Dead() {
		p.ops = mems[victim].Ops()
		return errBeyond
	}

	// Survivors shut down cleanly; the victim's handle is garbage (its
	// filesystem is dead), recovery below reopens from the crash image.
	for s, l := range logs {
		if err := l.Close(); err != nil && s != victim {
			return fmt.Errorf("survivor shard %d close: %v", s, err)
		}
	}
	mems[victim].Crash()

	ackedSum, recoveredSum := 0, 0
	ackHorizon, recHorizon := timeseq.Time(1<<62-1), timeseq.Time(1<<62-1)
	for s := range logs {
		l2, err := wal.Open(c.walOptions(mems[s]))
		if err != nil {
			return fmt.Errorf("shard %d recovery Open: %v", s, err)
		}
		logs[s] = l2
		st := l2.State()
		n := int(st.Events)
		ackedSum, recoveredSum = ackedSum+acked[s], recoveredSum+n
		ackHorizon, recHorizon = min(ackHorizon, ackedAt[s]), min(recHorizon, st.LastAt)
		if s == victim {
			err = durabilityBound("victim recovered", n, acked[s], acked[s], !c.NoSync)
		} else {
			err = survivorExact(s, n, acked[s])
		}
		if err != nil {
			return err
		}
		if err := referencePrefix(fmt.Sprintf("shard %d ", s), issued[s], l2); err != nil {
			return err
		}
		if s == victim {
			// Liveness: the recovered victim takes a post-crash append for
			// an image it already knows about.
			for name := range st.Images {
				post := wal.Sample(st.LastAt+1, name, "post-crash")
				if err := liveness("victim append after recovery", &appender{l: l2}, post); err != nil {
					return err
				}
				break
			}
		}
		if err := l2.Close(); err != nil {
			return fmt.Errorf("shard %d close after recovery: %v", s, err)
		}
	}
	if err := crossShardSum(recoveredSum, ackedSum, !c.NoSync); err != nil {
		return err
	}
	return horizonHeld(ackHorizon, recHorizon, !c.NoSync)
}
