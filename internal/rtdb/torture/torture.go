// Package torture is the fault-injection harness of the rtdbd serving stack:
// one driver, a table of scenarios and a set of named invariants.
//
// A scenario (sweep.go) is one fault family — power cuts, transient EIO and
// short writes, rename failures, faults inside a group-commit batch, a
// primary killed under a live replica, one shard of several cut, a network
// fault on a client/primary/replica fabric, a concurrent server over a
// faulting disk. Its row declares only what differs: how its fault points
// are numbered, which fault point `at` arms, which workload runs and which
// laws are asserted afterwards. Config.Sweep owns the rest — the walk over
// the points, the -at pin, the stride, the Report and the one place a
// Failure is built. The point bodies share an appender (plain or grouped
// appends, points.go), a stack (primary + netserve + replica on loopback TCP
// or a faultnet fabric, stack.go) and the invariants (invariants.go), each
// law one function:
//
//	recovered state ≡ reference(events[:n])  (deep-equal)
//	acked ≤ n ≤ acked+1                      (with per-append fsync)
//	every server.Books book closes (BOOK-)   (nothing is silently lost)
//
// and epoch fencing, cursor monotonicity, zero lost acked writes, cross-shard
// sum and horizon.
//
// Everything is deterministic from a seed: a failing fault point prints a
// one-command reproduction carrying every flag the run read (Failure.Repro)
// and the post-crash segment images, so they can seed the log package's
// segment fuzz corpus.
package torture

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"time"

	"rtc/internal/faultfs"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/timeseq"
)

// Mode names one fault family: one row of the scenario table.
type Mode string

// The sweep modes, in the order `rttorture -mode all` runs them.
const (
	ModeCrash  Mode = "crash"  // op-count power cut; unsynced data dropped or torn
	ModeEIO    Mode = "eio"    // transient EIO / short write on one data write
	ModeRename Mode = "rename" // one snapshot rename fails
	// ModeFailover kills the primary at every WAL fault point with a live
	// replica attached, then promotes the replica.
	ModeFailover Mode = "failover"
	// ModeGroupCommit arms the crash and EIO faults at every op inside an
	// open commit batch: one fsync covers many acks, one fault fails them all.
	ModeGroupCommit Mode = "groupcommit"
	// ModeShard power-cuts ONE shard's WAL at every fault point of a sharded
	// deployment while the other shards keep committing.
	ModeShard Mode = "shard"
	// ModePartition arms one network fault — a mid-frame cut, a silent frame
	// drop, a corrupted byte, a slow-loris stall, or a one- or two-way
	// partition — at every fabric write op of a client/primary/replica stack.
	ModePartition Mode = "partition"
	ModeChaos     Mode = "chaos" // concurrent server under mid-apply-loop faults
)

// Config parameterizes one sweep.
type Config struct {
	// Seed drives the workload and every per-point crash materialization.
	Seed uint64
	// Events is the workload length (default 90).
	Events int
	// Stride tests every Stride-th fault point (default 1: all of them).
	Stride int
	// At, when nonzero, tests exactly one fault point per lane — the
	// reproduction path for a failure printed by a sweep.
	At uint64
	// Shards is the deployment width of the shard sweep (default 4). The
	// failover sweep poses its primary as shard Victim%Shards of that many
	// when it is > 0, and runs unsharded at 0.
	Shards int
	// Victim selects which shard's WAL takes the power cut when At pins a
	// single shard-sweep fault point; the full sweep rotates every victim.
	Victim int
	// SegmentSize (default 2048) is kept small so rotation is exercised.
	SegmentSize int64
	// SnapshotEvery (default 32 appends) keeps snapshot + rename traffic
	// inside the fault window.
	SnapshotEvery uint64
	// NoSync disables per-append fsync; the invariant then weakens to
	// "recovered state is a prefix of the issued events" (0 ≤ n ≤ issued).
	NoSync bool
	// GroupWindow is the commit window of every WAL the sweep opens
	// (wal.Options.GroupWindow): when > 0, concurrent appends batch their
	// fsyncs behind a live window timer; 0 closes each window at once.
	GroupWindow time.Duration
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.Events <= 0 {
		c.Events = 90
	}
	if c.Stride <= 0 {
		c.Stride = 1
	}
	if c.SegmentSize <= 0 {
		c.SegmentSize = 2048
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 32
	}
}

// flagDefaults is what cmd/rttorture runs with when a flag is not given.
// Repro omits a flag that still holds its value here.
var flagDefaults = Config{Seed: 1, Events: 90, Stride: 1, Shards: 4}

// RegisterFlags sets c to rttorture's defaults and binds its fields to the
// command's flags. It is the one definition of their names and defaults:
// the command registers them, and the test of Repro parses a printed
// reproduction back through them.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	d := flagDefaults
	fs.Uint64Var(&c.Seed, "seed", d.Seed, "base sweep seed")
	fs.IntVar(&c.Events, "events", d.Events, "workload length")
	fs.IntVar(&c.Stride, "stride", d.Stride, "test every Nth fault point")
	fs.Uint64Var(&c.At, "at", d.At, "single fault point (reproduction mode)")
	fs.IntVar(&c.Shards, "shards", d.Shards, "deployment width of the shard sweep")
	fs.IntVar(&c.Victim, "victim", d.Victim, "shard whose WAL takes the cut when -at pins one shard-sweep point")
	fs.BoolVar(&c.NoSync, "nosync", d.NoSync, "disable per-append fsync (weakens the durability bound)")
	fs.DurationVar(&c.GroupWindow, "fsync-window", d.GroupWindow, "run the crash/eio/rename/failover sweeps with this group-commit window (0: the window closes at once, one fsync per blocking append; groupcommit mode always batches)")
}

// Failure is one fault point whose run violated an invariant.
type Failure struct {
	Mode Mode
	// Config is the configuration the point ran under, with At pinned to
	// the fault point (mutating-op / write / rename / fabric-write index)
	// and Victim to the shard whose WAL took the cut.
	Config Config
	Detail string
	// Segments holds the post-crash byte images of the WAL directory's
	// files, exportable as fuzz corpus seeds (cmd/rttorture -corpus).
	Segments map[string][]byte
}

// Repro renders the one-command reproduction for this failure: the point,
// plus every flag the mode reads whose value differs from rttorture's
// default — a different -shards, -nosync or -fsync-window is a different
// workload, victim rotation or durability bound.
func (f Failure) Repro() string {
	c := f.Config
	s := fmt.Sprintf("go run ./cmd/rttorture -mode %s -seed %d", f.Mode, c.Seed)
	row := scenarioOf(f.Mode)
	reads := func(flag string) bool { return row != nil && slices.Contains(strings.Fields(row.reads), flag) }
	if reads("at") {
		s += fmt.Sprintf(" -at %d -events %d", c.At, c.Events)
	}
	if f.Mode == ModeShard || reads("victim") && c.Victim != flagDefaults.Victim {
		s += fmt.Sprintf(" -victim %d", c.Victim)
	}
	if reads("shards") && c.Shards != flagDefaults.Shards {
		s += fmt.Sprintf(" -shards %d", c.Shards)
	}
	if reads("nosync") && c.NoSync {
		s += " -nosync"
	}
	if reads("fsync-window") && c.GroupWindow != 0 {
		s += fmt.Sprintf(" -fsync-window %s", c.GroupWindow)
	}
	return s
}

func (f Failure) String() string {
	return fmt.Sprintf("FAIL mode=%s seed=%d at=%d: %s\n  repro: %s", f.Mode, f.Config.Seed, f.Config.At, f.Detail, f.Repro())
}

// Report aggregates one or more sweeps.
type Report struct {
	Points     int // fault points exercised
	Recoveries int // recoveries that passed every invariant
	Failures   []Failure
	// Streams holds reader-visible malformed byte streams the network
	// fault sweep captured (cut prefixes, post-drop desyncs, corrupted
	// frames), keyed by their fault point — exportable as rtwire
	// frame-fuzzer corpus seeds (cmd/rttorture -corpus). Collected on
	// passing points too: a stream the codec survived is still a seed.
	Streams map[string][]byte
}

// Merge folds another report into r.
func (r *Report) Merge(o *Report) {
	r.Points += o.Points
	r.Recoveries += o.Recoveries
	r.Failures = append(r.Failures, o.Failures...)
	for k, v := range o.Streams {
		if r.Streams == nil {
			r.Streams = make(map[string][]byte)
		}
		r.Streams[k] = v
	}
}

// Ok reports a clean sweep.
func (r *Report) Ok() bool { return len(r.Failures) == 0 }

const walDir = "wal"

// Workload generates the seeded event sequence a sweep replays at every
// fault point: a catalog prologue, then a mix of samples across three
// image objects, invariant overwrites, rule firings, and query issues with
// randomized §4.1 deadline envelopes.
func Workload(seed uint64, n int) []wal.Event {
	rng := rand.New(rand.NewPCG(seed, 0xda3e39cb94b95bdb))
	images := []string{"temp", "press", "flow"}
	events := []wal.Event{
		wal.Invariant("limit", "22"),
		wal.Image("temp", 5),
		wal.Image("press", 3),
		wal.Image("flow", 7),
		wal.Derived("status", "temp", "limit"),
	}
	at := timeseq.Time(0)
	for i := 0; i < n; i++ {
		at += timeseq.Time(rng.IntN(3))
		switch rng.IntN(12) {
		case 0:
			events = append(events, wal.Firing(at, "alarm"))
		case 1:
			events = append(events, wal.Query(at, fmt.Sprintf("s%d", rng.IntN(4)), "status_q", "ok",
				uint64(rng.IntN(3)), uint64(rng.IntN(8)), uint64(rng.IntN(4))))
		case 2:
			events = append(events, wal.Invariant("limit", fmt.Sprintf("%d", 20+rng.IntN(5))))
		default:
			events = append(events, wal.Sample(at, images[rng.IntN(len(images))], fmt.Sprintf("v%d", i)))
		}
	}
	return events
}

// Reference replays events into a fresh state — the ground truth every
// recovery is compared against.
func Reference(events []wal.Event) *wal.State {
	st := wal.NewState()
	for _, e := range events {
		if err := st.Apply(e); err != nil {
			panic(fmt.Sprintf("torture: reference workload invalid: %v", err))
		}
	}
	return st
}

// pointSeed mixes the sweep seed with a fault point so each point explores
// a different crash materialization while staying reproducible.
func pointSeed(seed, at uint64) uint64 {
	x := seed + 0x9e3779b97f4a7c15*(at+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

func (c Config) walOptions(fs faultfs.FS) wal.Options {
	return wal.Options{
		Dir: walDir, FS: fs,
		SegmentSize:   c.SegmentSize,
		SnapshotEvery: c.SnapshotEvery,
		Sync:          !c.NoSync,
		GroupWindow:   c.GroupWindow,
	}
}

// dumpSegments snapshots the WAL directory's current file images.
func dumpSegments(mem *faultfs.Mem) map[string][]byte {
	out := map[string][]byte{}
	names, err := mem.ReadDir(walDir)
	if err != nil {
		return out
	}
	for _, name := range names {
		out[name] = mem.DumpFile(walDir + "/" + name)
	}
	return out
}
