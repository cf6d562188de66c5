package torture

import (
	"errors"
	"fmt"

	"rtc/internal/faultfs"
	wal "rtc/internal/rtdb/log"
)

// scenario is one row of the table: what differs between fault families.
// Everything else — the walk, the pin, the stride, the books — is Sweep's.
type scenario struct {
	mode Mode
	// reads lists the rttorture flags, besides -mode and -seed, that change
	// what a point of this row does; Failure.Repro prints no others.
	reads string
	// lanes finishes the row's own configuration and returns its numbered
	// walks. events is Workload(Seed, Events), for the rows that replay it.
	lanes func(c *Config, events []wal.Event) []lane
}

// numbering is how a lane counts its fault points.
type numbering int

const (
	// untilBeyond walks 1, 1+Stride, … until a point reports errBeyond: the
	// armed op lies past the end of the run. Points are mutating filesystem
	// ops of the WAL that takes the cut. A faultless run (point 0, nothing
	// armed) first counts them, and the walk is bounded at twice that count.
	untilBeyond numbering = iota
	// probed runs point 0 — nothing armed — once for the run's op count
	// (point.ops), then walks 1..count by Stride.
	probed
	// probedEvery is probed with Stride ignored: a run has a handful of
	// snapshot renames, and every one is a point.
	probedEvery
	// once is a single unnumbered run; At and Stride do not apply.
	once
)

// lane is one numbered walk over a row's fault points.
type lane struct {
	numbering numbering
	victim    int // shard whose WAL takes the cut (shard row)
	run       func(p *point) error
}

// point is one run of a lane's body with the fault armed at `at`. The body
// fills in the rest for the driver.
type point struct {
	at     uint64
	ops    uint64       // ops of the kind the lane numbers by, set by a faultless run
	mem    *faultfs.Mem // whose WAL directory a Failure exports
	stream []byte       // malformed wire bytes the fault left behind
}

// errBeyond ends an untilBeyond lane: the run finished without reaching
// the armed op. A point may wrap it.
var errBeyond = errors.New("fault point beyond the run")

// scenarios is the table, in the order `rttorture -mode all` runs it.
var scenarios = []scenario{
	{ModeCrash, "at events nosync fsync-window", func(c *Config, ev []wal.Event) []lane {
		return []lane{{run: func(p *point) error { return c.crashPoint(p, ev, false, !c.NoSync) }}}
	}},
	{ModeEIO, "at events nosync fsync-window", func(c *Config, ev []wal.Event) []lane {
		return []lane{{numbering: probed, run: func(p *point) error { return c.eioPoint(p, ev, false) }}}
	}},
	{ModeRename, "at events nosync fsync-window", func(c *Config, ev []wal.Event) []lane {
		return []lane{{numbering: probedEvery, run: func(p *point) error { return c.renamePoint(p, ev) }}}
	}},
	{ModeFailover, "at events nosync fsync-window shards victim", func(c *Config, ev []wal.Event) []lane {
		return []lane{{victim: c.Victim, run: func(p *point) error { return c.failoverPoint(p, ev) }}}
	}},
	// The crash lane, then the EIO lane, over the grouped appender. The row's
	// premise is fsync batching, so it forces Sync as it forces the window.
	{ModeGroupCommit, "at events", func(c *Config, ev []wal.Event) []lane {
		c.GroupWindow, c.NoSync = groupWindow, false
		return []lane{
			{run: func(p *point) error { return c.crashPoint(p, ev, true, true) }},
			{numbering: probed, run: func(p *point) error { return c.eioPoint(p, ev, true) }},
		}
	}},
	// One lane per victim shard; -at pins one point of the -victim lane.
	{ModeShard, "at events nosync fsync-window shards victim", func(c *Config, _ []wal.Event) []lane {
		if c.Shards <= 0 {
			c.Shards = 4
		}
		w := makeShardWorkload(c.Seed, c.Events, c.Shards)
		var lanes []lane
		for v := 0; v < c.Shards; v++ {
			if c.At == 0 || v == c.Victim%c.Shards {
				lanes = append(lanes, lane{victim: v, run: func(p *point) error { return c.shardPoint(p, w, v) }})
			}
		}
		return lanes
	}},
	{ModePartition, "at events nosync fsync-window", func(c *Config, _ []wal.Event) []lane {
		return []lane{{numbering: probed, run: c.partitionPoint}}
	}},
	{ModeChaos, "", func(c *Config, _ []wal.Event) []lane {
		return []lane{{numbering: once, run: func(*point) error {
			_, err := chaosRun(c.Seed, 8, 150)
			return err
		}}}
	}},
}

// Modes lists the table's rows, in the order `rttorture -mode all` runs them.
func Modes() []Mode {
	out := make([]Mode, len(scenarios))
	for i := range scenarios {
		out[i] = scenarios[i].mode
	}
	return out
}

func scenarioOf(m Mode) *scenario {
	for i := range scenarios {
		if scenarios[i].mode == m {
			return &scenarios[i]
		}
	}
	return nil
}

// Sweep runs one row of the table: every Stride-th fault point of each of
// its lanes, or — with At set — exactly one point per lane.
func (c Config) Sweep(m Mode) *Report {
	row := scenarioOf(m)
	if row == nil {
		panic(fmt.Sprintf("torture: no scenario %q", m))
	}
	return c.sweep(*row)
}

func (c Config) sweep(row scenario) *Report {
	c.defaults()
	rep := &Report{Streams: map[string][]byte{}}
	for _, ln := range row.lanes(&c, Workload(c.Seed, c.Events)) {
		c.walk(row.mode, ln, rep)
	}
	if c.Logf != nil {
		c.Logf("%s sweep: seed=%d points=%d recoveries=%d failures=%d",
			row.mode, c.Seed, rep.Points, rep.Recoveries, len(rep.Failures))
	}
	return rep
}

// walk is the point loop: it runs one lane's body at each of its fault
// points and keeps the report's books.
func (c Config) walk(mode Mode, ln lane, rep *Report) {
	run := func(at uint64) (*point, error) {
		p := &point{at: at}
		return p, ln.run(p)
	}
	// record is the one place a point is counted and a Failure built.
	record := func(p *point, err error) {
		rep.Points++
		if len(p.stream) > 0 && len(rep.Streams) < 48 {
			rep.Streams[fmt.Sprintf("seed%d-at%d", c.Seed, p.at)] = p.stream
		}
		if err == nil {
			rep.Recoveries++
			return
		}
		f := Failure{Mode: mode, Config: c, Detail: err.Error()}
		f.Config.At, f.Config.Victim, f.Config.Logf = p.at, ln.victim, nil
		if p.mem != nil {
			f.Segments = dumpSegments(p.mem)
		}
		rep.Failures = append(rep.Failures, f)
	}

	first, stride, last := uint64(1), uint64(c.Stride), ^uint64(0)
	switch ln.numbering {
	case once:
		record(run(0))
		return
	case probedEvery:
		stride = 1
	}
	// The probe arms nothing, so it is not a fault point — unless it fails:
	// then there is nothing to number, and that is the report. An
	// untilBeyond lane's probe ends beyond its run, and only bounds the walk,
	// at twice its count: a lane that has lost its end stops there, and a run
	// that counts its ops differently from one point to the next stays
	// inside. One pinned point needs no bound.
	beyond := ln.numbering == untilBeyond
	if !beyond || c.At == 0 {
		p, err := run(0)
		if beyond && errors.Is(err, errBeyond) {
			err = nil
		}
		if err != nil {
			record(p, fmt.Errorf("faultless probe run: %w", err))
			return
		}
		last = p.ops
		if beyond {
			last *= 2
		}
		if c.Logf != nil {
			c.Logf("%s probe: seed=%d ops=%d", mode, c.Seed, p.ops)
		}
	}
	if c.At > 0 {
		first, last = c.At, min(last, c.At)
	}
	for at := first; at <= last; at += stride {
		p, err := run(at)
		if errors.Is(err, errBeyond) {
			return
		}
		record(p, err)
	}
	if beyond && c.At == 0 {
		f := Failure{Mode: mode, Config: c, Detail: fmt.Sprintf(
			"no point up to %d reported errBeyond: twice the probe's %d ops", last, last/2)}
		f.Config.Victim, f.Config.Logf = ln.victim, nil
		rep.Failures = append(rep.Failures, f)
	}
}
