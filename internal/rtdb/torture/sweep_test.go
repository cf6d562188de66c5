package torture

import (
	"errors"
	"flag"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"rtc/internal/faultfs"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/server"
)

// TestSweepPointCounts pins how many fault points each row numbers at
// rttorture's defaults with -seeds 1 -events 60: the figures every change to
// the WAL's fs-op sequence has to re-base, in one place. The partition row
// is numbered by fabric writes, which depend on timing; its floor is
// TestPartitionSweepFull's.
func TestSweepPointCounts(t *testing.T) {
	want := map[Mode]int{
		ModeCrash: 141, ModeEIO: 68, ModeRename: 2, ModeFailover: 141,
		ModeGroupCommit: 64, ModeShard: 186, ModeChaos: 1,
	}
	c := flagDefaults
	c.Events = 60
	for _, m := range Modes() {
		if m == ModePartition {
			continue
		}
		rep := c.Sweep(m)
		report(t, rep)
		if rep.Points != want[m] {
			t.Errorf("%s: %d fault points, want %d", m, rep.Points, want[m])
		}
	}
}

// TestReproRoundTrip parses every mode's printed reproduction back through
// the flag definitions rttorture registers: the command must run the mode,
// seed and point that failed, under every flag value that mode reads, and
// mention no flag it does not read.
func TestReproRoundTrip(t *testing.T) {
	fields := map[string]func(Config) any{
		"at":           func(c Config) any { return c.At },
		"events":       func(c Config) any { return c.Events },
		"shards":       func(c Config) any { return c.Shards },
		"victim":       func(c Config) any { return c.Victim },
		"nosync":       func(c Config) any { return c.NoSync },
		"fsync-window": func(c Config) any { return c.GroupWindow },
	}
	variants := map[string]func(*Config){
		"default":      func(*Config) {},
		"shards":       func(c *Config) { c.Shards, c.Victim = 3, 1 },
		"nosync":       func(c *Config) { c.NoSync = true },
		"fsync-window": func(c *Config) { c.GroupWindow = 50 * time.Microsecond },
	}
	for _, m := range Modes() {
		for name, vary := range variants {
			ran := flagDefaults
			ran.Seed, ran.At, ran.Events = 7, 13, 40
			vary(&ran)
			repro := Failure{Mode: m, Config: ran}.Repro()

			args, ok := strings.CutPrefix(repro, "go run ./cmd/rttorture ")
			if !ok {
				t.Fatalf("%s/%s: Repro() = %q", m, name, repro)
			}
			fs := flag.NewFlagSet("rttorture", flag.ContinueOnError)
			var got Config
			got.RegisterFlags(fs)
			mode := fs.String("mode", "all", "")
			if err := fs.Parse(strings.Fields(args)); err != nil {
				t.Fatalf("%s/%s: %q does not parse: %v", m, name, repro, err)
			}
			if Mode(*mode) != m || got.Seed != ran.Seed {
				t.Errorf("%s/%s: %q replays mode %s seed %d", m, name, repro, *mode, got.Seed)
			}
			reads := strings.Fields(scenarioOf(m).reads)
			for flag, field := range fields {
				want := field(flagDefaults)
				if slices.Contains(reads, flag) {
					want = field(ran)
				}
				if field(got) != want {
					t.Errorf("%s/%s: %q replays -%s %v, want %v", m, name, repro, flag, field(got), want)
				}
			}
		}
	}
}

// TestUntilBeyondEnds: an untilBeyond lane ends at the first point whose
// error is or wraps errBeyond, and a lane that never reports it stops at
// twice its probe's op count with a failure that says so.
func TestUntilBeyondEnds(t *testing.T) {
	walk := func(run func(p *point) error) *Report {
		rep := &Report{Streams: map[string][]byte{}}
		c := Config{Seed: 1}
		c.defaults()
		c.walk("selftest", lane{run: run}, rep)
		return rep
	}
	wrapped := walk(func(p *point) error {
		switch p.at {
		case 0:
			p.ops = 10
			return errBeyond
		case 3:
			return fmt.Errorf("point %d: %w", p.at, errBeyond)
		}
		return nil
	})
	if wrapped.Points != 2 || len(wrapped.Failures) != 0 {
		t.Errorf("wrapped errBeyond at point 3: %d points, failures %v; want 2 points, none", wrapped.Points, wrapped.Failures)
	}
	endless := walk(func(p *point) error {
		if p.at == 0 {
			p.ops = 5
		}
		return nil
	})
	if endless.Points != 10 || len(endless.Failures) != 1 || !strings.Contains(endless.Failures[0].Detail, "no point up to 10") {
		t.Errorf("a lane with no end: %d points, failures %v; want 10 and the bound's failure", endless.Points, endless.Failures)
	}
}

// selfTest runs one point whose body returns err through the real driver.
func selfTest(err error) *Report {
	return Config{Seed: 1}.sweep(scenario{mode: "selftest", lanes: func(*Config, []wal.Event) []lane {
		return []lane{{numbering: once, run: func(*point) error { return err }}}
	}})
}

// TestInvariants holds every named law to a boundary input that must pass
// and a violation that must come out of the driver as a Failure carrying
// the law's message — a law stubbed to return nil fails its violation row.
func TestInvariants(t *testing.T) {
	first := func(_ any, err error) error { return err }
	queries := func(in uint64) server.MetricsSnapshot {
		return server.MetricsSnapshot{QueriesIn: in, QueriesRejected: 1, DeadlineHit: 2, DeadlineMiss: 3, NoDeadline: 4}
	}
	samples := func(in, applied uint64) server.MetricsSnapshot {
		return server.MetricsSnapshot{SamplesIn: in, SamplesApplied: applied}
	}
	boom := errors.New("boom")

	events := Workload(1, 12)
	c := Config{}
	c.defaults()
	// logged opens a fresh WAL on mem holding evs.
	logged := func(mem *faultfs.Mem, evs []wal.Event) *wal.Log {
		l, err := wal.Open(c.walOptions(mem))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		for _, e := range evs {
			if err := l.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	// prefix asks referencePrefix whether a log holding evs is a prefix of
	// events.
	prefix := func(evs []wal.Event) error {
		return referencePrefix("", events, logged(faultfs.NewMem(1), evs))
	}
	// reopened appends evs to a fresh WAL and asks reopensTo for want.
	reopened := func(evs, want []wal.Event) error {
		mem := faultfs.NewMem(1)
		l, err := c.reopensTo("recovery not idempotent", logged(mem, evs), mem, want)
		l.Close()
		return err
	}
	// firing is the catalog prologue and one firing of rule: a state counts
	// the firing, only the log's payloads tell two rules apart.
	firing := func(rule string) []wal.Event {
		return append(slices.Clone(events[:5]), wal.Firing(0, rule))
	}
	diverged := append(slices.Clone(events[:5]), wal.Invariant("limit", "-1"))
	// live checks liveness on a log that is open, or was closed under it.
	live := func(grouped, closed bool) error {
		gc := c
		if grouped {
			gc.GroupWindow = groupWindow
		}
		l, err := wal.Open(gc.walOptions(faultfs.NewMem(1)))
		if err != nil {
			return err
		}
		defer l.Close()
		if closed {
			l.Close()
		}
		return liveness("append after recovery", &appender{l: l, grouped: grouped}, events[0])
	}
	// served checks servedLive on a server over a recovered log, running or
	// stopped under it.
	served := func(stopped bool) error {
		l, err := wal.Open(c.walOptions(faultfs.NewMem(1)))
		if err != nil {
			return err
		}
		defer l.Close()
		srv, err := server.New(chaosServerConfig(l, 1, 8))
		if err != nil {
			return err
		}
		srv.Start()
		defer srv.Stop()
		if stopped {
			srv.Stop()
		}
		return servedLive("append after promotion", srv)
	}

	for _, tc := range []struct {
		law  string
		err  error
		want string // "" : must pass
	}{
		{"durabilityBound n=acked", durabilityBound("recovered", 5, 5, 5, true), ""},
		{"durabilityBound n=acked+1", durabilityBound("recovered", 6, 5, 5, true), ""},
		{"durabilityBound grouped n=issued+1", durabilityBound("recovered", 9, 5, 8, true), ""},
		{"durabilityBound unsynced n<acked", durabilityBound("recovered", 0, 5, 5, false), ""},
		{"durabilityBound n=acked-1", durabilityBound("recovered", 4, 5, 5, true), "WAL-001: recovered 4 events but 5 were acked+fsynced (durability lost)"},
		{"durabilityBound n=acked+2", durabilityBound("recovered", 7, 5, 5, true), "WAL-001: recovered 7 events but only 6 were issued before the cut (resurrection)"},
		{"durabilityBound unsynced n=acked+2", durabilityBound("recovered", 7, 5, 5, false), "WAL-001: recovered 7 events"},
		{"batchWindowBound +1", batchWindowBound(5+groupBatchEvery+1, 5), ""},
		{"batchWindowBound +2", batchWindowBound(5+groupBatchEvery+2, 5), "WAL-002: recovered 11 events with only 5 acked: more than one batch window survived unacked"},
		{"ackedPrefix prefix", first(ackedPrefix([]error{nil, nil, boom, boom})), ""},
		{"ackedPrefix hole", first(ackedPrefix([]error{nil, boom, nil})), "WAL-003: nil-resolved tickets not a prefix: ticket 2 committed after ticket 1 failed"},
		{"survivorExact", survivorExact(2, 7, 7), ""},
		{"survivorExact off by one", survivorExact(2, 8, 7), "WAL-008: survivor shard 2 recovered 8 events, acked 7"},
		{"referencePrefix", prefix(events[:7]), ""},
		{"referencePrefix wrong prefix", prefix(diverged), "WAL-004: recovery invariant violated at prefix 6"},
		{"referencePrefix other record", referencePrefix("", firing("alarm"), logged(faultfs.NewMem(1), firing("other"))), "WAL-004: recovery invariant violated at prefix 6: record 6"},
		{"referencePrefix past the workload", prefix(append(slices.Clone(events), wal.Firing(0, "alarm"))), "WAL-004: recovered 18 events, workload only has 17"},
		{"reopensTo", reopened(events, events), ""},
		{"reopensTo other state", reopened(events, events[:len(events)-1]), "WAL-005: recovery not idempotent"},
		{"reopensTo other record", reopened(firing("other"), firing("alarm")), "WAL-005: recovery not idempotent: record 6"},
		{"liveness", live(false, false), ""},
		{"liveness grouped", live(true, false), ""},
		{"liveness closed log", live(false, true), "WAL-006: append after recovery"},
		{"servedLive", served(false), ""},
		{"servedLive stopped server", served(true), "REPL-007: append after promotion"},
		{"booksClosed", booksClosed("standby", queries(10)), ""},
		{"booksClosed in=accounted+1", booksClosed("standby", queries(11)), "BOOK-queries open: queries_in 11 != queries_rejected 1 + deadline_hit 2 + deadline_miss 3 + no_deadline 4 (11 != 10) (standby)"},
		{"walConservation", walConservation(40, 40), ""},
		{"walConservation short", walConservation(39, 40), "WAL-007: WAL conservation violated: recovered 39 events, 40 appends acknowledged"},
		{"epochAdvanced", epochAdvanced(2), ""},
		{"epochAdvanced stuck", epochAdvanced(1), "REPL-007: promotion left epoch at 1"},
		{"epochPersisted", epochPersisted(3, 3), ""},
		{"epochPersisted lost", epochPersisted(3, 2), "REPL-007: promoted epoch 3 not persisted (reopened as 2)"},
		{"cursorMonotone", cursorMonotone(5, 6), ""},
		{"cursorMonotone repeat", cursorMonotone(5, 5), "SUB-005/SUB-006: subscription cursor regressed: cursor 5 after 5"},
		{"ackedWrites", ackedWrites(5, 7, samples(7, 5)), ""},
		{"ackedWrites lost", ackedWrites(5, 7, samples(7, 4)), "REPL-001: lost acked writes: 5 acked, 4 applied"},
		{"ackedWrites duplicated", ackedWrites(5, 7, samples(8, 5)), "REPL-001: duplicated writes: 7 sent, 8 arrived"},
		{"crossShardSum =acked", crossShardSum(20, 20, true), ""},
		{"crossShardSum =acked+1", crossShardSum(21, 20, true), ""},
		{"crossShardSum unsynced acked-1", crossShardSum(19, 20, false), ""},
		{"crossShardSum acked+2", crossShardSum(22, 20, true), "SHARD-001: cross-shard sum conservation violated: recovered 22, acked 20"},
		{"crossShardSum acked-1", crossShardSum(19, 20, true), "cross-shard sum conservation violated"},
		{"crossShardSum unsynced acked+2", crossShardSum(22, 20, false), "cross-shard sum conservation violated"},
		{"horizonHeld", horizonHeld(5, 5, true), ""},
		{"horizonHeld unsynced regressed", horizonHeld(5, 4, false), ""},
		{"horizonHeld regressed", horizonHeld(5, 4, true), "WAL-009: consistent horizon regressed: acked 5, recovered 4"},
	} {
		rep := selfTest(tc.err)
		switch {
		case rep.Points != 1:
			t.Errorf("%s: driver counted %d points", tc.law, rep.Points)
		case tc.want == "" && !rep.Ok():
			t.Errorf("%s: boundary input failed: %s", tc.law, rep.Failures[0].Detail)
		case tc.want != "" && rep.Ok():
			t.Errorf("%s: violation passed", tc.law)
		case tc.want != "" && !strings.Contains(rep.Failures[0].Detail, tc.want):
			t.Errorf("%s: Failure says %q, want %q", tc.law, rep.Failures[0].Detail, tc.want)
		}
	}
}

// TestCrashRowCatchesSkippedFsync breaks the law end to end: the crash
// row's own lane over a WAL that never fsyncs, judged by the fsync bound.
// A driver that stopped counting, or a bound that stopped biting, reports a
// clean sweep here.
func TestCrashRowCatchesSkippedFsync(t *testing.T) {
	c := Config{Seed: 2, Events: 40, Stride: 5, NoSync: true, Logf: t.Logf}
	rep := c.sweep(scenario{mode: ModeCrash, lanes: func(c *Config, ev []wal.Event) []lane {
		return []lane{{run: func(p *point) error { return c.crashPoint(p, ev, false, true) }}}
	}})
	lost := 0
	for _, f := range rep.Failures {
		if !strings.Contains(f.Detail, "durability lost") {
			t.Errorf("unexpected failure: %s", f)
		}
		if len(f.Segments) == 0 || !strings.HasSuffix(f.Repro(), "-events 40 -nosync") {
			t.Errorf("failure at %d carries %d segments, repro %q", f.Config.At, len(f.Segments), f.Repro())
		}
		lost++
	}
	if lost == 0 || rep.Points != rep.Recoveries+lost {
		t.Fatalf("%d points, %d recoveries, %d reported durability lost; want at least one", rep.Points, rep.Recoveries, lost)
	}
}

// TestSweepsLeaveNoGoroutines runs the rows that own goroutines — the
// stack's servers, listeners and tailer on TCP and on the fabric, and batch
// leaders parked on an hour-long commit window — and requires the process
// back at its starting goroutine count: every point tears down all it built.
func TestSweepsLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	report(t, Config{Seed: 1, Events: 40, Stride: 47}.Sweep(ModeFailover))
	report(t, Config{Seed: 1, Events: 40, Stride: 97}.Sweep(ModePartition))
	report(t, Config{Seed: 6, Events: 40, Stride: 23}.Sweep(ModeGroupCommit))
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before the sweeps, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}
