package torture

import (
	"reflect"
	"testing"
)

// Tier-1 bounded sweeps: every fault family runs at a reduced point count so
// `go test ./...` stays fast; `make torture` runs the full sweep.

func report(t *testing.T, rep *Report) {
	t.Helper()
	if rep.Points == 0 {
		t.Fatal("sweep exercised zero fault points")
	}
	for _, f := range rep.Failures {
		t.Errorf("%s", f.String())
	}
	t.Logf("points=%d recoveries=%d", rep.Points, rep.Recoveries)
}

func TestWorkloadDeterministic(t *testing.T) {
	a, b := Workload(7, 50), Workload(7, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different workloads")
	}
	c := Workload(8, 50)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical workloads")
	}
	// Reference must accept every workload it generates.
	if st := Reference(a); st.Events != uint64(len(a)) {
		t.Fatalf("reference applied %d of %d events", st.Events, len(a))
	}
}

func TestCrashSweepShort(t *testing.T) {
	rep := Config{Seed: 1, Events: 40, Stride: 3, Logf: t.Logf}.Sweep(ModeCrash)
	report(t, rep)
}

func TestCrashSweepNoSync(t *testing.T) {
	// Without per-append fsync the lower bound weakens but every recovery
	// must still be a clean prefix of the issued events.
	rep := Config{Seed: 2, Events: 40, Stride: 5, NoSync: true, Logf: t.Logf}.Sweep(ModeCrash)
	report(t, rep)
}

// TestNoSyncRows runs the groupcommit and shard rows under -nosync. The
// groupcommit row batches fsyncs, so it syncs regardless; the shard row drops
// only the lower bounds of its laws. Neither may report a failure.
func TestNoSyncRows(t *testing.T) {
	for _, m := range []Mode{ModeGroupCommit, ModeShard} {
		report(t, Config{Seed: 1, Events: 30, Stride: 2, NoSync: true, Logf: t.Logf}.Sweep(m))
	}
}

func TestCrashPointRepro(t *testing.T) {
	// The -at reproduction path exercises exactly one fault point.
	rep := Config{Seed: 1, Events: 40, At: 17}.Sweep(ModeCrash)
	if rep.Points != 1 {
		t.Fatalf("At=17 ran %d points, want 1", rep.Points)
	}
	report(t, rep)
}

func TestEIOSweepShort(t *testing.T) {
	rep := Config{Seed: 3, Events: 40, Stride: 3, Logf: t.Logf}.Sweep(ModeEIO)
	report(t, rep)
}

func TestRenameSweepShort(t *testing.T) {
	rep := Config{Seed: 4, Events: 120, Logf: t.Logf}.Sweep(ModeRename)
	report(t, rep)
}

func TestChaosShort(t *testing.T) {
	m, err := chaosRun(5, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	if m.WalAppends == 0 {
		t.Fatal("chaos run never reached the WAL")
	}
}

func TestGroupCommitSweepShort(t *testing.T) {
	rep := Config{Seed: 6, Events: 40, Stride: 3, Logf: t.Logf}.Sweep(ModeGroupCommit)
	report(t, rep)
}

func TestGroupCommitPointRepro(t *testing.T) {
	// The -at reproduction path pins one fault point per sweep half.
	rep := Config{Seed: 6, Events: 40, At: 17}.Sweep(ModeGroupCommit)
	if rep.Points < 1 || rep.Points > 2 {
		t.Fatalf("At=17 ran %d points, want 1 or 2 (one per sweep half)", rep.Points)
	}
	report(t, rep)
}

func TestFailureRepro(t *testing.T) {
	f := Failure{Mode: ModeCrash, Config: Config{Seed: 9, At: 41, Events: 90}}
	want := "go run ./cmd/rttorture -mode crash -seed 9 -at 41 -events 90"
	if got := f.Repro(); got != want {
		t.Fatalf("Repro() = %q, want %q", got, want)
	}
}
