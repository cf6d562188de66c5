package torture

import (
	"testing"
)

// TestPartitionSweepShort is the tier-1 bounded variant: a strided walk
// over the fabric's write ops with every fault family represented.
func TestPartitionSweepShort(t *testing.T) {
	rep := Config{Seed: 1, Events: 40, Stride: 29, Logf: t.Logf}.Sweep(ModePartition)
	report(t, rep)
}

// TestPartitionSweepFull arms a network fault at every single fabric
// write op of the full workload — the acceptance bar is ≥ 300 points. The
// sweep numbers fabric writes and the client now coalesces its samples, so
// the same 90 events are ≈ 220 writes (340 when every frame was one): the
// workload is lengthened to keep the bar where it was, not the bar lowered.
func TestPartitionSweepFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full partition sweep is minutes of work; run without -short")
	}
	rep := Config{Seed: 1, Events: 160, Stride: 1, Logf: t.Logf}.Sweep(ModePartition)
	report(t, rep)
	if rep.Points < 300 {
		t.Fatalf("full sweep exercised only %d fault points, want >= 300", rep.Points)
	}
}

// TestPartitionPointRepro pins one fault point the way `rttorture -mode
// partition -at K` would replay it.
func TestPartitionPointRepro(t *testing.T) {
	rep := Config{Seed: 1, Events: 40, At: 23}.Sweep(ModePartition)
	if rep.Points != 1 {
		t.Fatalf("At should pin exactly one point, got %d", rep.Points)
	}
	report(t, rep)
}
