package torture

import (
	"reflect"
	"testing"

	"rtc/internal/rtwire"
)

func TestShardWorkloadDeterministic(t *testing.T) {
	a, b := makeShardWorkload(7, 50, 4), makeShardWorkload(7, 50, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different shard workloads")
	}
	c := makeShardWorkload(8, 50, 4)
	if reflect.DeepEqual(a.steps, c.steps) {
		t.Fatal("different seeds produced identical shard workloads")
	}
	// Routing is the wire placement, and wide enough to matter: every
	// object's owner matches rtwire.ShardOf and at least two shards own
	// objects.
	owners := map[int]bool{}
	for i, o := range a.objects {
		if want := int(rtwire.ShardOf(o, 4)); a.owner[i] != want {
			t.Fatalf("object %q owner %d, rtwire.ShardOf says %d", o, a.owner[i], want)
		}
		owners[a.owner[i]] = true
	}
	if len(owners) < 2 {
		t.Fatalf("keyspace collapsed onto %d shards", len(owners))
	}
}

func TestShardSweepShort(t *testing.T) {
	rep := Config{Seed: 11, Events: 30, Stride: 5, Shards: 3, Logf: t.Logf}.Sweep(ModeShard)
	report(t, rep)
}

func TestShardPointRepro(t *testing.T) {
	// The -at -victim reproduction path exercises exactly one fault point.
	rep := Config{Seed: 11, Events: 30, Shards: 3, At: 9, Victim: 1}.Sweep(ModeShard)
	if rep.Points != 1 {
		t.Fatalf("At=9 ran %d points, want 1", rep.Points)
	}
	report(t, rep)
}

func TestShardFailureRepro(t *testing.T) {
	f := Failure{Mode: ModeShard, Config: Config{Seed: 9, At: 41, Events: 90, Shards: 4, Victim: 2}}
	want := "go run ./cmd/rttorture -mode shard -seed 9 -at 41 -events 90 -victim 2"
	if got := f.Repro(); got != want {
		t.Fatalf("Repro() = %q, want %q", got, want)
	}
}

// TestShardSweepFull is the full-depth sweep `make torture` runs: every
// victim shard power-cut at every mutating op of its WAL. The ISSUE-level
// bar: at least 400 distinct fault points, all recovering clean.
func TestShardSweepFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full shard sweep is make-torture tier")
	}
	rep := Config{Seed: 12, Events: 160, Shards: 4, Logf: t.Logf}.Sweep(ModeShard)
	report(t, rep)
	if rep.Points < 400 {
		t.Fatalf("full shard sweep exercised only %d fault points, want >= 400", rep.Points)
	}
}
