package torture

import "testing"

// BenchmarkCrashRecover measures one full crash-torture point: run the
// workload into a power cut, materialize the crash image, recover, and check
// the recovery invariant. crashes recovered/sec = 1e9 / (ns/op); the figure
// lands in BENCH_rtdb.json via cmd/benchjson.
func BenchmarkCrashRecover(b *testing.B) {
	c := Config{Seed: 1, Events: 60}
	c.defaults()
	events := Workload(c.Seed, c.Events)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := uint64(10 + i%120) // rotate across fault points
		if err := c.crashPoint(&point{at: at}, events, false, true); err != nil {
			b.Fatalf("fault point %d: %v", at, err)
		}
	}
}

// BenchmarkChaos measures one whole chaos run (concurrent sessions, faults,
// recovery, conservation checks).
func BenchmarkChaos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := chaosRun(uint64(i+1), 4, 50); err != nil {
			b.Fatal(err)
		}
	}
}
