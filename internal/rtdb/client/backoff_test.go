package client

import (
	"testing"
	"time"
)

// TestBackoffDeterministic: one seed → one schedule, replayed exactly. The
// torture harness and the unit suites rely on reproducible retry timing.
func TestBackoffDeterministic(t *testing.T) {
	const steps = 64
	a := newBackoff(42, 10*time.Millisecond, time.Second)
	b := newBackoff(42, 10*time.Millisecond, time.Second)
	for i := 0; i < steps; i++ {
		if da, db := a.Next(), b.Next(); da != db {
			t.Fatalf("step %d: same seed diverged: %v vs %v", i, da, db)
		}
	}
}

// TestBackoffSeedsDecorrelate: two seeds → two different schedules. This is
// the whole point of the jitter — clients that lost the same primary must
// not redial in lockstep.
func TestBackoffSeedsDecorrelate(t *testing.T) {
	const steps = 64
	a := newBackoff(1, 10*time.Millisecond, time.Second)
	b := newBackoff(2, 10*time.Millisecond, time.Second)
	same := 0
	for i := 0; i < steps; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same == steps {
		t.Fatalf("seeds 1 and 2 produced identical %d-step schedules", steps)
	}
}

// TestBackoffBounds: every pause stays within [base, max], and the walk
// actually leaves the base (it grows toward max rather than sitting still).
func TestBackoffBounds(t *testing.T) {
	base, max := 10*time.Millisecond, 200*time.Millisecond
	bo := newBackoff(7, base, max)
	grew := false
	for i := 0; i < 256; i++ {
		d := bo.Next()
		if d < base || d > max {
			t.Fatalf("step %d: pause %v outside [%v, %v]", i, d, base, max)
		}
		if d > base {
			grew = true
		}
	}
	if !grew {
		t.Fatal("256 steps never left the base pause")
	}
}

// TestBackoffDegenerateRanges: a zero base falls back to a sane default and
// max below base is clamped up, so a misconfigured client still terminates.
func TestBackoffDegenerateRanges(t *testing.T) {
	bo := newBackoff(3, 0, 0)
	for i := 0; i < 16; i++ {
		if d := bo.Next(); d <= 0 {
			t.Fatalf("degenerate backoff produced non-positive pause %v", d)
		}
	}
	bo = newBackoff(3, 100*time.Millisecond, time.Millisecond)
	for i := 0; i < 16; i++ {
		if d := bo.Next(); d != 100*time.Millisecond {
			t.Fatalf("max<base should pin to base; got %v", d)
		}
	}
}

// TestWalkSeedsSpread: the n-th walk a client draws — a retrying Query's, a
// subscription resume's, a follow stream's — is seeded Seed + n·φ·2⁶⁴, so a
// Query that builds its walk only at its first retry still walks the
// schedule its seed has always given, and successive walks differ.
func TestWalkSeedsSpread(t *testing.T) {
	c := newClient("127.0.0.1:1", Options{Seed: 42, RetryBackoff: 10 * time.Millisecond})
	for n := uint64(1); n <= 3; n++ {
		got := c.backoff(c.backoffSeed())
		want := newBackoff(42+n*0x9e3779b97f4a7c15, 10*time.Millisecond, time.Second)
		for i := 0; i < 16; i++ {
			if g, w := got.Next(), want.Next(); g != w {
				t.Fatalf("walk %d, step %d: %v, want %v", n, i, g, w)
			}
		}
	}
}
