package client

import (
	"math/rand"
	"time"
)

// Backoff generates retry pauses with decorrelated jitter:
//
//	next = min(max, base + rand[0, 3·prev − base])
//
// A deterministic doubling ladder makes every client that lost the same
// primary redial on the same schedule — a lockstep stampede exactly when
// the recovered node is weakest. Jitter decorrelates the fleet: each
// client's schedule is a private random walk between base and max, so
// reconnects arrive spread out. The seed makes a single client's schedule
// reproducible (the torture and unit suites rely on that) while different
// seeds give different schedules. Dial and Query walk one each; every
// re-attach — a subscription's resume, a follow stream's re-subscribe —
// walks one through rejoin.
type Backoff struct {
	base, max time.Duration
	prev      time.Duration
	rng       *rand.Rand
}

// NewBackoff starts a walk at base; a non-positive base means 50ms and a max
// below base pins every pause to base.
func NewBackoff(seed uint64, base, max time.Duration) *Backoff {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max < base {
		max = base
	}
	// prev starts at base so even the first pause is jittered.
	return &Backoff{base: base, max: max, prev: base, rng: rand.New(rand.NewSource(int64(seed)))}
}

// Next returns the next pause and advances the walk.
func (b *Backoff) Next() time.Duration {
	next := b.base
	if hi := 3 * b.prev; hi > b.base {
		next = b.base + time.Duration(b.rng.Int63n(int64(hi-b.base)+1))
	}
	if next > b.max {
		next = b.max
	}
	b.prev = next
	return next
}
