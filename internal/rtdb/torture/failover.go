package torture

import (
	"errors"
	"fmt"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/replica"
)

// failoverPoint is the replicated variant of the crash point: a primary WAL
// behind a live rtwire replication stream, a replica acking every event, and
// a power cut armed at mutating op p.at of the primary's filesystem. After
// the kill it
//
//   - reads from the hot standby during the outage (a soft query must be
//     served degraded, a firm query refused read-only) and checks the
//     standby's query conservation,
//   - promotes the replica and requires the fencing epoch to advance,
//   - asserts the replicated durability bound acked ≤ n ≤ acked+1 (with
//     per-event acks the replica can never trail an acked write, and
//     double-apply would push n past acked+1),
//   - deep-compares the promoted state against the reference prefix,
//   - writes through the promoted server — promoted in place, no rebuild —
//     to prove its log is live, and
//   - reopens the promoted log: the bumped epoch must have been persisted.
func (c Config) failoverPoint(p *point, events []wal.Event) error {
	ps := pointSeed(c.Seed, p.at)
	nopt := netserve.Options{
		HeartbeatInterval: 50 * time.Millisecond,
		ReplBatch:         8, ReplWindow: 32,
	}
	if c.Shards > 0 {
		// Sharded rerun: the primary poses as one listener of an N-wide
		// deployment. The replica must ignore the placement announcement
		// and fail over exactly as in the unsharded sweep.
		nopt.Shard, nopt.Shards = c.Victim%c.Shards, c.Shards
	}
	st, err := c.newStack(stackSpec{seed: ps, net: nopt, follower: replica.Config{Client: client.Options{HeartbeatInterval: 5 * time.Second / 3}}})
	p.mem = st.memP
	if err != nil {
		return err
	}
	defer st.close()

	// Drive the workload, waiting for the replica's ack after every
	// successful append: the sweep's `acked` therefore equals the replica's
	// sequence at every step, making the kill-point outcome deterministic.
	st.memP.CrashAt(p.at)
	acked := 0
	for _, e := range events {
		// A power cut inside the append's own housekeeping (the automatic
		// snapshot) lets Append return nil on a dead disk. The process the
		// model kills never saw that return and acked nothing — and the
		// sender, which reads what it ships from that disk, is as dead.
		if err := st.lp.Append(e); err != nil || st.memP.Dead() {
			break
		}
		acked++
		if !st.rp.WaitSeq(uint64(acked), 10*time.Second) {
			return fmt.Errorf("replica never reached acked seq %d (stuck at %d)", acked, st.rp.Seq())
		}
	}
	if !st.memP.Dead() {
		return errBeyond
	}
	st.memP.Crash()
	st.killPrimary()

	// The outage window: the standby must serve degraded reads and refuse
	// firm ones, with its conservation law intact.
	cl, err := client.Dial(st.standby, client.Options{RetryAttempts: -1, HeartbeatInterval: -1, Seed: ps})
	if err != nil {
		return fmt.Errorf("standby dial during outage: %v", err)
	}
	_, softErr := cl.Query(statusQuery(deadline.Soft))
	_, firmErr := cl.Query(statusQuery(deadline.Firm))
	cl.Close()
	if softErr != nil {
		return fmt.Errorf("standby refused a soft query: %v", softErr)
	}
	if !errors.Is(firmErr, client.ErrReadOnly) {
		return fmt.Errorf("standby served a firm query during outage (err=%v)", firmErr)
	}
	ms := st.rp.Server().Metrics.Snapshot()
	if err := queryConservation("standby", ms); err != nil {
		return err
	}
	if ms.Degraded == 0 {
		return fmt.Errorf("soft query was served but not counted degraded")
	}

	// Failover: promote, fence, and check the replicated recovery laws.
	epoch, err := st.rp.Promote()
	if err != nil {
		return fmt.Errorf("promote: %v", err)
	}
	if err := epochAdvanced(epoch); err != nil {
		return err
	}
	n := int(st.rp.Seq())
	if err := durabilityBound("replica has", n, acked, acked, true); err != nil {
		return err
	}
	if _, err := referencePrefix("promoted ", events, n, st.rp.Log().State()); err != nil {
		return err
	}
	if n >= 2 { // catalog prologue replicated, image exists
		if err := servedLive("append after promotion", st.rp.Server()); err != nil {
			return err
		}
	}
	if err := st.rp.Close(); err != nil {
		return fmt.Errorf("close promoted node: %v", err)
	}

	// Fencing durability: the bumped epoch survives a restart of the node.
	l2, err := wal.Open(c.followerWAL(st.memR))
	if err != nil {
		return fmt.Errorf("reopen promoted log: %v", err)
	}
	defer l2.Close()
	return epochPersisted(epoch, l2.Epoch())
}
