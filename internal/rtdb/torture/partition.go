package torture

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultnet"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/replica"
	"rtc/internal/rtwire"
)

// partScenario is one armed network fault family. hb turns on the client's
// beacons and its reads' silence bound (the only detector for blackholed
// flows); promote marks the two-way isolation scenario that fails over to
// the standby mid-partition and then tries to walk the client back into the
// deposed primary.
type partScenario struct {
	name    string
	fault   faultnet.Fault
	hb      bool
	promote bool
}

func partScenarios() []partScenario {
	dir := func(from, to string) faultnet.Direction { return faultnet.Direction{From: from, To: to} }
	part := func(dirs ...faultnet.Direction) faultnet.Fault {
		return faultnet.Fault{Kind: faultnet.FaultPartition, Dirs: dirs}
	}
	return []partScenario{
		{name: "cut", fault: faultnet.Fault{Kind: faultnet.FaultCut}},
		// The client coalesces samples with the Flush that acks them: Span
		// keeps the vanished prefix inside the write's first frame header, so
		// the stream desyncs and resets, as on a real network, and cannot
		// lose whole samples behind an acked Flush (DESIGN §15).
		{name: "drop", fault: faultnet.Fault{Kind: faultnet.FaultDrop, Span: rtwire.HeaderSize}},
		{name: "corrupt", fault: faultnet.Fault{Kind: faultnet.FaultCorrupt}},
		{name: "stall", fault: faultnet.Fault{Kind: faultnet.FaultStall}, hb: true},
		{name: "bh-client-to-primary", fault: part(dir("client", partPrimary)), hb: true},
		{name: "bh-primary-to-client", fault: part(dir(partPrimary, "client")), hb: true},
		{name: "bh-replica-to-primary", fault: part(dir("replica", partPrimary)), hb: true},
		{name: "bh-primary-to-replica", fault: part(dir(partPrimary, "replica")), hb: true},
		{name: "isolate-primary", fault: part(dir("*", partPrimary), dir(partPrimary, "*")), hb: true, promote: true},
	}
}

// fabricStack builds the stack entirely on a faultnet fabric, with
// beacon-scaled timeouts so silence bounds act within a point's lifetime.
func (c Config) fabricStack(fab *faultnet.Fabric, seed uint64, sessions int) (*stack, error) {
	return c.newStack(stackSpec{
		fab: fab, seed: seed, sessions: sessions, beacon: 100 * time.Millisecond,
		net: netserve.Options{
			WriteTimeout:     150 * time.Millisecond,
			HandshakeTimeout: 500 * time.Millisecond,
			ReplBatch:        8, ReplWindow: 16,
			ReplStallTimeout: 300 * time.Millisecond,
		},
		follower: replica.Config{Client: client.Options{
			DialTimeout:  150 * time.Millisecond,
			WriteTimeout: 150 * time.Millisecond,
		}},
	})
}

// partitionPoint is the network-fault variant of the crash point: a full
// stack — primary server behind netserve, a live replica tailing the WAL
// and serving as hot standby, and a client with both addresses — wired
// entirely through a seeded faultnet fabric, with one seeded fault armed at
// fabric write op p.at (0: none, the probe that counts the ops). It checks:
//
//   - durability: no write the client saw acknowledged (a Flush that
//     succeeded on an unbroken primary connection) is ever lost —
//     acked ≤ SamplesApplied ≤ samples sent;
//   - fencing: when the primary is isolated and the standby promoted, a
//     client that saw the new epoch can never be recaptured by the
//     deposed primary once the partition heals (StaleRejected ≥ 1);
//   - every book closes on both sides of the cut, at teardown;
//   - subscription cursors stay strictly monotone across every
//     stall-induced resume and failover re-attach;
//   - post-heal liveness: after Heal the client reaches the acting
//     primary, a flush and a query succeed, the replica converges to the
//     primary's WAL tip, and the replication durability watermark
//     catches up.
//
// The reader-visible malformed byte stream the fault left behind (a cut
// prefix, a post-drop desync, a corrupted frame) goes back in p.stream.
func (c Config) partitionPoint(p *point) (err error) {
	ps := pointSeed(c.Seed, p.at)
	rng := rand.New(rand.NewPCG(ps, 0x6a09e667f3bcc909))
	scens := partScenarios()
	scen := scens[rng.IntN(len(scens))]

	fab := faultnet.NewFabric(ps)
	defer fab.Close()
	defer func() { // after the teardown below: its writes are ops of the run too
		p.ops, p.stream = fab.Ops(), fab.MalformedStream()
		if err != nil {
			err = fmt.Errorf("[%s] %w", scen.name, err)
		}
	}()
	st, err := c.fabricStack(fab, ps, 6)
	if err != nil {
		return err
	}
	defer func() { // joined only when open, as in failoverPoint
		if open := st.close(); open != nil {
			err = errors.Join(err, open)
		}
	}()
	r := &partRun{stack: st, fab: fab}

	// Arm before the first dial so handshake ops count toward the point.
	if p.at > 0 {
		fab.ArmAt(p.at, scen.fault)
	}
	hb := time.Duration(-1)
	if scen.hb {
		hb = 30 * time.Millisecond
	}
	addrs, clOpts := st.primary+","+st.standby, client.Options{
		Dialer:        fab.Dialer("client"),
		DialTimeout:   120 * time.Millisecond,
		CallTimeout:   500 * time.Millisecond,
		WriteTimeout:  150 * time.Millisecond,
		RetryAttempts: 6,
		RetryBackoff:  time.Millisecond, RetryBackoffMax: 10 * time.Millisecond,
		HeartbeatInterval: hb,
		Seed:              ps,
	}
	// A fault that hit the handshake can defeat every dial retry (a
	// partition persists until Heal). Post-heal liveness still has to hold:
	// heal and dial again. The same goes for the subscribe below.
	if r.cl, err = client.Dial(addrs, clOpts); err != nil && r.fired() {
		r.heal()
		r.cl, err = client.Dial(addrs, clOpts)
	}
	if err != nil {
		return fmt.Errorf("client dial (fault fired: %v): %v", r.fired(), err)
	}
	defer r.cl.Close()

	// One standing query rides the whole point; its cursors must stay
	// strictly monotone across every stall-induced resume and failover
	// re-attach. The drainer keeps the first regression it sees.
	spec := client.SubSpec{
		Query: "status_q", Period: 3, Kind: deadline.Soft,
		Deadline: 1 << 20, MinUseful: 1, Buffer: 256,
	}
	sub, err := r.cl.Subscribe(spec)
	if err != nil && r.fired() {
		r.heal()
		sub, err = r.cl.Subscribe(spec)
	}
	if err != nil {
		return fmt.Errorf("subscribe (fault fired: %v): %v", r.fired(), err)
	}
	var cursorErr error
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		var last uint64
		for push := range sub.Pushes() {
			if err := cursorMonotone(last, push.Cursor); err == nil {
				last = push.Cursor
			} else if cursorErr == nil {
				cursorErr = err
			}
		}
	}()
	defer func() {
		_ = sub.Close()
		<-subDone
		if err == nil {
			err = cursorErr
		}
	}()

	// Drive the workload.
	r.gen = r.cl.Stats.Redials.Load()
	images := []string{"temp", "press"}
	postFault := 0
	for i := 0; i < c.Events; i++ {
		if r.fired() {
			if postFault++; postFault > 8 {
				break
			}
		}
		r.sameGen()
		if err := r.cl.InjectSample(images[i%2], fmt.Sprintf("%d", 15+i%12)); err == nil {
			r.sent++
			if r.sameGen() {
				r.pending++
			}
		}
		_ = st.srv.Tick(1)
		if i%5 == 4 {
			_, _ = r.cl.Query(statusQuery(deadline.Soft))
		}
		if i%4 != 3 {
			continue
		}
		if r.sameGen(); r.pending == 0 {
			continue
		}
		if !r.flush() {
			r.pending = 0 // a batch whose flush failed is never counted
			continue
		}
		// Lockstep pre-fault so the replica's position is pinned when the
		// fault lands.
		target := st.lp.Seq()
		if !poll(3*time.Second, func() bool { return r.fired() || st.rp.WaitSeq(target, 50*time.Millisecond) }) {
			return fmt.Errorf("replica stalled at %d (want %d) with no fault", st.rp.Seq(), target)
		}
	}

	if scen.promote && r.fired() && !r.healed {
		return r.promote()
	}
	return r.rideOut()
}

// partRun is one partition point in flight: the stack, the client riding
// it, and the books of what that client may rely on. A sample batch counts
// as acked only when a Flush succeeds on the same unbroken connection
// generation that carried the batch, and that connection is to the primary.
type partRun struct {
	*stack
	fab                  *faultnet.Fabric
	cl                   *client.Client
	healed               bool
	acked, sent, pending int
	gen                  uint64 // client redial count when pending was sent
}

func (r *partRun) fired() bool { f, _ := r.fab.Fired(); return f }

func (r *partRun) heal() {
	if !r.healed {
		r.healed = true
		r.fab.Heal()
	}
}

// sameGen reports whether the client is still on the connection generation
// that carries the pending batch; once it has redialed, the batch is
// forgotten.
func (r *partRun) sameGen() bool {
	g := r.cl.Stats.Redials.Load()
	if g == r.gen {
		return true
	}
	r.pending, r.gen = 0, g
	return false
}

// flush reports whether a Flush acknowledged the pending batch.
func (r *partRun) flush() bool {
	r.sameGen()
	gen := r.gen
	if err := r.cl.Flush(); err != nil || r.cl.Stats.Redials.Load() != gen || r.cl.Role() != rtwire.RolePrimary {
		return false
	}
	r.acked += r.pending
	r.pending = 0
	return true
}

// poll retries step every 2 ms until it holds, or reports false once bound
// has passed.
func poll(bound time.Duration, step func() bool) bool {
	for dl := time.Now().Add(bound); !step(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(dl) {
			return false
		}
	}
	return true
}

// rideOut is the common back half of a fault point: heal, reach the
// primary again, and check durability, convergence, and the durability
// watermark.
func (r *partRun) rideOut() error {
	r.heal()

	// Post-heal liveness: the client must reach the acting primary and
	// get a flush through. A firm query bounces a standby connection
	// (read-only reject → rotate), so retrying both converges. The loops
	// below re-heal on every pass: a fault armed at an op the drive
	// phase never reached fires during this phase's own writes, after
	// the first heal.
	if !poll(5*time.Second, func() bool {
		r.fab.Heal()
		if r.cl.Role() != rtwire.RolePrimary {
			_, _ = r.cl.Query(statusQuery(deadline.Firm))
		}
		return r.flush()
	}) {
		return fmt.Errorf("post-heal flush never reached the primary")
	}
	r.fab.Heal()
	if _, err := r.cl.Query(statusQuery(deadline.Soft)); err != nil {
		return fmt.Errorf("post-heal query: %v", err)
	}

	// Durability on the primary.
	if err := r.srv.Barrier(); err != nil {
		return fmt.Errorf("post-heal barrier: %v", err)
	}
	m := r.srv.Metrics.Snapshot()
	if err := ackedWrites(r.acked, r.sent, m); err != nil {
		return err
	}

	// The replica converges to the primary's WAL tip and the replication
	// durability watermark follows.
	seq := r.lp.Seq()
	if !poll(5*time.Second, func() bool { r.fab.Heal(); return r.rp.WaitSeq(seq, 50*time.Millisecond) }) {
		return fmt.Errorf("replica never converged: at %d, primary at %d", r.rp.Seq(), seq)
	}
	if !poll(5*time.Second, func() bool { r.fab.Heal(); return r.ns.ReplDurable() >= seq }) {
		return fmt.Errorf("durability watermark stuck at %d, primary at %d", r.ns.ReplDurable(), seq)
	}
	return nil
}

// promote is the failover half: with the primary isolated, the standby is
// promoted and the client must follow it — and once the partition heals,
// the deposed primary must never recapture a client that saw the new epoch.
func (r *partRun) promote() error {
	epoch, err := r.rp.Promote()
	if err != nil {
		return fmt.Errorf("promote during partition: %v", err)
	}
	if err := epochAdvanced(epoch); err != nil {
		return err
	}

	// The client must find the promoted standby and learn the new epoch.
	if !poll(5*time.Second, func() bool {
		if r.cl.Epoch() >= epoch {
			return true
		}
		_, _ = r.cl.Query(statusQuery(deadline.Soft))
		return false
	}) {
		return fmt.Errorf("client never saw epoch %d (at %d)", epoch, r.cl.Epoch())
	}

	// Replicated durability across the failover: everything the client
	// heard as replication-durable must be on the promoted standby.
	if w := r.cl.Stats.MaxPrimarySeq.Load(); r.rp.Seq() < w {
		return fmt.Errorf("promoted standby at %d below durable watermark %d", r.rp.Seq(), w)
	}

	// Heal, then force the client back through the deposed primary: block
	// the standby path and cut the live connection, so the ring walk must
	// try the old primary — whose stale epoch has to be refused.
	r.heal()
	r.fab.PartitionNow(faultnet.Direction{From: "client", To: partStandby})
	r.fab.CutAll("client", partStandby)
	before := r.cl.Stats.StaleRejected.Load()
	_, _ = r.cl.Query(statusQuery(deadline.Soft))
	if r.cl.Stats.StaleRejected.Load() == before {
		return fmt.Errorf("deposed primary recaptured the client: no stale rejection recorded")
	}
	if r.cl.Epoch() < epoch {
		return fmt.Errorf("client epoch regressed to %d after meeting the deposed primary", r.cl.Epoch())
	}

	// Lift the forced detour: the promoted standby must serve again.
	r.fab.Heal()
	if !poll(5*time.Second, func() bool { _, err := r.cl.Query(statusQuery(deadline.Soft)); return err == nil }) {
		return fmt.Errorf("post-heal query never reached the promoted standby")
	}
	// The deposed primary's apply loop still runs; the books of both sides
	// of the healed cut close at teardown.
	if err := r.srv.Barrier(); err != nil {
		return fmt.Errorf("deposed primary barrier: %v", err)
	}
	return nil
}
