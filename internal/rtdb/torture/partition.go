package torture

import (
	"fmt"
	"math/rand/v2"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultfs"
	"rtc/internal/faultnet"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/replica"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// ModePartition arms one network fault — a mid-frame cut, a silent frame
// drop, a corrupted byte, a slow-loris stall, or a one- or two-way
// partition — at every Stride-th fabric write op of a full
// client/primary/replica stack, and checks the wire invariants at each
// point.
const ModePartition Mode = "partition"

// The fabric endpoint labels. The server-side ends of accepted
// connections carry the listener's address as their label, so directions
// like {client → partPrimary} name exactly one flow.
const (
	partPrimary = "primary:1"
	partStandby = "standby:1"
)

// partScenario is one armed network fault family. hb enables the client
// heartbeat watchdog (the only detector for blackholed flows); promote
// marks the two-way isolation scenario that fails over to the standby
// mid-partition and then tries to walk the client back into the deposed
// primary.
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
		{name: "drop", fault: faultnet.Fault{Kind: faultnet.FaultDrop}},
		{name: "corrupt", fault: faultnet.Fault{Kind: faultnet.FaultCorrupt}},
		{name: "stall", fault: faultnet.Fault{Kind: faultnet.FaultStall}, hb: true},
		{name: "bh-client-to-primary", fault: part(dir("client", partPrimary)), hb: true},
		{name: "bh-primary-to-client", fault: part(dir(partPrimary, "client")), hb: true},
		{name: "bh-replica-to-primary", fault: part(dir("replica", partPrimary)), hb: true},
		{name: "bh-primary-to-replica", fault: part(dir(partPrimary, "replica")), hb: true},
		{name: "isolate-primary", fault: part(dir("*", partPrimary), dir(partPrimary, "*")), hb: true, promote: true},
	}
}

// PartitionSweep runs the network-fault variant of the crash sweep: a
// full stack — primary server behind netserve, a live replica tailing the
// WAL and serving as hot standby, and a client with both addresses —
// wired entirely through a seeded faultnet fabric. A probe run with no
// fault armed measures the fabric's total write-op count; the sweep then
// arms one seeded fault at every Stride-th op and checks, at each point:
//
//   - durability: no write the client saw acknowledged (a Flush that
//     succeeded on an unbroken primary connection) is ever lost —
//     acked ≤ SamplesApplied ≤ samples sent;
//   - fencing: when the primary is isolated and the standby promoted, a
//     client that saw the new epoch can never be recaptured by the
//     deposed primary once the partition heals (StaleRejected ≥ 1);
//   - conservation on both sides of the cut: QueriesIn ==
//     QueriesAccounted on the primary and on the standby;
//   - subscription cursors stay strictly monotone across every
//     stall-induced resume and failover re-attach;
//   - post-heal liveness: after Heal the client reaches the acting
//     primary, a flush and a query succeed, the replica converges to the
//     primary's WAL tip, and the replication durability watermark
//     catches up.
//
// Reader-visible malformed byte streams (cut prefixes, post-drop
// desyncs, corrupted frames) are captured into Report.Streams as seed
// material for rtwire's frame fuzzer (cmd/rttorture -corpus).
func (c Config) PartitionSweep() *Report {
	c.defaults()
	rep := &Report{}
	total, _, fail := c.partitionPoint(0)
	if fail != nil {
		fail.Detail = "faultless probe run: " + fail.Detail
		rep.Points++
		rep.Failures = append(rep.Failures, *fail)
		return rep
	}
	start, stride := uint64(1), uint64(c.Stride)
	if c.At > 0 {
		start, stride = c.At, 1
	}
	for at := start; at <= total; at += stride {
		rep.Points++
		_, stream, fail := c.partitionPoint(at)
		if fail != nil {
			rep.Failures = append(rep.Failures, *fail)
		} else {
			rep.Recoveries++
		}
		if len(stream) > 0 && len(rep.Streams) < 48 {
			if rep.Streams == nil {
				rep.Streams = make(map[string][]byte)
			}
			rep.Streams[fmt.Sprintf("seed%d-at%d", c.Seed, at)] = stream
		}
		if c.At > 0 {
			break
		}
	}
	if c.Logf != nil {
		c.Logf("partition sweep: seed=%d ops=%d points=%d recoveries=%d failures=%d streams=%d",
			c.Seed, total, rep.Points, rep.Recoveries, len(rep.Failures), len(rep.Streams))
	}
	return rep
}

// partitionPoint runs one full-stack workload with a network fault armed
// at fabric write op `at` (0: probe run, nothing armed). It returns the
// fabric's total op count and any malformed byte stream the fault left
// behind.
func (c Config) partitionPoint(at uint64) (ops uint64, stream []byte, fail *Failure) {
	ps := pointSeed(c.Seed, at)
	rng := rand.New(rand.NewPCG(ps, 0x6a09e667f3bcc909))
	scens := partScenarios()
	scen := scens[rng.IntN(len(scens))]

	fab := faultnet.NewFabric(ps)
	defer fab.Close()
	mkFail := func(format string, args ...any) *Failure {
		return &Failure{
			Mode: ModePartition, Seed: c.Seed, At: at, Events: c.Events,
			Detail: fmt.Sprintf("[%s] ", scen.name) + fmt.Sprintf(format, args...),
		}
	}
	fired := func() bool { f, _ := fab.Fired(); return f }

	// Primary: a full server (catalog, derivations, an alarm rule) behind
	// netserve on the fabric, with heartbeat-scaled timeouts so watchdogs
	// act within the point's lifetime.
	memP := faultfs.NewMem(ps)
	lp, err := wal.Open(c.walOptions(memP))
	if err != nil {
		return 0, nil, mkFail("primary Open: %v", err)
	}
	srv, err := server.New(chaosServerConfig(lp, 6, 64))
	if err != nil {
		lp.Close()
		return 0, nil, mkFail("primary server: %v", err)
	}
	srv.Start()
	nopt := netserve.Options{
		HeartbeatInterval: 40 * time.Millisecond,
		WriteTimeout:      150 * time.Millisecond,
		HandshakeTimeout:  500 * time.Millisecond,
		ReplBatch:         8, ReplWindow: 16, TailBuffer: 256,
		ReplStallTimeout: 300 * time.Millisecond,
	}
	ns := netserve.New(srv, nopt)
	pln, err := fab.Listen(partPrimary)
	if err != nil {
		srv.Stop()
		lp.Close()
		return 0, nil, mkFail("primary listen: %v", err)
	}
	go func() { _ = ns.Serve(pln) }()

	// Replica: tails the primary through its own fabric endpoint and
	// serves as the hot standby on a second fabric listener.
	memR := faultfs.NewMem(ps ^ 0x5bd1e995)
	rp, err := replica.Open(replica.Config{
		Primary: partPrimary,
		Dialer:  fab.Dialer("replica"),
		WAL: wal.Options{
			Dir: replDir, FS: memR, SegmentSize: c.SegmentSize,
			SnapshotEvery: c.SnapshotEvery, Sync: true,
			GroupWindow: c.GroupWindow,
		},
		Name:     "partition-follower",
		Catalog:  failoverCatalog(),
		Registry: rtdb.DeriveRegistry{"status": chaosDerive},
		Seed:     ps,

		DialTimeout:  150 * time.Millisecond,
		RetryBackoff: time.Millisecond, RetryBackoffMax: 20 * time.Millisecond,
		HeartbeatTimeout: 300 * time.Millisecond,
		WriteTimeout:     150 * time.Millisecond,
	})
	if err != nil {
		srv.Stop()
		ns.Close()
		lp.Close()
		return 0, nil, mkFail("replica Open: %v", err)
	}
	rp.Start()
	sln, err := fab.Listen(partStandby)
	if err != nil {
		srv.Stop()
		ns.Close()
		_ = rp.Close()
		lp.Close()
		return 0, nil, mkFail("standby listen: %v", err)
	}
	if _, err := rp.ServeOn(sln, nopt); err != nil {
		srv.Stop()
		ns.Close()
		_ = rp.Close()
		lp.Close()
		return 0, nil, mkFail("standby serve: %v", err)
	}

	// Arm before the first dial so handshake ops count toward the point.
	if at > 0 {
		fab.ArmAt(at, scen.fault)
	}
	healed := false
	heal := func() {
		if !healed {
			healed = true
			fab.Heal()
		}
	}
	finish := func(f *Failure) (uint64, []byte, *Failure) {
		return fab.Ops(), fab.MalformedStream(), f
	}
	var cl *client.Client
	var sub *client.Subscription
	teardown := func() {
		if sub != nil {
			_ = sub.Close()
		}
		if cl != nil {
			cl.Close()
		}
		ns.Close()
		srv.Stop()
	}

	hb := time.Duration(-1)
	if scen.hb {
		hb = 30 * time.Millisecond
	}
	clOpts := client.Options{
		Dialer:       fab.Dialer("client"),
		DialTimeout:  120 * time.Millisecond,
		CallTimeout:  500 * time.Millisecond,
		WriteTimeout: 150 * time.Millisecond,
		RetryAttempts: 6,
		RetryBackoff:  time.Millisecond, RetryBackoffMax: 10 * time.Millisecond,
		HeartbeatInterval: hb,
		Seed:              ps,
	}
	cl, err = client.Dial(partPrimary+","+partStandby, clOpts)
	if err != nil {
		// A fault that hit the handshake can defeat every dial retry (a
		// partition persists until Heal). Post-heal liveness still has to
		// hold: heal and dial again.
		if !fired() {
			teardown()
			_ = rp.Close()
			lp.Close()
			return finish(mkFail("client dial with no fault fired: %v", err))
		}
		heal()
		cl, err = client.Dial(partPrimary+","+partStandby, clOpts)
		if err != nil {
			teardown()
			_ = rp.Close()
			lp.Close()
			return finish(mkFail("post-heal client dial: %v", err))
		}
	}

	// One standing query rides the whole point; its cursors must stay
	// strictly monotone across every stall-induced resume and failover
	// re-attach. The drainer records the first regression it sees.
	sub, err = cl.Subscribe(client.SubSpec{
		Query: "status_q", Period: 3, Kind: deadline.Soft,
		Deadline: 1 << 20, MinUseful: 1, Buffer: 256,
	})
	if err != nil {
		if !fired() {
			teardown()
			_ = rp.Close()
			lp.Close()
			return finish(mkFail("subscribe with no fault fired: %v", err))
		}
		heal()
		sub, err = cl.Subscribe(client.SubSpec{
			Query: "status_q", Period: 3, Kind: deadline.Soft,
			Deadline: 1 << 20, MinUseful: 1, Buffer: 256,
		})
		if err != nil {
			teardown()
			_ = rp.Close()
			lp.Close()
			return finish(mkFail("post-heal subscribe: %v", err))
		}
	}
	var cursorRegress string
	var lastCursor uint64
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for p := range sub.Pushes() {
			if p.Cursor <= lastCursor && cursorRegress == "" {
				cursorRegress = fmt.Sprintf("cursor %d after %d", p.Cursor, lastCursor)
			}
			if p.Cursor > lastCursor {
				lastCursor = p.Cursor
			}
		}
	}()

	// Drive the workload. A sample batch counts as acked only when a
	// Flush succeeds on the same unbroken connection generation that
	// carried the batch, and that connection is to the primary — the
	// exact set of writes the client may rely on.
	acked, totalSent, pending := 0, 0, 0
	pendingGen := cl.Stats.Redials.Load()
	syncGen := func() {
		if g := cl.Stats.Redials.Load(); g != pendingGen {
			pending, pendingGen = 0, g
		}
	}
	flushPending := func() bool {
		syncGen()
		if pending == 0 {
			return false
		}
		gen := pendingGen
		if err := cl.Flush(); err == nil &&
			cl.Stats.Redials.Load() == gen && cl.Role() == rtwire.RolePrimary {
			acked += pending
			pending = 0
			return true
		}
		syncGen()
		pending = 0
		pendingGen = cl.Stats.Redials.Load()
		return false
	}

	images := []string{"temp", "press"}
	postFault := 0
	for i := 0; i < c.Events; i++ {
		if fired() {
			if postFault++; postFault > 8 {
				break
			}
		}
		syncGen()
		if err := cl.InjectSample(images[i%2], fmt.Sprintf("%d", 15+i%12)); err == nil {
			totalSent++
			if g := cl.Stats.Redials.Load(); g == pendingGen {
				pending++
			} else {
				pending, pendingGen = 0, g
			}
		}
		_ = srv.Tick(1)
		if i%5 == 4 {
			_, _ = cl.Query(client.Query{
				Query: "status_q", Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1,
			})
		}
		if i%4 == 3 && flushPending() && !fired() {
			// Lockstep pre-fault so the replica's position is pinned when
			// the fault lands.
			target, start := lp.Seq(), time.Now()
			for !rp.WaitSeq(target, 50*time.Millisecond) {
				if fired() {
					break
				}
				if time.Since(start) > 3*time.Second {
					teardown()
					_ = rp.Close()
					lp.Close()
					return finish(mkFail("replica stalled at %d (want %d) with no fault", rp.Seq(), target))
				}
			}
		}
	}

	if scen.promote && fired() && !healed {
		fail = c.partitionPromote(fab, cl, rp, srv, heal, mkFail)
	} else {
		fail = c.partitionRideOut(fab, cl, rp, srv, ns, lp, heal, mkFail,
			&acked, &pending, &pendingGen, totalSent, flushPending)
	}

	// Teardown order mirrors production: client first, then the serving
	// layers, then the logs.
	if sub != nil {
		_ = sub.Close()
	}
	<-subDone
	if fail == nil && cursorRegress != "" {
		fail = mkFail("subscription cursor regressed: %s", cursorRegress)
	}
	cl.Close()
	ns.Close()
	srv.Stop()
	if scen.promote && rp.Epoch() >= 2 {
		// Promote hands the log to the caller.
		nl := rp.Log()
		_ = rp.Close()
		if nl != nil {
			_ = nl.Close()
		}
	} else {
		_ = rp.Close()
	}
	lp.Close()
	return finish(fail)
}

// partitionRideOut is the common back half of a fault point: heal, reach
// the primary again, and check durability, conservation, convergence,
// and the durability watermark.
func (c Config) partitionRideOut(
	fab *faultnet.Fabric, cl *client.Client, rp *replica.Replica,
	srv *server.Server, ns *netserve.Server, lp *wal.Log,
	heal func(), mkFail func(string, ...any) *Failure,
	acked, pending *int, pendingGen *uint64, totalSent int, flushPending func() bool,
) *Failure {
	heal()

	// Post-heal liveness: the client must reach the acting primary and
	// get a flush through. A firm query bounces a standby connection
	// (read-only reject → rotate), so retrying both converges. The loops
	// below re-heal on every pass: a fault armed at an op the drive
	// phase never reached fires during this phase's own writes, after
	// the first heal.
	dl := time.Now().Add(5 * time.Second)
	flushed := false
	for time.Now().Before(dl) {
		fab.Heal()
		if cl.Role() != rtwire.RolePrimary {
			_, _ = cl.Query(client.Query{
				Query: "status_q", Kind: deadline.Firm, Deadline: 1 << 20, MinUseful: 1,
			})
		}
		if g := cl.Stats.Redials.Load(); g != *pendingGen {
			*pending, *pendingGen = 0, g
		}
		gen := *pendingGen
		if err := cl.Flush(); err == nil &&
			cl.Stats.Redials.Load() == gen && cl.Role() == rtwire.RolePrimary {
			*acked += *pending
			*pending = 0
			flushed = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !flushed {
		return mkFail("post-heal flush never reached the primary")
	}
	fab.Heal()
	if _, err := cl.Query(client.Query{
		Query: "status_q", Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1,
	}); err != nil {
		return mkFail("post-heal query: %v", err)
	}

	// Durability and conservation on the primary.
	if err := srv.Barrier(); err != nil {
		return mkFail("post-heal barrier: %v", err)
	}
	m := srv.Metrics.Snapshot()
	if int(m.SamplesApplied) < *acked {
		return mkFail("lost acked writes: %d acked, %d applied", *acked, m.SamplesApplied)
	}
	if int(m.SamplesIn) > totalSent {
		return mkFail("duplicated writes: %d sent, %d arrived", totalSent, m.SamplesIn)
	}
	if m.QueriesIn != m.QueriesAccounted() {
		return mkFail("primary conservation broken: in=%d accounted=%d", m.QueriesIn, m.QueriesAccounted())
	}

	// The replica converges to the primary's WAL tip and the replication
	// durability watermark follows.
	seq := lp.Seq()
	start := time.Now()
	for !rp.WaitSeq(seq, 50*time.Millisecond) {
		fab.Heal()
		if time.Since(start) > 5*time.Second {
			return mkFail("replica never converged: at %d, primary at %d", rp.Seq(), seq)
		}
	}
	dl = time.Now().Add(5 * time.Second)
	for ns.ReplDurable() < seq {
		fab.Heal()
		if time.Now().After(dl) {
			return mkFail("durability watermark stuck at %d, primary at %d", ns.ReplDurable(), seq)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Conservation on the standby side of the cut.
	ms := rp.Metrics.Snapshot()
	if ms.QueriesIn != ms.QueriesAccounted() {
		return mkFail("standby conservation broken: in=%d accounted=%d", ms.QueriesIn, ms.QueriesAccounted())
	}
	return nil
}

// partitionPromote is the failover half: with the primary isolated, the
// standby is promoted and the client must follow it — and once the
// partition heals, the deposed primary must never recapture a client
// that saw the new epoch.
func (c Config) partitionPromote(
	fab *faultnet.Fabric, cl *client.Client, rp *replica.Replica,
	srv *server.Server,
	heal func(), mkFail func(string, ...any) *Failure,
) *Failure {
	epoch, err := rp.Promote()
	if err != nil {
		return mkFail("promote during partition: %v", err)
	}
	if epoch < 2 {
		return mkFail("promotion left epoch at %d", epoch)
	}

	// The client must find the promoted standby and learn the new epoch.
	dl := time.Now().Add(5 * time.Second)
	for cl.Epoch() < epoch {
		if time.Now().After(dl) {
			return mkFail("client never saw epoch %d (at %d)", epoch, cl.Epoch())
		}
		_, _ = cl.Query(client.Query{
			Query: "status_q", Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1,
		})
		time.Sleep(time.Millisecond)
	}

	// Replicated durability across the failover: everything the client
	// heard as replication-durable must be on the promoted standby.
	if w := cl.Stats.MaxPrimarySeq.Load(); rp.Seq() < w {
		return mkFail("promoted standby at %d below durable watermark %d", rp.Seq(), w)
	}

	// Heal, then force the client back through the deposed primary: block
	// the standby path and cut the live connection, so the ring walk must
	// try the old primary — whose stale epoch has to be refused.
	heal()
	fab.PartitionNow(faultnet.Direction{From: "client", To: partStandby})
	fab.CutAll("client", partStandby)
	before := cl.Stats.StaleRejected.Load()
	_, _ = cl.Query(client.Query{
		Query: "status_q", Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1,
	})
	if cl.Stats.StaleRejected.Load() == before {
		return mkFail("deposed primary recaptured the client: no stale rejection recorded")
	}
	if cl.Epoch() < epoch {
		return mkFail("client epoch regressed to %d after meeting the deposed primary", cl.Epoch())
	}

	// Lift the forced detour: the promoted standby must serve again.
	fab.Heal()
	dl = time.Now().Add(5 * time.Second)
	for {
		if _, err := cl.Query(client.Query{
			Query: "status_q", Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1,
		}); err == nil {
			break
		}
		if time.Now().After(dl) {
			return mkFail("post-heal query never reached the promoted standby")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Conservation still holds on both sides of the healed cut.
	if err := srv.Barrier(); err != nil {
		return mkFail("deposed primary barrier: %v", err)
	}
	m := srv.Metrics.Snapshot()
	if m.QueriesIn != m.QueriesAccounted() {
		return mkFail("deposed primary conservation broken: in=%d accounted=%d", m.QueriesIn, m.QueriesAccounted())
	}
	ms := rp.Metrics.Snapshot()
	if ms.QueriesIn != ms.QueriesAccounted() {
		return mkFail("promoted standby conservation broken: in=%d accounted=%d", ms.QueriesIn, ms.QueriesAccounted())
	}
	return nil
}
