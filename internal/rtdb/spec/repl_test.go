package spec

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultfs"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/replica"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// caughtUp waits until r holds seq and returns its log's payloads through
// it, byte for byte as framed.
func caughtUp(t *testing.T, r *replica.Replica, seq uint64) []string {
	t.Helper()
	if !r.WaitSeq(seq, 10*time.Second) {
		t.Fatalf("follower stuck at seq %d, want %d", r.Seq(), seq)
	}
	return payloads(t, r.Log(), seq)
}

func payloads(t *testing.T, l *wal.Log, n uint64) []string {
	t.Helper()
	got, err := l.ReadFrom(&wal.ReadPos{}, int(n))
	if err != nil || uint64(len(got)) != n {
		t.Fatalf("read %d of %d payloads: %v", len(got), n, err)
	}
	return got
}

// REPL-001: a follower started behind a primary's history catches up from
// its segments and hands off to the live tail without a seam: its state is
// the primary's, and it applied every event once.
func replCatchupThenTail(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	tg.advance(t, 20)
	r := tg.follower(t, replica.Config{}, nodeConfig(nil))
	caughtUp(t, r, tg.log.Seq())
	tg.advance(t, 20)
	sameReplica(t, tg, r)
}

// sameReplica waits for r to hold the primary's whole log, then requires
// its state to be the primary's, every event applied once.
func sameReplica(t *testing.T, tg *target, r *replica.Replica) {
	t.Helper()
	seq := tg.log.Seq()
	caughtUp(t, r, seq)
	if d := tg.log.State().Diff(r.Log().State()); d != "" {
		t.Fatalf("replicated state diverged: %s", d)
	}
	if n := r.Server().Repl.EventsApplied.Load(); n != seq {
		t.Fatalf("EventsApplied = %d, want %d", n, seq)
	}
}

// REPL-011: events a primary appends while a follower is subscribed reach it
// in order: its state is the primary's, every event applied once.
func replLiveTail(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	r := tg.follower(t, replica.Config{}, nodeConfig(nil))
	caughtUp(t, r, tg.log.Seq())
	tg.advance(t, 40)
	sameReplica(t, tg, r)
}

// REPL-012: a follower's log holds the payloads its primary framed, byte for
// byte, through catch-up and the live tail alike.
func replLogIsPrimaryBytes(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	tg.advance(t, 20)
	r := tg.follower(t, replica.Config{}, nodeConfig(nil))
	caughtUp(t, r, tg.log.Seq())
	tg.advance(t, 20)
	seq := tg.log.Seq()
	got := caughtUp(t, r, seq)
	for i, want := range payloads(t, tg.log, seq) {
		if got[i] != want {
			t.Fatalf("seq %d: follower holds %q, primary %q", i+1, got[i], want)
		}
	}
}

// rawFollower subscribes a frame-level follower from sequence 0, acks
// everything shipped, and returns once the listener has booked the acks.
func rawFollower(t *testing.T, tg *target) *rawConn {
	t.Helper()
	rc := tg.raw(t, "raw-follower", true)
	rc.write(rtwire.Subscribe{AfterSeq: 0, Follower: "raw"}.Encode())
	for seq := uint64(0); seq < tg.log.Seq(); {
		b, ok := rc.read().(rtwire.WalBatch)
		if !ok || b.FirstSeq != seq+1 {
			t.Fatalf("got %+v, want a WalBatch from seq %d: a silent follower is sent nothing else", b, seq+1)
		}
		seq += uint64(len(b.Events))
		rc.write(rtwire.WalAck{Seq: seq}.Encode())
	}
	await(t, "watermark reached the acked tail", func() bool { return tg.ns.ReplDurable() >= tg.log.Seq() })
	return rc
}

// REPL-002: the send window is the follower's acked sequence as the
// listener books it. A follower that acks nothing is sent at most the
// window plus one batch, then silence; its acks wake the sender and the
// stream resumes; a window left full with no ack progress for
// ReplStallTimeout evicts it, counted, its connection cut.
func replSendWindow(t *testing.T, mk maker) {
	const window, batch, stall = 4, 2, 500 * time.Millisecond
	tg := mk(t, setup{opt: netserve.Options{ReplWindow: window, ReplBatch: batch, ReplStallTimeout: stall}})
	tg.client(t) // dialled first, so the follower's frames are all there is to read
	rc := rawFollower(t, tg)
	sent := tg.log.Seq()
	recv := func() {
		t.Helper()
		b, ok := rc.read().(rtwire.WalBatch)
		if !ok || b.FirstSeq != sent+1 {
			t.Fatalf("got %+v, want a WalBatch from seq %d", b, sent+1)
		}
		sent += uint64(len(b.Events))
	}
	acked := sent
	tg.advance(t, 10)
	for sent-acked <= window {
		recv()
	}
	if sent-acked > window+batch {
		t.Fatalf("%d unacked events in flight, window %d + batch %d", sent-acked, window, batch)
	}
	if msg, err := rc.next(50 * time.Millisecond); !isTimeout(err) {
		t.Fatalf("the sender shipped %+v (%v) past its full window", msg, err)
	}
	for sent < tg.log.Seq() {
		rc.write(rtwire.WalAck{Seq: sent}.Encode())
		recv()
	}
	if got := tg.ns.Wire.ReplStallEvictions.Load(); got != 0 {
		t.Fatalf("%d evictions of an acking follower", got)
	}
	start := time.Now()
	tg.advance(t, 2*window)
	for {
		if _, err := rc.next(5 * time.Second); err != nil {
			if isTimeout(err) {
				t.Fatal("a follower that stopped acking was never evicted")
			}
			break
		}
	}
	if got := tg.ns.Wire.ReplStallEvictions.Load(); got != 1 {
		t.Fatalf("ReplStallEvictions = %d, want 1", got)
	}
	if d := time.Since(start); d < stall {
		t.Fatalf("evicted after %v, before ReplStallTimeout", d)
	}
}

// REPL-003: a follower's stale connection, its last ack lost with it, can
// still be registered when its next connection subscribes holding
// everything. Once the stale one is torn down the watermark moves at once to
// what the live one holds: an idle follower sends no later ack to move it.
func replDepartingFollower(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	tg.client(t)
	stale := rawFollower(t, tg)
	held := tg.log.Seq()
	tg.advance(t, 1)
	if _, ok := stale.read().(rtwire.WalBatch); !ok {
		t.Fatal("the stale connection was not shipped the new event")
	}
	live := tg.raw(t, "live-follower", true)
	live.write(rtwire.Subscribe{AfterSeq: tg.log.Seq(), Follower: "raw"}.Encode(), rtwire.Heartbeat{}.Encode())
	// The listener reads the beacon after the Subscribe: once its echo is
	// back, both connections are registered.
	if hb, ok := live.read().(rtwire.Heartbeat); !ok || hb.Seq != held {
		t.Fatalf("echo %+v, want the watermark %d the stale connection holds", hb, held)
	}
	stale.nc.Close()
	await(t, "watermark released by the departed connection", func() bool { return tg.ns.ReplDurable() >= tg.log.Seq() })
}

// shardClients dials every listener of a shards target.
func shardClients(t *testing.T, tg *target) []*client.Client {
	cs := make([]*client.Client, len(tg.shards))
	for i, sh := range tg.shards {
		cs[i] = sh.dial(t, "placer-"+strconv.Itoa(i), sh.addr)
	}
	return cs
}

// place injects a sample of every object through its owner's listener.
func place(t *testing.T, tg *target, cs []*client.Client) {
	t.Helper()
	for i := 0; i < 4*len(cs); i++ {
		obj := shardObj(i)
		owner := cs[0].ShardFor(obj)
		must(t, cs[owner].InjectSample(obj, strconv.Itoa(100+i)))
	}
	for _, c := range cs {
		must(t, c.Flush())
	}
}

// SHARD-001: every listener announces its (shard, shards) placement in its
// Welcome; a client places each object with rtwire.ShardOf, the placement
// on disk, and its owner's listener takes the sample and answers for it.
// Every shard does work, and the cross-shard sum of applied samples is
// exactly what was sent.
func shardPlacement(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	cs := shardClients(t, tg)
	for i, c := range cs {
		if c.Shards() != uint64(len(cs)) || c.Shard() != uint64(i) {
			t.Fatalf("listener %d announced shard %d/%d", i, c.Shard(), c.Shards())
		}
	}
	place(t, tg, cs)
	for i := 0; i < 4*len(cs); i++ {
		obj := shardObj(i)
		owner := cs[0].ShardFor(obj)
		if owner != uint64(rtwire.ShardOf(obj, len(cs))) {
			t.Fatalf("client places %q on shard %d, rtwire.ShardOf disagrees", obj, owner)
		}
		for s, c := range cs {
			if (c.ShardFor(obj) == c.Shard()) != (uint64(s) == owner) {
				t.Fatalf("shard %d's client disagrees that %d owns %q", s, owner, obj)
			}
		}
		res, err := cs[owner].Query(client.Query{Query: "q-" + obj, Kind: deadline.Firm, Deadline: 1 << 20, MinUseful: 1})
		if err != nil || len(res.Answers) != 1 || res.Answers[0] != strconv.Itoa(100+i) {
			t.Fatalf("%q read back %v (%v) through shard %d", obj, res.Answers, err, owner)
		}
	}
	var applied uint64
	for i, s := range tg.nodes {
		n := s.Metrics.Snapshot().SamplesApplied
		if n == 0 {
			t.Errorf("shard %d applied no samples", i)
		}
		applied += n
	}
	if applied != uint64(4*len(cs)) {
		t.Errorf("cross-shard sum: %d samples applied, %d sent", applied, 4*len(cs))
	}
	tg.finish(t)
}

// SHARD-002: a shard listener's metrics reply leads with its identity rows
// (shard, shards) before a primary's ordered rows, and its wal_seq is its own
// shard's log.
func shardMetricsRows(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	for i, sh := range tg.shards {
		m := sh.metrics(t)
		want := append([]string{"shard", "shards"}, serverRowNames...)
		want = append(append(want, wireRowNames...), primaryRowNames...)
		if got := rowNames(m); !slices.Equal(got, want) {
			t.Errorf("listener %d rows\n got %q\nwant %q", i, got, want)
		}
		mm := m.Map()
		if mm["shard"] != uint64(i) || mm["shards"] != uint64(len(tg.shards)) || mm["wal_seq"] != sh.log.Seq() || mm["wal_seq"] == 0 {
			t.Errorf("listener %d: shard %d shards %d wal_seq %d (its log %d)", i, mm["shard"], mm["shards"], mm["wal_seq"], sh.log.Seq())
		}
	}
}

// SHARD-003: each listener carries its own shard's replication stream — a
// follower of shard k replicates exactly shard k's log, and holds no object
// another shard owns.
func shardReplication(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	const k = 1
	sh := tg.shards[k]
	r := sh.follower(t, replica.Config{}, server.Config{})
	place(t, tg, shardClients(t, tg))
	caughtUp(t, r, sh.log.Seq())
	if d := sh.log.State().Diff(r.Log().State()); d != "" {
		t.Fatalf("follower state != shard %d state: %s", k, d)
	}
	for name := range r.Log().State().Images {
		if owner := rtwire.ShardOf(name, len(tg.shards)); owner != k {
			t.Fatalf("follower of shard %d holds %q, owned by shard %d", k, name, owner)
		}
	}
}

// REPL-004: a standby subscriber whose link stops absorbing bytes costs only
// its own queue. Replication keeps applying and acking behind it — the
// primary's repl_durable watermark, which failover durability rests on, does
// not freeze — Promote returns, and once the link heals the subscriber's
// audit arithmetic explains every cursor it did not get.
func replStalledSubscriber(t *testing.T, mk maker) {
	tg := mk(t, setup{opt: netserve.Options{WriteTimeout: time.Hour}})
	tg.advance(t, 1)
	rc := tg.raw(t, "sub", true)
	rc.write(rtwire.SubOpen{ID: 1, Query: "status_q", Period: 1, Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1, Depth: 4}.Encode())
	ack := expectSubAck(t, rc, nil)
	if ack.State != rtwire.SubAdmitted {
		t.Fatalf("SubOpen ack: %+v", ack)
	}
	// Every append leaps the horizon five chronons: five ticks due per
	// batch against a queue of four.
	tg.fab.StallAll(tg.addr, "sub")
	p := tg.primary
	at := p.log.State().LastAt
	for i := 0; i < 8; i++ {
		at += 5
		must(t, p.log.Append(wal.Sample(at, "temp", "30")))
	}
	tg.awaitAcked(t)
	promoted := make(chan error, 1)
	go func() { _, err := tg.r.Promote(); promoted <- err }()
	select {
	case err := <-promoted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Promote blocked on a stalled standby client")
	}
	// Every tick up to the acked horizon was scheduled before its batch was
	// acked, and drop-oldest never sheds the newest: the stream ends on the
	// last tick's cursor.
	tg.fab.Heal()
	final := uint64(at - ack.Chronon)
	var received uint64
	var last rtwire.Push
	for last.Cursor < final {
		switch m := rc.read().(type) {
		case rtwire.Push:
			if m.Cursor <= last.Cursor {
				t.Fatalf("cursor %d after %d", m.Cursor, last.Cursor)
			}
			received, last = received+1, m
		case rtwire.PromoteInfo:
		default:
			t.Fatalf("want a push, got %T %+v", m, m)
		}
	}
	if last.Dropped == 0 || received != last.Cursor-last.Dropped-last.Expired {
		t.Errorf("audit: received %d, last push %+v", received, last)
	}
	rc.nc.Close()
	tg.finish(t)
	if got := tg.srv.Metrics.PushScheduled.Load(); got != final {
		t.Errorf("push_scheduled %d, want %d", got, final)
	}
}

// REPL-005: Promote flips a standby's server in place under its running
// listener. A client holding a soft subscription there, which made a
// degraded read, keeps its connection — no redial, no resubscribe. On it a
// sample and a firm query succeed, the subscription's cursors run on without
// a gap while its pushes stop being Degraded, and the alarm rule, installed
// at the flip and never before, fires for the samples taken after it and
// logs the firings. The books close.
func replPlannedPromotion(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	tg.advance(t, 4)
	c := tg.client(t)
	h, err := tg.subscribe(t, client.SubSpec{Query: "status_q", Period: 2, Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1})
	must(t, err)
	sub := h.(*tcpHandle).sub
	soft := client.Query{Query: "status_q", Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1}
	if res, err := c.Query(soft); err != nil || !res.Evaluated || c.Stats.Degraded.Load() != 1 {
		t.Fatalf("degraded read on the standby: %+v, err %v, degraded %d", res, err, c.Stats.Degraded.Load())
	}
	var cursor uint64
	expect := func(n int, degraded bool) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case p := <-sub.Pushes():
				if p.Cursor != cursor+1 || p.Dropped != 0 || p.Expired != 0 || p.Degraded != degraded {
					t.Fatalf("push after cursor %d: %+v, want the next cursor, degraded %v", cursor, p, degraded)
				}
				cursor = p.Cursor
			case <-time.After(5 * time.Second):
				t.Fatalf("no push after cursor %d", cursor)
			}
		}
	}
	tg.advance(t, 4) // two ticks
	expect(2, true)
	m := &tg.srv.Metrics
	before := tg.log.Seq()
	if got := m.RuleFirings.Load(); got != 0 {
		t.Fatalf("the rule fired %d times while the node followed", got)
	}
	if _, err := tg.r.Promote(); err != nil {
		t.Fatal(err)
	}
	tg.advanceByClient(t, 4)
	expect(2, false)
	if res, err := c.Query(client.Query{Query: "status_q", Kind: deadline.Firm, Deadline: 1 << 20, MinUseful: 1}); err != nil || !res.Evaluated || res.Missed {
		t.Fatalf("firm query on the promoted node: %+v, err %v", res, err)
	}
	logged := 0
	for _, p := range payloads(t, tg.log, tg.log.Seq())[before:] {
		if e, ok := wal.DecodeEvent(p); ok && e.Kind == wal.KindFiring {
			logged++
		}
	}
	if m.SamplesApplied.Load() != 4 || m.RuleFirings.Load() != 4 || logged != 4 {
		t.Errorf("after the flip: %d samples applied, %d rule firings, %d logged; want 4 each",
			m.SamplesApplied.Load(), m.RuleFirings.Load(), logged)
	}
	if re, rs := c.Stats.Redials.Load(), c.Stats.Resubscribes.Load(); re != 0 || rs != 0 {
		t.Errorf("the promotion cost %d redials and %d resubscribes", re, rs)
	}
	tg.finish(t, h)
}

// REPL-006: a listener speaks on an idle replication link only to echo its
// follower's beacons. A caught-up follower that stays silent hears nothing
// for two listener intervals (of the three after which it is cut), and the
// echo of its Heartbeat carries the replication watermark — never the log's
// tail, which runs ahead of it by events the follower has not acked.
func replSenderOnlyEchoes(t *testing.T, mk maker) {
	const iv = 100 * time.Millisecond
	tg := mk(t, setup{opt: netserve.Options{HeartbeatInterval: iv}})
	tg.client(t)
	rc := rawFollower(t, tg)
	if msg, err := rc.next(2 * iv); !isTimeout(err) {
		t.Fatalf("a silent caught-up follower was sent %+v (%v)", msg, err)
	}
	echo := func() uint64 {
		t.Helper()
		rc.write(rtwire.Heartbeat{}.Encode())
		hb, ok := rc.read().(rtwire.Heartbeat)
		if !ok {
			t.Fatal("a beacon was answered with something other than its echo")
		}
		return hb.Seq
	}
	if seq := echo(); seq != tg.log.Seq() || seq != tg.ns.ReplDurable() {
		t.Fatalf("caught-up echo Seq %d, want the acked tail %d (ReplDurable %d)", seq, tg.log.Seq(), tg.ns.ReplDurable())
	}
	before := tg.log.Seq()
	tg.advance(t, 1)
	if b, ok := rc.read().(rtwire.WalBatch); !ok || b.FirstSeq != before+1 {
		t.Fatalf("the append shipped %+v, want a batch from seq %d", b, before+1)
	}
	if seq := echo(); seq != tg.ns.ReplDurable() || seq >= tg.log.Seq() {
		t.Fatalf("echo Seq %d, want ReplDurable %d, behind the unacked tail %d", seq, tg.ns.ReplDurable(), tg.log.Seq())
	}
}

// REPL-007: a standby refuses writes until Promote, which bumps the fencing
// epoch durably; the promoted node takes writes and logs them, and its log,
// reopened, carries the new epoch and every write. The books close on both
// roles: the refused sample is counted rejected, never in.
func replPromotionFences(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	tg.advance(t, 4)
	sess := tg.srv.Session(0)
	if err := sess.InjectSample("temp", "pre"); !errors.Is(err, server.ErrReadOnly) {
		t.Fatalf("the standby took a write: %v, want ErrReadOnly", err)
	}
	epoch, err := tg.r.Promote()
	if err != nil || epoch < 2 {
		t.Fatalf("Promote = %d, %v", epoch, err)
	}
	select {
	case <-tg.r.Promoted():
	default:
		t.Fatal("Promoted channel not closed")
	}
	seq := tg.log.Seq()
	if err := sess.InjectSample("temp", "post"); err != nil {
		t.Fatalf("the promoted node refused a write: %v", err)
	}
	must(t, sess.Flush())
	tg.finish(t)
	l, err := wal.Open(wal.Options{Dir: "rwal", FS: tg.rfs})
	must(t, err)
	defer l.Close()
	if l.Epoch() != epoch || l.Seq() != seq+1 {
		t.Fatalf("reopened at epoch %d seq %d, want %d and %d", l.Epoch(), l.Seq(), epoch, seq+1)
	}
}

// REPL-008: a listener sends nothing on an idle replication link of its own
// accord, so a caught-up follower holds its one connection on its own
// beacons alone: the listener echoes each, and neither end's silence bound
// fires however long nothing is written.
func replIdleLinkHolds(t *testing.T, mk maker) {
	const iv = 100 * time.Millisecond
	tg := mk(t, setup{opt: netserve.Options{HeartbeatInterval: iv}})
	tg.advance(t, 4)
	r := tg.follower(t, replica.Config{Client: client.Options{HeartbeatInterval: iv}}, nodeConfig(nil))
	caughtUp(t, r, tg.log.Seq())
	accepted, reconnects := tg.ns.Wire.ConnsAccepted.Load(), r.Server().Repl.Reconnects.Load()
	time.Sleep(6 * iv) // twice the listener's silence bound
	if got := r.Server().Repl.Reconnects.Load(); got != reconnects {
		t.Errorf("repl_reconnects %d → %d while idle, want unchanged", reconnects, got)
	}
	if got := tg.ns.Wire.ConnsAccepted.Load(); got != accepted {
		t.Errorf("the listener accepted %d more connections while idle", got-accepted)
	}
	if tg.ns.Wire.HeartbeatsIn.Load() == 0 {
		t.Error("the listener echoed no follower beacon on the idle link")
	}
}

// REPL-009: a standby with PromoteAfter set promotes itself, at a redial of
// its follow stream, once its primary has been gone that long — once, into a
// new epoch.
func replWatchdogPromotes(t *testing.T, mk maker) {
	tg := mk(t, setup{promote: 200 * time.Millisecond})
	tg.advance(t, 4)
	tg.primary.close()
	select {
	case <-tg.r.Promoted():
	case <-time.After(10 * time.Second):
		t.Fatal("the standby never promoted after its primary vanished")
	}
	if n, e := tg.srv.Repl.Promotions.Load(), tg.r.Epoch(); n != 1 || e < 2 {
		t.Fatalf("repl_promotions %d epoch %d, want 1 and ≥ 2", n, e)
	}
}

// REPL-013: PromoteAfter measures a silence only the follower's beacons
// bound — an idle primary says nothing but their echoes — so Open refuses it
// with the beacons off, naming Client.HeartbeatInterval, and only then.
func replPromoteAfterNeedsBeacons(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	open := func(after time.Duration) (*replica.Replica, error) {
		return replica.Open(replica.Config{Primary: tg.primary.addr, WAL: wal.Options{Dir: "w", FS: faultfs.NewMem(5)},
			PromoteAfter: after, Client: client.Options{HeartbeatInterval: -1}}, nodeConfig(nil))
	}
	if r, err := open(time.Second); err == nil || !strings.Contains(err.Error(), "HeartbeatInterval") {
		if r != nil {
			r.Close()
		}
		t.Fatalf("Open with PromoteAfter and no beacons: %v, want a refusal naming Client.HeartbeatInterval", err)
	}
	r, err := open(0) // manual promotion needs no beacons
	must(t, err)
	r.Close()
}

// REPL-014: a follower this log cannot extend — past its tail, or behind
// what Compact left — is refused with Err{CodeStale}, shipped nothing, and
// moves no watermark: repl_durable stays at or below wal_seq. A replica of
// such a primary applies nothing and keeps re-subscribing; refused at once,
// it hears no silence and does not promote, however long past PromoteAfter.
func replRefusedFollower(t *testing.T, mk maker) {
	const promoteAfter = 100 * time.Millisecond
	tg := mk(t, setup{wal: wal.Options{SegmentSize: 256, SnapshotEvery: 1 << 20}})
	tg.advance(t, 40)
	watermark := func(stage string) {
		t.Helper()
		if mm := tg.metrics(t).Map(); mm["repl_durable"] > mm["wal_seq"] {
			t.Errorf("%s: repl_durable %d past wal_seq %d", stage, mm["repl_durable"], mm["wal_seq"])
		}
	}
	refused := func(afterSeq uint64, why error) {
		t.Helper()
		rc := tg.raw(t, "raw-follower", true)
		defer rc.nc.Close()
		rc.write(rtwire.Subscribe{AfterSeq: afterSeq, Follower: "raw"}.Encode())
		if msg := rc.read(); msg != (rtwire.Err{Code: rtwire.CodeStale, Msg: why.Error()}) {
			t.Errorf("Subscribe after %d: %+v, want Err{CodeStale, %q}", afterSeq, msg, why)
		} else if msg, err := rc.next(100 * time.Millisecond); !isTimeout(err) {
			t.Errorf("Subscribe after %d: %+v (%v) after the refusal, want nothing", afterSeq, msg, err)
		}
		watermark("Subscribe after " + strconv.FormatUint(afterSeq, 10))
	}
	refused(tg.log.Seq()+1000, wal.ErrSeqFuture)
	must(t, tg.log.Snapshot())
	must(t, tg.log.Compact())
	refused(0, wal.ErrSeqCompacted)
	r := tg.follower(t, replica.Config{PromoteAfter: promoteAfter}, nodeConfig(nil))
	time.Sleep(5 * promoteAfter)
	await(t, "the refused replica re-subscribing", func() bool { return r.Server().Repl.Reconnects.Load() >= 3 })
	if rs := r.Server(); r.Seq() != 0 || rs.Repl.EventsApplied.Load() != 0 || rs.Role() != rtwire.RoleStandby || rs.Repl.Promotions.Load() != 0 {
		t.Fatalf("a refused replica: seq %d, %d events applied, role %v", r.Seq(), rs.Repl.EventsApplied.Load(), rs.Role())
	}
	watermark("a refused replica")
}

// stallFS is a follower's own slow disk: while armed, every fsync takes a
// second.
type stallFS struct {
	faultfs.FS
	armed atomic.Bool
}

func (s *stallFS) OpenWrite(name string) (faultfs.File, error) {
	f, err := s.FS.OpenWrite(name)
	return stallFile{f, s}, err
}

func (s *stallFS) Create(name string) (faultfs.File, error) {
	f, err := s.FS.Create(name)
	return stallFile{f, s}, err
}

type stallFile struct {
	faultfs.File
	fs *stallFS
}

func (f stallFile) Sync() error {
	if f.fs.armed.Load() {
		time.Sleep(time.Second)
	}
	return f.File.Sync()
}

// REPL-010: a follower whose own fsync stalls for longer than PromoteAfter,
// mid-apply, has not heard silence from its primary — it was not waiting on
// it. Its link holds, and it neither re-subscribes nor promotes itself
// against the live primary.
func replOwnApplyIsNotSilence(t *testing.T, mk maker) {
	const iv = 100 * time.Millisecond
	tg := mk(t, setup{opt: netserve.Options{HeartbeatInterval: iv}})
	tg.advance(t, 4)
	fs := &stallFS{FS: faultfs.NewMem(4)}
	r := tg.follower(t, replica.Config{
		WAL:    wal.Options{Dir: "fwal", FS: fs, SegmentSize: 2048, SnapshotEvery: 32, Sync: true},
		Client: client.Options{HeartbeatInterval: iv}, PromoteAfter: 3 * iv,
	}, nodeConfig(nil))
	caughtUp(t, r, tg.log.Seq())
	epoch, reconnects := r.Epoch(), r.Server().Repl.Reconnects.Load()
	fs.armed.Store(true)
	tg.advance(t, 1)
	caughtUp(t, r, tg.log.Seq())
	fs.armed.Store(false)
	time.Sleep(2 * iv) // room for a promotion the stall set off
	if got := r.Epoch(); got != epoch {
		t.Errorf("epoch %d → %d: the follower promoted against a live primary", epoch, got)
	}
	if got := r.Server().Repl.Reconnects.Load(); got != reconnects {
		t.Errorf("repl_reconnects %d → %d across its own slow fsync, want unchanged", reconnects, got)
	}
}
