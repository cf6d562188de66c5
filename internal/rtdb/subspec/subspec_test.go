package subspec

import (
	"net"
	"strconv"
	"testing"
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
	"rtc/internal/rtdb/sub"
	"rtc/internal/timeseq"
)

// push is the transport-neutral view of one delivered tick. dropped and
// expired are the cumulative per-attachment tallies the push carried.
type push struct {
	cursor, dropped, expired uint64
	answers                  []string
}

// handle is one attached subscription as a spec sees it.
type handle interface {
	// next returns the next delivered push; ok is false when none arrives
	// within d (or the subscription ended).
	next(d time.Duration) (push, bool)
	// seen is the newest cursor known client-side — the resume point.
	seen() uint64
	// tallies is the newest cumulative server-side (dropped, expired)
	// counts known client-side — tracked even when the pushes carrying
	// them were shed locally, so the audit closes through consumer lag.
	tallies() (dropped, expired uint64)
	// lost counts pushes the transport shed client-side (the consumer
	// lagged); zero on transports without a client-side buffer stage.
	lost() uint64
	// cancel detaches the subscription; delivery must stop.
	cancel(t *testing.T)
}

// env is one transport under test.
type env interface {
	// subscribe attaches a standing query (client.SubSpec is the shared
	// envelope vocabulary); a refused envelope returns an error.
	subscribe(t *testing.T, s client.SubSpec) (handle, error)
	// advance applies n samples (temp=30) and blocks until they are applied
	// — every tick they make due is scheduled by the time it returns.
	advance(t *testing.T, n int)
	// reconnect severs the transport under its live handles and restores
	// the same node; it returns once every handle is reattached.
	reconnect(t *testing.T, hs ...handle)
	// failover kills the node and promotes its successor; it returns once
	// every handle is reattached there.
	failover(t *testing.T, hs ...handle)
	// finish cancels hs, tears the transport down, and checks the push
	// conservation books on every node the spec touched.
	finish(t *testing.T, hs ...handle)
}

func statusDerive(src map[string]rtdb.Value) rtdb.Value {
	v, _ := strconv.Atoi(src["temp"])
	l, _ := strconv.Atoi(src["limit"])
	if v > l {
		return "high"
	}
	return "ok"
}

// nodeConfig is the catalog every node in the suite serves; with temp=30
// against limit=22, status_q answers "high".
func nodeConfig(l *wal.Log) server.Config {
	return server.Config{
		Spec: rtdb.Spec{
			Invariants: map[string]rtdb.Value{"limit": "22"},
			Derived: []*rtdb.DerivedObject{{
				Name: "status", Sources: []string{"temp", "limit"}, Derive: statusDerive,
			}},
			Images: []*rtdb.ImageObject{{Name: "temp", Period: 5}},
		},
		Catalog: rtdb.Catalog{
			"status_q": func(v *rtdb.View) []rtdb.Value {
				if s, ok := v.DeriveNow("status"); ok {
					return []rtdb.Value{s}
				}
				return nil
			},
		},
		Registry: rtdb.DeriveRegistry{"status": statusDerive},
		Sessions: 4,
		Log:      l,
	}
}

func checkBooks(t *testing.T, node string, m server.MetricsSnapshot) {
	t.Helper()
	if m.PushAccounted() != m.PushScheduled {
		t.Errorf("%s: push conservation: scheduled %d != accounted %d (pushed %d dropped %d expired %d)",
			node, m.PushScheduled, m.PushAccounted(), m.Pushed, m.PushDropped, m.PushExpired)
	}
	if m.SubsOpened != m.SubsClosed {
		t.Errorf("%s: subs opened %d != closed %d after teardown", node, m.SubsOpened, m.SubsClosed)
	}
}

// ---------------------------------------------------------------- loopback

type lbHandle struct {
	e        *lbEnv
	spec     client.SubSpec
	ss       *server.ServerSub
	cur      uint64
	drp, exp uint64
	done     bool
}

type lbEnv struct {
	log     *wal.Log
	srv     *server.Server
	servers []*server.Server
}

func newLoopbackEnv(t *testing.T, _ bool) env {
	t.Helper()
	l, err := wal.Open(wal.Options{
		Dir: "wal", FS: faultfs.NewMem(1), SegmentSize: 1 << 16, SnapshotEvery: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(nodeConfig(l))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	e := &lbEnv{log: l, srv: s, servers: []*server.Server{s}}
	t.Cleanup(func() { s.Stop() })
	return e
}

func toSubSpec(s client.SubSpec) sub.Spec {
	return sub.Spec{
		Query: s.Query, Period: s.Period, Kind: s.Kind,
		Deadline: s.Deadline, MinUseful: s.MinUseful,
	}
}

func (e *lbEnv) subscribe(t *testing.T, s client.SubSpec) (handle, error) {
	ss, err := e.srv.Subscribe(toSubSpec(s), 0, int(s.Depth))
	if err != nil {
		return nil, err
	}
	return &lbHandle{e: e, spec: s, ss: ss}, nil
}

func (e *lbEnv) advance(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := e.srv.Session(0).InjectSample("temp", "30"); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.srv.Session(0).Flush(); err != nil {
		t.Fatal(err)
	}
}

// reconnect models a connection loss on the in-process transport: the
// attachment dies (its queued pushes are accounted dropped, exactly like a
// netserve pump teardown) and the consumer reattaches with the cursor it
// holds — the client package automates this same dance over TCP.
func (e *lbEnv) reconnect(t *testing.T, hs ...handle) {
	t.Helper()
	for _, h := range hs {
		e.reattach(t, h.(*lbHandle))
	}
}

// failover: the node dies and a successor recovers from the same WAL; the
// consumer reattaches its held cursor there.
func (e *lbEnv) failover(t *testing.T, hs ...handle) {
	t.Helper()
	e.srv.Stop()
	for _, h := range hs {
		// The dead node's attachment: queued pushes are accounted dropped.
		if _, err := h.(*lbHandle).ss.Cancel(); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := server.New(nodeConfig(e.log))
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	e.srv = s2
	e.servers = append(e.servers, s2)
	t.Cleanup(func() { s2.Stop() })
	for _, h := range hs {
		lh := h.(*lbHandle)
		ss, err := e.srv.Subscribe(toSubSpec(lh.spec), lh.cur, int(lh.spec.Depth))
		if err != nil {
			t.Fatalf("failover reattach: %v", err)
		}
		lh.ss = ss
	}
}

func (e *lbEnv) reattach(t *testing.T, lh *lbHandle) {
	t.Helper()
	if _, err := lh.ss.Cancel(); err != nil {
		t.Fatal(err)
	}
	ss, err := e.srv.Subscribe(toSubSpec(lh.spec), lh.cur, int(lh.spec.Depth))
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	lh.ss = ss
}

func (e *lbEnv) finish(t *testing.T, hs ...handle) {
	t.Helper()
	for _, h := range hs {
		h.cancel(t)
	}
	e.srv.Stop()
	for i, s := range e.servers {
		checkBooks(t, "node "+strconv.Itoa(i), s.Metrics.Snapshot())
	}
}

func (h *lbHandle) next(d time.Duration) (push, bool) {
	end := time.Now().Add(d)
	for {
		p, dropped, ok := h.ss.Pop()
		if ok {
			h.cur = p.Cursor
			h.drp, h.exp = dropped, p.Expired
			return push{cursor: p.Cursor, dropped: dropped, expired: p.Expired, answers: p.Answers}, true
		}
		remain := time.Until(end)
		if remain <= 0 {
			return push{}, false
		}
		select {
		case <-h.ss.Notify():
		case <-time.After(remain):
		}
	}
}

func (h *lbHandle) seen() uint64 { return h.cur }

// The loopback consumer pops straight off the server queue, so the last
// pop's stamps are exact once the handle is drained to quiescence.
func (h *lbHandle) tallies() (uint64, uint64) { return h.drp, h.exp }
func (h *lbHandle) lost() uint64              { return 0 }

func (h *lbHandle) cancel(t *testing.T) {
	t.Helper()
	if h.done {
		return
	}
	h.done = true
	if _, err := h.ss.Cancel(); err != nil {
		t.Fatal(err)
	}
}

// --------------------------------------------------------------------- tcp

type tcpHandle struct {
	sub *client.Subscription
}

func (h *tcpHandle) next(d time.Duration) (push, bool) {
	select {
	case p, ok := <-h.sub.Pushes():
		if !ok {
			return push{}, false
		}
		return push{cursor: p.Cursor, dropped: p.Dropped, expired: p.Expired, answers: p.Answers}, true
	case <-time.After(d):
		return push{}, false
	}
}

func (h *tcpHandle) seen() uint64              { return h.sub.Cursor() }
func (h *tcpHandle) tallies() (uint64, uint64) { return h.sub.Tallies() }
func (h *tcpHandle) lost() uint64              { return h.sub.LocalDrops() }

func (h *tcpHandle) cancel(t *testing.T) {
	t.Helper()
	if err := h.sub.Close(); err != nil {
		t.Fatal(err)
	}
}

type tcpEnv struct {
	log   *wal.Log
	srv   *server.Server // the primary
	ns    *netserve.Server
	addrP string
	r     *replica.Replica
	addrS string
	c     *client.Client
}

// startPrimary stands up the suite's WAL-backed primary on a loopback port.
func startPrimary(t *testing.T) *tcpEnv {
	t.Helper()
	l, err := wal.Open(wal.Options{
		Dir: "wal", FS: faultfs.NewMem(1), SegmentSize: 1 << 16, SnapshotEvery: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(nodeConfig(l))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	e := &tcpEnv{log: l, srv: s}
	e.ns = netserve.New(s, netserve.Options{})
	addr, err := e.ns.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e.addrP = addr.String()
	t.Cleanup(func() {
		if e.c != nil {
			_ = e.c.Close()
		}
		_ = e.ns.Close()
		s.Stop()
		if e.r != nil {
			_ = e.r.Close()
		}
	})
	return e
}

// startReplica opens a replica tailing e's primary; the caller gives it a
// listener.
func (e *tcpEnv) startReplica(t *testing.T) {
	t.Helper()
	r, err := replica.Open(replica.Config{
		Primary: e.addrP,
		WAL:     wal.Options{Dir: "rwal", FS: faultfs.NewMem(2), SegmentSize: 1 << 16, SnapshotEvery: 1 << 20},
		Client: client.Options{Name: "subspec-follower",
			RetryBackoff: time.Millisecond, RetryBackoffMax: 20 * time.Millisecond,
			Seed: 11, HeartbeatInterval: 10 * time.Second / 3,
		},
	}, nodeConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	e.r = r
}

// dial connects the suite's client to ring.
func (e *tcpEnv) dial(t *testing.T, ring string, d faultnet.Dialer) {
	t.Helper()
	c, err := client.Dial(ring, client.Options{
		Name:          "subspec",
		RetryAttempts: 100, RetryBackoff: 5 * time.Millisecond,
		RetryBackoffMax: 50 * time.Millisecond, DialTimeout: 2 * time.Second,
		Dialer: d,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.c = c
}

func newTCPEnv(t *testing.T, failover bool) env {
	t.Helper()
	e := startPrimary(t)
	ring := e.addrP
	if failover {
		e.startReplica(t)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.r.ServeOn(ln, netserve.Options{}); err != nil {
			t.Fatal(err)
		}
		e.addrS = ln.Addr().String()
		ring = e.addrP + "," + e.addrS
	}
	e.dial(t, ring, nil)
	return e
}

func (e *tcpEnv) subscribe(t *testing.T, s client.SubSpec) (handle, error) {
	cs, err := e.c.Subscribe(s)
	if err != nil {
		return nil, err
	}
	return &tcpHandle{sub: cs}, nil
}

func (e *tcpEnv) advance(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := e.c.InjectSample("temp", "30"); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// waitResubscribed blocks until the client's automatic resume has
// reattached want more subscriptions.
func (e *tcpEnv) waitResubscribed(t *testing.T, base, want uint64) {
	t.Helper()
	end := time.Now().Add(10 * time.Second)
	for e.c.Stats.Resubscribes.Load() < base+want {
		if time.Now().After(end) {
			t.Fatalf("resume stalled: %d resubscribes, want %d more than %d",
				e.c.Stats.Resubscribes.Load(), want, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// reconnect kills every connection (the listener goes down and comes back
// on the same address) and waits for the client's automatic resume.
func (e *tcpEnv) reconnect(t *testing.T, hs ...handle) {
	t.Helper()
	base := e.c.Stats.Resubscribes.Load()
	if err := e.ns.Close(); err != nil {
		t.Fatal(err)
	}
	e.ns = netserve.New(e.srv, netserve.Options{})
	if _, err := e.ns.Listen(e.addrP); err != nil {
		t.Fatal(err)
	}
	e.waitResubscribed(t, base, uint64(len(hs)))
}

// failover promotes the tailing replica in place — its listener on the
// standby address keeps serving — then kills the primary; the client walks
// its ring and resumes on the successor.
func (e *tcpEnv) failover(t *testing.T, hs ...handle) {
	t.Helper()
	if e.r == nil {
		t.Fatal("env built without a failover successor")
	}
	base := e.c.Stats.Resubscribes.Load()
	// The successor must hold everything the primary acknowledged before
	// the primary dies — promotion may lose no cursor-acknowledged push.
	if !e.r.WaitSeq(e.log.Seq(), 10*time.Second) {
		t.Fatalf("replica stuck at %d behind primary %d", e.r.Seq(), e.log.Seq())
	}
	if _, err := e.r.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := e.ns.Close(); err != nil {
		t.Fatal(err)
	}
	e.srv.Stop()
	e.waitResubscribed(t, base, uint64(len(hs)))
}

func (e *tcpEnv) finish(t *testing.T, hs ...handle) {
	t.Helper()
	for _, h := range hs {
		h.cancel(t)
	}
	if err := e.c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.ns.Close(); err != nil {
		t.Fatal(err)
	}
	e.srv.Stop()
	if e.r != nil {
		_ = e.r.Close()
		checkBooks(t, "standby", e.r.Server().Metrics.Snapshot())
	}
	checkBooks(t, "primary", e.srv.Metrics.Snapshot())
}

// ----------------------------------------------------------------- standby

// standbyEnv subscribes at a hot standby's listener while the primary it
// tails moves the clock. The listener sits on a faultnet fabric so reconnect
// can sever the link under the client; a standby cannot be failed over onto
// itself, so SUB-006 does not run here.
type standbyEnv struct {
	*tcpEnv
	fab *faultnet.Fabric
	at  timeseq.Time // timestamp of the newest appended sample
}

const standbyAddr = "standby:1"

func newStandbyEnv(t *testing.T, _ bool) env {
	t.Helper()
	e := &standbyEnv{tcpEnv: startPrimary(t), fab: faultnet.NewFabric(1)}
	t.Cleanup(e.fab.Close)
	e.at = e.log.State().LastAt
	e.startReplica(t)
	ln, err := e.fab.Listen(standbyAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.r.ServeOn(ln, netserve.Options{}); err != nil {
		t.Fatal(err)
	}
	e.dial(t, standbyAddr, e.fab.Dialer("client"))
	return e
}

// subscribe gives the client stage room for everything a spec sends, so
// whatever SUB-003 sees shed was shed by the standby's own bounded queue.
func (e *standbyEnv) subscribe(t *testing.T, s client.SubSpec) (handle, error) {
	s.Buffer = 64
	return e.tcpEnv.subscribe(t, s)
}

// advance appends n samples to the primary's log as one batch — one horizon
// leap on the standby, every tick it makes due scheduled in one sweep — and
// returns once the standby has acked them: ticks are scheduled before the ack.
func (e *standbyEnv) advance(t *testing.T, n int) {
	t.Helper()
	batch := make([]string, n)
	for i := range batch {
		e.at++
		batch[i] = string(wal.Sample(e.at, "temp", "30").Payload())
	}
	if _, err := e.log.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	seq := e.log.Seq()
	for end := time.Now().Add(10 * time.Second); e.ns.ReplDurable() < seq; {
		if time.Now().After(end) {
			t.Fatalf("standby acked %d of %d", e.ns.ReplDurable(), seq)
		}
		time.Sleep(time.Millisecond)
	}
}

// reconnect resets every client connection to the standby and waits for the
// client's automatic resume.
func (e *standbyEnv) reconnect(t *testing.T, hs ...handle) {
	t.Helper()
	base := e.c.Stats.Resubscribes.Load()
	e.fab.CutAll("client", standbyAddr)
	e.waitResubscribed(t, base, uint64(len(hs)))
}

// ------------------------------------------------------------------- specs

// base is the suite's default envelope: soft, roomy deadline, so scheduling
// noise never expires a tick a spec expects delivered.
func base() client.SubSpec {
	return client.SubSpec{
		Query: "status_q", Period: 2,
		Kind: deadline.Soft, Deadline: 50, MinUseful: 1,
		Depth: 32, Buffer: 64,
	}
}

// drain pops everything currently deliverable, returning the pushes and
// leaving the handle quiescent.
func drain(h handle, idle time.Duration) []push {
	var out []push
	for {
		p, ok := h.next(idle)
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

// SUB-001: subscribe answers exactly once — an admission for a servable
// envelope, an error for an unknown query or a dead period.
func specSubscribeAck(t *testing.T, e env) {
	h, err := e.subscribe(t, base())
	if err != nil {
		t.Fatalf("servable envelope refused: %v", err)
	}
	bad := base()
	bad.Query = "nope_q"
	if _, err := e.subscribe(t, bad); err == nil {
		t.Fatal("unknown catalog query admitted")
	}
	dead := base()
	dead.Period = 0
	if _, err := e.subscribe(t, dead); err == nil {
		t.Fatal("zero period admitted")
	}
	e.finish(t, h)
}

// SUB-002: delivery is periodic with contiguous cursors from 1 and the
// catalog's stamped answers.
func specPeriodicDelivery(t *testing.T, e env) {
	h, err := e.subscribe(t, base())
	if err != nil {
		t.Fatal(err)
	}
	e.advance(t, 8)
	var got []push
	for len(got) < 3 {
		p, ok := h.next(5 * time.Second)
		if !ok {
			t.Fatalf("stalled after %d pushes", len(got))
		}
		got = append(got, p)
	}
	for i, p := range got {
		if p.cursor != uint64(i+1) || p.dropped != 0 || p.expired != 0 {
			t.Fatalf("push %d: cursor %d dropped %d expired %d, want contiguous from 1",
				i, p.cursor, p.dropped, p.expired)
		}
		if len(p.answers) != 1 || p.answers[0] != "high" {
			t.Fatalf("push %d answers: %v", i, p.answers)
		}
	}
	e.finish(t, h)
}

// SUB-003: a reader that sleeps through a burst loses pushes to the bounded
// stages — oldest first server-side — and every loss is counted: the audit
// arithmetic closes exactly at quiescence.
func specDropOldest(t *testing.T, e env) {
	s := base()
	s.Depth = 2
	s.Buffer = 1
	h, err := e.subscribe(t, s)
	if err != nil {
		t.Fatal(err)
	}
	e.advance(t, 24)
	// The reader sleeps through the burst; the bounded stages shed.
	time.Sleep(300 * time.Millisecond)
	got := drain(h, 500*time.Millisecond)
	if len(got) == 0 {
		t.Fatal("no pushes survived the burst")
	}
	// The newest tallies come from the handle, not the last push the
	// consumer happened to receive: on a two-stage transport the pushes
	// carrying the final counts may themselves be shed locally.
	dropped, expired := h.tallies()
	if dropped+h.lost() == 0 {
		t.Fatalf("burst of %d cursors shed nothing through depth %d/buffer %d",
			h.seen(), s.Depth, s.Buffer)
	}
	if received := uint64(len(got)); received+dropped+expired+h.lost() != h.seen() {
		t.Fatalf("audit open: received %d + dropped %d + expired %d + local %d != seen %d",
			received, dropped, expired, h.lost(), h.seen())
	}
	e.finish(t, h)
}

// SUB-004: cancel stops delivery; the held cursor is the resume point.
func specCancel(t *testing.T, e env) {
	h, err := e.subscribe(t, base())
	if err != nil {
		t.Fatal(err)
	}
	e.advance(t, 6)
	if _, ok := h.next(5 * time.Second); !ok {
		t.Fatal("no push before cancel")
	}
	drain(h, 300*time.Millisecond)
	h.cancel(t)
	e.advance(t, 6)
	if p, ok := h.next(400 * time.Millisecond); ok {
		t.Fatalf("push after cancel: %+v", p)
	}
	e.finish(t, h)
}

// resumeShape drives the shared body of SUB-005/006: deliver, sever (via
// sever), and verify continuity — the first push after resume is exactly
// held-cursor+1 with fresh tallies: nothing replayed, nothing skipped.
func resumeShape(t *testing.T, e env, sever func(t *testing.T, hs ...handle)) {
	h, err := e.subscribe(t, base())
	if err != nil {
		t.Fatal(err)
	}
	e.advance(t, 8)
	if _, ok := h.next(5 * time.Second); !ok {
		t.Fatal("no push before severing")
	}
	drain(h, 400*time.Millisecond)
	held := h.seen()
	if held == 0 {
		t.Fatal("no cursor held")
	}

	sever(t, h)

	e.advance(t, 8)
	p, ok := h.next(5 * time.Second)
	if !ok {
		t.Fatal("no push after resume")
	}
	if p.cursor != held+1 {
		t.Fatalf("resumed at cursor %d, held %d — want exactly held+1", p.cursor, held)
	}
	if p.dropped != 0 || p.expired != 0 {
		t.Fatalf("resumed push carries stale tallies: %+v", p)
	}
	if len(p.answers) != 1 || p.answers[0] != "high" {
		t.Fatalf("resumed push answers: %v (state lost across the seam?)", p.answers)
	}
	if q, ok := h.next(5 * time.Second); ok && q.cursor <= p.cursor {
		t.Fatalf("cursors not increasing after resume: %d then %d", p.cursor, q.cursor)
	}
	e.finish(t, h)
}

// SUB-005: resume after a reconnect to the same node.
func specResumeReconnect(t *testing.T, e env) {
	resumeShape(t, e, e.reconnect)
}

// SUB-006: resume after a failover onto the promoted successor.
func specResumeFailover(t *testing.T, e env) {
	resumeShape(t, e, e.failover)
}

// ------------------------------------------------------------------- suite

var specList = []struct {
	id       string
	failover bool // env needs a promotable successor
	run      func(t *testing.T, e env)
}{
	{"SUB-001_subscribe_ack", false, specSubscribeAck},
	{"SUB-002_periodic_delivery", false, specPeriodicDelivery},
	{"SUB-003_drop_oldest", false, specDropOldest},
	{"SUB-004_cancel", false, specCancel},
	{"SUB-005_resume_reconnect", false, specResumeReconnect},
	{"SUB-006_resume_failover", true, specResumeFailover},
}

func TestSubSpecs(t *testing.T) {
	transports := []struct {
		name     string
		failover bool // the transport has a successor to fail over onto
		mk       func(t *testing.T, failover bool) env
	}{
		{"loopback", true, newLoopbackEnv},
		{"tcp", true, newTCPEnv},
		{"standby", false, newStandbyEnv},
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			for _, sp := range specList {
				if sp.failover && !tr.failover {
					continue
				}
				t.Run(sp.id, func(t *testing.T) {
					sp.run(t, tr.mk(t, sp.failover))
				})
			}
		})
	}
}
