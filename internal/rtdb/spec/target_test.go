package spec

import (
	"bufio"
	"net"
	"strconv"
	"testing"
	"time"

	"rtc/internal/faultfs"
	"rtc/internal/faultnet"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/replica"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtdb/sub"
	"rtc/internal/rtwire"
)

func statusDerive(src map[string]rtdb.Value) rtdb.Value {
	v, _ := strconv.Atoi(src["temp"])
	l, _ := strconv.Atoi(src["limit"])
	if v > l {
		return "high"
	}
	return "ok"
}

// nodeConfig is the catalog every node in the suite serves; with temp=30
// against limit=22, status_q answers "high" and temp_q the newest sample.
// The alarm rule fires on every temp above 25 a primary takes.
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
			"temp_q": func(v *rtdb.View) []rtdb.Value {
				if s, ok := v.Latest("temp"); ok {
					return []rtdb.Value{s.Value}
				}
				return nil
			},
		},
		Rules: []rtdb.Rule{{
			Name: "alarm", On: "sample:temp", Mode: rtdb.Immediate,
			If: func(_ *rtdb.DB, e rtdb.Event) bool {
				v, _ := strconv.Atoi(e.Attr["value"])
				return v > 25
			},
			Then: func(*rtdb.DB, rtdb.Event) {},
		}},
		Registry: rtdb.DeriveRegistry{"status": statusDerive},
		Sessions: 4,
		Log:      l,
	}
}

// setup is what a row asks of the target it runs on.
type setup struct {
	opt        netserve.Options // the listener's options
	sessions   int              // the node's session pool (0: 4)
	queueDepth int              // each session's queue (0: the default)
	evalCost   uint64           // chronons per evaluation (0: the default)
	stalled    bool             // a primary's apply loop waits for the row to start it
	noWAL      bool             // a primary that serves without a log
	wal        wal.Options      // the node's log options beyond Dir and FS
	failover   bool             // a promotable successor stands by (SUB-006)
	promote    time.Duration    // a standby's PromoteAfter
}

// config is the suite's node configuration as s asks for it, over l.
func (s setup) config(l *wal.Log) server.Config {
	cfg := nodeConfig(l)
	if s.sessions > 0 {
		cfg.Sessions = s.sessions
	}
	cfg.QueueDepth, cfg.EvalCost = s.queueDepth, s.evalCost
	return cfg
}

// target is one way the serving stack is reached: the node under test, the
// listener it is served on (none in process), and how the suite drives it.
type target struct {
	srv     *server.Server     // the node under test
	log     *wal.Log           // its log, nil when WAL-less
	ns      *netserve.Server   // its listener, nil in process
	addr    string             // the listener's address
	fab     *faultnet.Fabric   // the fabric the listener sits on, nil for TCP
	r       *replica.Replica   // the standby behind the listener, before or after promotion
	rfs     *faultfs.Mem       // the standby's file system
	primary *target            // the primary a standby tails
	standby bool               // the node serves read-only, as a follower
	c       *client.Client     // the suite's client, dialled on first use
	nodes   []*server.Server   // every node whose books must close at teardown
	nets    []*netserve.Server // every listener whose books must close at teardown
	shards  []*target          // the shards target's listeners, by shard index
	closers []func()           // teardown, newest first
	advance func(*testing.T, int)
	// sever and failover move live subscriptions across a lost link and
	// onto a promoted successor; nil where the target cannot.
	sever    func(*testing.T, ...handle)
	failover func(*testing.T, ...handle)
}

// targets is the driver's constructor for each target name, in run order.
var targets = []struct {
	name string
	mk   maker
}{
	{"inproc", newInproc},
	{"tcp", newTCP},
	{"faultnet", newFaultnet},
	{"standby", newStandby},
	{"promoted", newPromoted},
	{"shards", newShards},
}

// maker builds a fresh target of the row's kind; a row may build several.
type maker func(*testing.T, setup) *target

// memLog opens a log in memory, with the suite's segment and snapshot sizes
// unless opt names its own.
func memLog(t *testing.T, seed uint64, opt wal.Options) *wal.Log {
	t.Helper()
	opt.Dir, opt.FS = "wal", faultfs.NewMem(seed)
	if opt.SegmentSize == 0 {
		opt.SegmentSize, opt.SnapshotEvery = 1<<16, 1<<20
	}
	l, err := wal.Open(opt)
	must(t, err)
	return l
}

func (tg *target) onClose(f func()) { tg.closers = append(tg.closers, f) }

// close tears the target down, listeners before servers; it is idempotent
// and also runs at cleanup, before audit.
func (tg *target) close() {
	for i := len(tg.closers) - 1; i >= 0; i-- {
		tg.closers[i]()
	}
	tg.closers = nil
}

func newTarget(t *testing.T) *target {
	tg := &target{}
	t.Cleanup(func() {
		tg.close()
		tg.audit(t)
	})
	return tg
}

// node starts a server as s asks over l and appends it to the books.
func (tg *target) node(t *testing.T, s setup, l *wal.Log) *server.Server {
	t.Helper()
	srv, err := server.New(s.config(l))
	must(t, err)
	if !s.stalled {
		srv.Start()
	}
	tg.nodes = append(tg.nodes, srv)
	tg.onClose(srv.Stop)
	return srv
}

// serve puts a listener for s on ln.
func (tg *target) serve(t *testing.T, s *server.Server, ln net.Listener, opt netserve.Options) {
	t.Helper()
	ns := netserve.New(s, opt)
	go func() { _ = ns.Serve(ln) }()
	tg.srv, tg.ns, tg.addr = s, ns, ln.Addr().String()
	tg.nets = append(tg.nets, ns)
	tg.onClose(func() { _ = ns.Close() })
}

func tcpListener(t *testing.T, addr string) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	must(t, err)
	return ln
}

// primaryOn stands up the suite's primary behind ln.
func primaryOn(t *testing.T, s setup, ln net.Listener) *target {
	t.Helper()
	tg := newTarget(t)
	if !s.noWAL {
		tg.log = memLog(t, 1, s.wal)
		tg.onClose(func() { _ = tg.log.Close() })
	}
	tg.serve(t, tg.node(t, s, tg.log), ln, s.opt)
	tg.advance = tg.advanceByClient
	return tg
}

// newInproc is the server itself: sessions and subscriptions straight onto
// it, no transport between.
func newInproc(t *testing.T, s setup) *target {
	tg := newTarget(t)
	tg.log = memLog(t, 1, s.wal)
	tg.srv = tg.node(t, s, tg.log)
	tg.advance = func(t *testing.T, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			must(t, tg.srv.Session(0).InjectSample("temp", "30"))
		}
		must(t, tg.srv.Session(0).Flush())
	}
	// A lost link on the in-process transport: the attachment dies (its
	// queued pushes are accounted dropped, exactly like a netserve pump
	// teardown) and the consumer reattaches with the cursor it holds — the
	// client package automates this same dance over TCP.
	tg.sever = func(t *testing.T, hs ...handle) {
		for _, h := range hs {
			h.(*lbHandle).reattach(t, tg.srv)
		}
	}
	// Failover: the node dies and a successor recovers from the same log;
	// the consumer reattaches its held cursor there.
	tg.failover = func(t *testing.T, hs ...handle) {
		tg.srv.Stop()
		tg.srv = tg.node(t, s, tg.log)
		for _, h := range hs {
			h.(*lbHandle).reattach(t, tg.srv)
		}
	}
	return tg
}

// newTCP is netserve on a loopback port, a WAL-backed primary unless the
// row asks for none.
func newTCP(t *testing.T, s setup) *target {
	tg := primaryOn(t, s, tcpListener(t, "127.0.0.1:0"))
	// A lost link: the listener goes down and comes back on its address.
	tg.sever = func(t *testing.T, hs ...handle) {
		base := tg.client(t).Stats.Resubscribes.Load()
		must(t, tg.ns.Close())
		tg.serve(t, tg.srv, tcpListener(t, tg.addr), s.opt)
		tg.waitResubscribed(t, base, len(hs))
	}
	if !s.failover {
		return tg
	}
	// A standby tails the primary on its own port, in the client's ring:
	// failover promotes it in place, then kills the primary, and the client
	// walks its ring and resumes there.
	sb := standbyOf(t, tg, tcpListener(t, "127.0.0.1:0"), setup{})
	tg.c = tg.dial(t, "suite", tg.addr+","+sb.addr)
	tg.failover = func(t *testing.T, hs ...handle) {
		base := tg.c.Stats.Resubscribes.Load()
		// The successor must hold everything the primary acknowledged
		// before the primary dies — promotion may lose no acked push.
		if !sb.r.WaitSeq(tg.log.Seq(), 10*time.Second) {
			t.Fatalf("standby stuck at %d behind primary %d", sb.r.Seq(), tg.log.Seq())
		}
		if _, err := sb.r.Promote(); err != nil {
			t.Fatal(err)
		}
		must(t, tg.ns.Close())
		tg.srv.Stop()
		tg.waitResubscribed(t, base, len(hs))
	}
	tg.nodes, tg.nets = append(tg.nodes, sb.nodes...), append(tg.nets, sb.nets...)
	tg.onClose(sb.close)
	return tg
}

// newFaultnet is netserve on a faultnet fabric, so a row can damage,
// partition or stall the bytes between a real client and the listener.
func newFaultnet(t *testing.T, s setup) *target {
	fab := faultnet.NewFabric(21)
	t.Cleanup(fab.Close)
	ln, err := fab.Listen("primary:1")
	must(t, err)
	tg := primaryOn(t, s, ln)
	tg.fab = fab
	tg.sever = tg.cutLinks
	return tg
}

// standbyBeacon is a standby's beacon cadence toward its primary: each of
// the suite's primaries cuts a link silent for 3 of its own default intervals.
const standbyBeacon = 10 * time.Second / 3

// standbyOf opens a replica tailing p and serves it on ln.
func standbyOf(t *testing.T, p *target, ln net.Listener, s setup) *target {
	t.Helper()
	tg := newTarget(t)
	tg.rfs = faultfs.NewMem(2)
	r, err := replica.Open(replica.Config{
		Primary: p.addr,
		WAL:     wal.Options{Dir: "rwal", FS: tg.rfs, SegmentSize: 1 << 16, SnapshotEvery: 1 << 20},
		Client: client.Options{Name: "spec-follower", Dialer: p.dialer("follower"),
			RetryBackoff: time.Millisecond, RetryBackoffMax: 20 * time.Millisecond,
			Seed: 11, HeartbeatInterval: standbyBeacon,
		},
		PromoteAfter: s.promote,
	}, s.config(nil))
	must(t, err)
	r.Start()
	tg.onClose(func() { _ = r.Close() })
	ns, err := r.ServeOn(ln, s.opt)
	must(t, err)
	tg.r, tg.srv, tg.log, tg.ns, tg.addr = r, r.Server(), r.Log(), ns, ln.Addr().String()
	tg.primary, tg.standby = p, true
	tg.nodes, tg.nets = []*server.Server{r.Server()}, []*netserve.Server{ns}
	return tg
}

// newStandby is a hot standby's listener on a fabric while the primary it
// tails moves the clock. A standby cannot be failed over onto itself.
func newStandby(t *testing.T, s setup) *target {
	p := primaryOn(t, setup{}, tcpListener(t, "127.0.0.1:0"))
	fab := faultnet.NewFabric(21)
	t.Cleanup(fab.Close)
	ln, err := fab.Listen("standby:1")
	must(t, err)
	tg := standbyOf(t, p, ln, s)
	tg.fab = fab
	tg.nodes, tg.nets = append(tg.nodes, p.nodes...), append(tg.nets, p.nets...)
	tg.onClose(p.close)
	at := p.log.State().LastAt
	// advance appends n samples to the primary's log as one batch — one
	// horizon leap on the standby, every tick it makes due scheduled in one
	// sweep — and returns once the standby has acked them: ticks are
	// scheduled before the ack.
	tg.advance = func(t *testing.T, n int) {
		t.Helper()
		batch := make([]string, n)
		for i := range batch {
			at++
			batch[i] = string(wal.Sample(at, "temp", "30").Payload())
		}
		if _, err := p.log.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		tg.awaitAcked(t)
	}
	tg.sever = tg.cutLinks
	return tg
}

// awaitAcked returns once a standby has acked its primary's whole log.
func (tg *target) awaitAcked(t *testing.T) {
	t.Helper()
	seq := tg.primary.log.Seq()
	await(t, "standby acked its primary's log", func() bool { return tg.primary.ns.ReplDurable() >= seq })
}

// newPromoted is a standby promoted in place under its running listener,
// then left alone by its deposed primary: a primary that began as a follower.
func newPromoted(t *testing.T, s setup) *target {
	tg := newStandby(t, s)
	tg.standby = false
	tg.awaitAcked(t)
	if _, err := tg.r.Promote(); err != nil {
		t.Fatal(err)
	}
	tg.primary.close()
	tg.advance = tg.advanceByClient
	return tg
}

// newShards is two shards of one deployment, one WAL-backed listener each;
// the client places every object on its owner's listener.
func newShards(t *testing.T, s setup) *target {
	const n = 2
	tg := newTarget(t)
	cfg := nodeConfig(nil)
	cfg.Spec.Images, cfg.Spec.Derived, cfg.Registry, cfg.Rules = nil, nil, nil, nil
	cfg.Catalog = rtdb.Catalog{}
	for i := 0; i < 4*n; i++ {
		name := shardObj(i)
		cfg.Spec.Images = append(cfg.Spec.Images, &rtdb.ImageObject{Name: name, Period: 5})
		cfg.Catalog["q-"+name] = func(v *rtdb.View) []rtdb.Value {
			if s, ok := v.Latest(name); ok {
				return []rtdb.Value{s.Value}
			}
			return nil
		}
	}
	logs := make([]*wal.Log, n)
	for i := range logs {
		logs[i] = memLog(t, uint64(10+i), wal.Options{Sync: true})
		tg.onClose(func() { _ = logs[i].Close() })
	}
	srvs, err := server.NewShards(cfg, n, logs)
	must(t, err)
	for i, srv := range srvs {
		srv.Start()
		tg.onClose(srv.Stop)
		sh := &target{log: logs[i]}
		opt := s.opt
		opt.Shard, opt.Shards = i, n
		sh.serve(t, srv, tcpListener(t, "127.0.0.1:0"), opt)
		tg.onClose(sh.close)
		tg.shards = append(tg.shards, sh)
		tg.nodes, tg.nets = append(tg.nodes, srv), append(tg.nets, sh.nets...)
	}
	return tg
}

func shardObj(i int) string { return "obj-0" + strconv.Itoa(i) }

// dialer is how label reaches the target: through its fabric, or plain TCP.
func (tg *target) dialer(label string) faultnet.Dialer {
	if tg.fab != nil {
		return tg.fab.Dialer(label)
	}
	return faultnet.OS{}
}

// dial connects a client named label to ring with the suite's redial walk.
func (tg *target) dial(t *testing.T, label, ring string) *client.Client {
	t.Helper()
	return tg.dialWith(t, ring, client.Options{
		Name:          label,
		RetryAttempts: 100, RetryBackoff: 5 * time.Millisecond,
		RetryBackoffMax: 50 * time.Millisecond, DialTimeout: 2 * time.Second,
	})
}

// dialWith connects a client with opt, through the target's dialer.
func (tg *target) dialWith(t *testing.T, ring string, opt client.Options) *client.Client {
	t.Helper()
	opt.Dialer = tg.dialer(opt.Name)
	c, err := client.Dial(ring, opt)
	must(t, err)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// client is the suite's client on the target, dialled on first use.
func (tg *target) client(t *testing.T) *client.Client {
	t.Helper()
	if tg.c == nil {
		tg.c = tg.dial(t, "suite", tg.addr)
	}
	return tg.c
}

// advanceByClient applies n samples (temp=30) over the wire; Flush returns
// once they are applied, so every tick they make due is scheduled.
func (tg *target) advanceByClient(t *testing.T, n int) {
	t.Helper()
	c := tg.client(t)
	for i := 0; i < n; i++ {
		must(t, c.InjectSample("temp", "30"))
	}
	must(t, c.Flush())
}

// cutLinks resets every suite client link to the listener and waits for the
// client's automatic resume.
func (tg *target) cutLinks(t *testing.T, hs ...handle) {
	base := tg.client(t).Stats.Resubscribes.Load()
	tg.fab.CutAll("suite", tg.addr)
	tg.waitResubscribed(t, base, len(hs))
}

// waitResubscribed blocks until the client's automatic resume has
// reattached want more subscriptions.
func (tg *target) waitResubscribed(t *testing.T, base uint64, want int) {
	t.Helper()
	await(t, "subscriptions resumed", func() bool {
		return tg.c.Stats.Resubscribes.Load() >= base+uint64(want)
	})
}

// subscribe attaches a standing query (client.SubSpec is the shared
// envelope vocabulary); a refused envelope returns an error.
func (tg *target) subscribe(t *testing.T, s client.SubSpec) (handle, error) {
	if tg.ns == nil {
		ss, err := tg.srv.Subscribe(toSubSpec(s), 0, int(s.Depth))
		if err != nil {
			return nil, err
		}
		return &lbHandle{spec: s, ss: ss}, nil
	}
	if tg.fab != nil {
		// Room in the client stage for everything a row sends, so whatever
		// SUB-003 sees shed was shed by the node's own bounded queue.
		s.Buffer = 64
	}
	cs, err := tg.client(t).Subscribe(s)
	if err != nil {
		return nil, err
	}
	return &tcpHandle{sub: cs}, nil
}

// finish cancels hs and tears the target down; cleanup then audits it.
func (tg *target) finish(t *testing.T, hs ...handle) {
	t.Helper()
	for _, h := range hs {
		h.cancel(t)
	}
	if tg.c != nil {
		must(t, tg.c.Close())
	}
	tg.close()
}

// audit holds every node the row touched to server.Books and every listener
// it served on to netserve.Books, once the target is torn down. A row that
// failed is not audited: it may have left anything in flight.
func (tg *target) audit(t *testing.T) {
	t.Helper()
	if t.Failed() {
		return
	}
	for i, s := range tg.nodes {
		if _, err := server.Audit("node "+strconv.Itoa(i)+": ", server.Books(), s.Metrics.Snapshot().Pairs()); err != nil {
			t.Error(err)
		}
	}
	for i, ns := range tg.nets {
		if _, err := server.Audit("listener "+strconv.Itoa(i)+": ", netserve.Books(), ns.Wire.Snapshot().Pairs()); err != nil {
			t.Error(err)
		}
	}
}

// must fails the test now on err.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// await polls cond for up to 15 s; what names the thing that never happened.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(15 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("timed out: %s", what)
		}
	}
}

// metrics fetches the listener's metrics reply over a fresh connection.
func (tg *target) metrics(t *testing.T) rtwire.Metrics {
	t.Helper()
	c := tg.dial(t, "rows-probe", tg.addr)
	defer c.Close()
	m, err := c.Metrics()
	must(t, err)
	return m
}

// ---------------------------------------------------------------- raw wire

// rawConn is a frame-level peer: it hand-crafts wire images (exact Elapsed
// values, out-of-order kinds, damaged headers) the client never produces.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

// raw dials the listener as label; hello completes the handshake.
func (tg *target) raw(t *testing.T, label string, hello bool) *rawConn {
	t.Helper()
	nc, err := tg.dialer(label).DialTimeout("tcp", tg.addr, 2*time.Second)
	must(t, err)
	t.Cleanup(func() { nc.Close() })
	rc := &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
	if hello {
		rc.write(rtwire.Hello{Client: label}.Encode())
		if w, ok := rc.read().(rtwire.Welcome); !ok || w.Role == rtwire.RoleStandby != tg.standby {
			t.Fatalf("handshake: %+v, want a Welcome as standby=%v", w, tg.standby)
		}
	}
	return rc
}

func (r *rawConn) write(frames ...[]byte) {
	r.t.Helper()
	_ = r.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
	for _, f := range frames {
		if _, err := r.nc.Write(f); err != nil {
			r.t.Fatal(err)
		}
	}
}

// next reads and decodes one frame within d.
func (r *rawConn) next(d time.Duration) (any, error) {
	_ = r.nc.SetReadDeadline(time.Now().Add(d))
	f, err := rtwire.ReadFrame(r.br)
	if err != nil {
		return nil, err
	}
	return rtwire.Decode(f)
}

func (r *rawConn) read() any {
	r.t.Helper()
	msg, err := r.next(5 * time.Second)
	if err != nil {
		r.t.Fatal(err)
	}
	return msg
}

// reset reads until the listener ends the connection, failing on anything
// but the teardown's Bye.
func (r *rawConn) reset(d time.Duration) {
	r.t.Helper()
	for {
		msg, err := r.next(d)
		if err != nil {
			if isTimeout(err) {
				r.t.Fatalf("connection still open after %v", d)
			}
			return
		}
		if _, bye := msg.(rtwire.Bye); !bye {
			r.t.Fatalf("answered with %T %+v, want only the reset", msg, msg)
		}
	}
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// ------------------------------------------------------ subscription handles

// push is the transport-neutral view of one delivered tick. dropped and
// expired are the cumulative per-attachment tallies the push carried.
type push struct {
	cursor, dropped, expired uint64
	answers                  []string
}

// handle is one attached subscription as a row sees it.
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
	// received counts the pushes the consumer was handed.
	received() uint64
	// cancel detaches the subscription; delivery must stop.
	cancel(t *testing.T)
}

type lbHandle struct {
	spec     client.SubSpec
	ss       *server.ServerSub
	cur      uint64
	drp, exp uint64
	n        uint64
	done     bool
}

func toSubSpec(s client.SubSpec) sub.Spec {
	return sub.Spec{
		Query: s.Query, Period: s.Period, Kind: s.Kind,
		Deadline: s.Deadline, MinUseful: s.MinUseful,
	}
}

// reattach cancels the attachment (its queue is accounted dropped) and
// resumes on srv at the held cursor.
func (h *lbHandle) reattach(t *testing.T, srv *server.Server) {
	t.Helper()
	if _, err := h.ss.Cancel(); err != nil {
		t.Fatal(err)
	}
	ss, err := srv.Subscribe(toSubSpec(h.spec), h.cur, int(h.spec.Depth))
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	h.ss = ss
}

func (h *lbHandle) next(d time.Duration) (push, bool) {
	end := time.Now().Add(d)
	for {
		p, dropped, ok := h.ss.Pop()
		if ok {
			h.cur, h.n = p.Cursor, h.n+1
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

// The in-process consumer pops straight off the server queue, so the last
// pop's stamps are exact once the handle is drained to quiescence.
func (h *lbHandle) tallies() (uint64, uint64) { return h.drp, h.exp }
func (h *lbHandle) lost() uint64              { return 0 }
func (h *lbHandle) received() uint64          { return h.n }

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
func (h *tcpHandle) received() uint64          { return h.sub.Received() }

// cancel closes the subscription: delivery stops — its push channel, drained
// of what was delivered before, closes — and no error is left behind.
func (h *tcpHandle) cancel(t *testing.T) {
	t.Helper()
	must(t, h.sub.Close())
	for open := true; open; {
		select {
		case _, open = <-h.sub.Pushes():
		case <-time.After(5 * time.Second):
			t.Fatal("push channel still open after Close")
		}
	}
	if err := h.sub.Err(); err != nil {
		t.Fatalf("clean close left err %v", err)
	}
}

// follower opens and starts a replica of the target's listener, through its
// dialer, as cfg asks: an in-memory log and beacons every standbyBeacon
// unless it names its own (a beacon must stay under a third of the
// listener's HeartbeatInterval).
func (tg *target) follower(t *testing.T, cfg replica.Config, sc server.Config) *replica.Replica {
	t.Helper()
	cfg.Primary = tg.addr
	if cfg.WAL.FS == nil {
		cfg.WAL = wal.Options{Dir: "fwal", FS: faultfs.NewMem(3), SegmentSize: 2048, SnapshotEvery: 32}
	}
	if cfg.Client.HeartbeatInterval == 0 {
		cfg.Client.HeartbeatInterval = standbyBeacon
	}
	cfg.Client.Name, cfg.Client.Dialer, cfg.Client.Seed = "follower", tg.dialer("follower"), 7
	cfg.Client.RetryBackoff, cfg.Client.RetryBackoffMax = time.Millisecond, 20*time.Millisecond
	r, err := replica.Open(cfg, sc)
	must(t, err)
	r.Start()
	t.Cleanup(func() { _ = r.Close() })
	return r
}
