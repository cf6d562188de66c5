package spec

import (
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"slices"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultnet"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtwire"
)

// WIRE-001: every request kind crosses client → wire → session → apply loop
// and back: samples and a Flush, a no-deadline and a firm query, as-of
// reads, the metrics reply; a closed client refuses further calls, and
// every connection the listener accepted it closes.
func wireEveryRequestKind(t *testing.T, mk maker) {
	tg := mk(t, setup{sessions: 2})
	c := tg.client(t)
	must(t, c.InjectSample("temp", "25"))
	must(t, c.Flush())
	if r, err := c.Query(client.Query{Query: "status_q", Candidate: "high"}); err != nil || !r.Match || !r.Evaluated || r.Missed {
		t.Fatalf("no-deadline query: %+v %v", r, err)
	}
	r, err := c.Query(client.Query{Query: "temp_q", Candidate: "25", Kind: deadline.Firm, Deadline: 1 << 20, MinUseful: 1})
	if err != nil || !r.Match || r.Missed || !r.Evaluated || r.ExpiredOnArrival {
		t.Fatalf("firm query: %+v %v", r, err)
	}
	_, _, horizon, err := c.AsOf("temp", 0)
	must(t, err)
	if v, ok, _, err := c.AsOf("temp", horizon); err != nil || ok && v != "25" {
		t.Fatalf("as-of at the horizon %d: %q ok=%v err=%v", horizon, v, ok, err)
	}
	m, err := c.Metrics()
	must(t, err)
	mm := m.Map()
	if mm["queries_in"] != 2 || mm["asof_reads"] != 2 || mm["net_conns_accepted"] != 1 || mm["net_frames_in"] == 0 {
		t.Errorf("metrics over the wire: queries_in %d asof_reads %d net_conns_accepted %d net_frames_in %d",
			mm["queries_in"], mm["asof_reads"], mm["net_conns_accepted"], mm["net_frames_in"])
	}
	must(t, c.Close())
	if _, err := c.Query(client.Query{Query: "status_q"}); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("query after close: %v, want ErrClosed", err)
	}
	tg.c = nil
	tg.finish(t)
	if a, cl := tg.ns.Wire.ConnsAccepted.Load(), tg.ns.Wire.ConnsClosed.Load(); a != cl {
		t.Errorf("ConnsAccepted %d != ConnsClosed %d", a, cl)
	}
}

// WIRE-002: a firm query whose budget was consumed in transit is rejected
// unevaluated, answered missed and counted expired-on-arrival — decided from
// the frame alone (Elapsed ≥ Deadline), with no clocks involved. A live
// query on the same connection still evaluates.
func wireExpiredOnArrival(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	rc := tg.raw(t, "raw", true)
	rc.write(rtwire.Query{ID: 1, Query: "status_q", Kind: deadline.Firm, Deadline: 5, Elapsed: 10, MinUseful: 1}.Encode())
	if res, ok := rc.read().(rtwire.Result); !ok || !res.Missed || res.Evaluated || !res.ExpiredOnArrival {
		t.Fatalf("expired-on-arrival result: %+v", res)
	}
	rc.write(rtwire.Query{ID: 2, Query: "status_q", Kind: deadline.Firm, Deadline: 1 << 20, Elapsed: 3, MinUseful: 1}.Encode())
	if res, ok := rc.read().(rtwire.Result); !ok || res.Missed || !res.Evaluated || res.ExpiredOnArrival {
		t.Fatalf("live query after an expired one: %+v", res)
	}
	rc.write(rtwire.Bye{Reason: "done"}.Encode())
	tg.finish(t)
	expiredBooks(t, tg, 2, 1)
}

// expiredBooks requires the node to have taken queries queries, one of them
// expired on arrival and counted so on the wire, and met the rest.
func expiredBooks(t *testing.T, tg *target, queries, hits uint64) {
	t.Helper()
	m := tg.srv.Metrics.Snapshot()
	if m.ExpiredOnArrival != 1 || m.QueriesIn != queries || m.DeadlineMiss != 1 || m.DeadlineHit != hits {
		t.Errorf("accounting: %+v", m)
	}
	if got := tg.ns.Wire.ExpiredOnArrival.Load(); got != 1 {
		t.Errorf("wire ExpiredOnArrival = %d, want 1", got)
	}
}

// WIRE-022: a client's firm query with relative deadline 0 is expired on
// arrival through the whole client path — whatever Elapsed the client
// stamps, E ≥ 0 = D holds — so the node rejects it unevaluated and
// answers the miss.
func wireZeroDeadlineFirm(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	r, err := tg.client(t).Query(client.Query{Query: "status_q", Kind: deadline.Firm, Deadline: 0, MinUseful: 1})
	if err != nil || !r.Missed || r.Evaluated || !r.ExpiredOnArrival {
		t.Fatalf("zero-deadline firm query: %+v %v", r, err)
	}
	tg.finish(t)
	expiredBooks(t, tg, 1, 0)
}

// refused reads the Err that answers a refused handshake, then requires the
// listener to close the connection.
func refused(t *testing.T, rc *rawConn, code rtwire.ErrCode, what string) {
	t.Helper()
	if e, ok := rc.read().(rtwire.Err); !ok || e.Code != code {
		t.Fatalf("%s: %+v, want Err code %d", what, e, code)
	}
	if _, err := rc.next(5 * time.Second); err == nil {
		t.Fatalf("%s: connection left open after the refusal", what)
	}
}

// WIRE-003: the node's Sessions bound its connections: a Hello past the pool
// is refused CodeServerFull, and a freed session is reusable.
func wireSessionPool(t *testing.T, mk maker) {
	tg := mk(t, setup{sessions: 2})
	held := tg.raw(t, "one", true)
	tg.raw(t, "two", true)
	extra := tg.raw(t, "three", false)
	extra.write(rtwire.Hello{Client: "three"}.Encode())
	refused(t, extra, rtwire.CodeServerFull, "connection past the session pool")
	held.nc.Close()
	await(t, "freed session reused", func() bool {
		rc := tg.raw(t, "again", false)
		rc.write(rtwire.Hello{Client: "again"}.Encode())
		_, ok := rc.read().(rtwire.Welcome)
		return ok
	})
}

// handshakeRefused dials the listener as label and sends first (nothing when
// nil): the handshake must be refused CodeBadRequest and the refusal counted
// in net_conns_refused.
func handshakeRefused(t *testing.T, tg *target, label string, first []byte) {
	t.Helper()
	rc := tg.raw(t, label, false)
	if first != nil {
		rc.write(first)
	}
	refused(t, rc, rtwire.CodeBadRequest, label)
	if got := tg.metrics(t).Map()["net_conns_refused"]; got != 1 {
		t.Errorf("net_conns_refused = %d, want 1", got)
	}
}

// WIRE-012: a first frame that is not Hello is refused.
func wireFirstFrameHello(t *testing.T, mk maker) {
	handshakeRefused(t, mk(t, setup{}), "rude", rtwire.AsOf{ID: 1, Image: "temp", At: 1}.Encode())
}

// WIRE-013: a handshake that never comes is refused once HandshakeTimeout
// passes.
func wireHandshakeTimeout(t *testing.T, mk maker) {
	handshakeRefused(t, mk(t, setup{opt: netserve.Options{HandshakeTimeout: 50 * time.Millisecond}}), "mute", nil)
}

// WIRE-014: every refused connection counts once in net_conns_refused,
// under that row name on every listener, and the connection books balance:
// net_conns_accepted == net_conns_closed + net_conns_refused + the
// connections still live. A Hello past the pool, a non-Hello first frame and
// a silent handshake make three refusals beside two live connections.
func wireRefusalsCounted(t *testing.T, mk maker) {
	tg := mk(t, setup{sessions: 2, opt: netserve.Options{HandshakeTimeout: 50 * time.Millisecond}})
	c := tg.client(t)
	tg.raw(t, "held", true) // the pool's second session
	extra := tg.raw(t, "extra", false)
	extra.write(rtwire.Hello{Client: "extra"}.Encode())
	refused(t, extra, rtwire.CodeServerFull, "connection past the session pool")
	rude := tg.raw(t, "rude", false)
	rude.write(rtwire.AsOf{ID: 1, Image: "temp", At: 1}.Encode())
	refused(t, rude, rtwire.CodeBadRequest, "non-hello first frame")
	refused(t, tg.raw(t, "mute", false), rtwire.CodeBadRequest, "silent handshake")
	m, err := c.Metrics()
	must(t, err)
	mm := m.Map()
	if mm["net_conns_refused"] != 3 || mm["net_conns_accepted"] != mm["net_conns_closed"]+3+2 {
		t.Errorf("net_conns_refused %d, accepted %d, closed %d; want 3 refused and accepted = closed + 3 + 2 live",
			mm["net_conns_refused"], mm["net_conns_accepted"], mm["net_conns_closed"])
	}
}

// expectSubAck reads frames until a SubAck arrives, collecting the pushes
// that precede it.
func expectSubAck(t *testing.T, rc *rawConn, pushes *[]rtwire.Push) rtwire.SubAck {
	t.Helper()
	for {
		switch m := rc.read().(type) {
		case rtwire.Push:
			if pushes != nil {
				*pushes = append(*pushes, m)
			}
		case rtwire.SubAck:
			return m
		default:
			t.Fatalf("waiting for SubAck, got %T: %+v", m, m)
		}
	}
}

// WIRE-004: an admitted SubOpen acks cursor 0; its pushes carry contiguous
// cursors from 1 whose audit closes and the catalog's answers, Degraded on a
// standby; the closing SubAck carries a cursor no older than the last push.
// The listener counts the frame in and the pushes out.
func wireSubscriptionFrames(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	rc := tg.raw(t, "subs", true)
	rc.write(rtwire.SubOpen{ID: 3, Query: "status_q", Period: 2, Kind: deadline.Soft, Deadline: 50, MinUseful: 1, Depth: 16}.Encode())
	if a := expectSubAck(t, rc, nil); a.ID != 3 || a.State != rtwire.SubAdmitted || a.Cursor != 0 {
		t.Fatalf("open ack: %+v", a)
	}
	tg.advance(t, 8)
	var pushes []rtwire.Push
	for len(pushes) < 3 {
		p, ok := rc.read().(rtwire.Push)
		if !ok {
			t.Fatalf("want a push, got %+v", p)
		}
		pushes = append(pushes, p)
	}
	rc.write(rtwire.SubCancel{ID: 3}.Encode())
	closed := expectSubAck(t, rc, &pushes)
	if closed.State != rtwire.SubClosed || closed.Cursor < pushes[len(pushes)-1].Cursor {
		t.Fatalf("close ack %+v after the push at cursor %d", closed, pushes[len(pushes)-1].Cursor)
	}
	for i, p := range pushes {
		if p.ID != 3 || p.Cursor != uint64(i+1) || !p.Evaluated || p.Missed || p.Degraded != tg.standby {
			t.Fatalf("push %d: %+v", i, p)
		}
		if received := uint64(i + 1); received != p.Cursor-p.Dropped-p.Expired || len(p.Answers) != 1 || p.Answers[0] != "high" {
			t.Fatalf("push %d: audit or answers: %+v", i, p)
		}
	}
	if w := tg.ns.Wire.Snapshot(); w.PushesOut < uint64(len(pushes)) || w.SubsIn != 1 {
		t.Errorf("wire pushes_out %d subs_in %d, want ≥ %d and 1", w.PushesOut, w.SubsIn, len(pushes))
	}
	tg.finish(t)
	if m := tg.srv.Metrics.Snapshot(); m.SubsOpened != 1 || tg.standby && m.Degraded == 0 {
		t.Errorf("subs opened %d (want 1), degraded %d", m.SubsOpened, m.Degraded)
	}
}

// WIRE-015: a SubOpen the node will not serve is answered and opens
// nothing. An unknown query is a refused SubAck; a firm envelope is refused
// — read-only on a standby; on a primary when its budget was consumed in
// transit (Elapsed ≥ Deadline), while the same envelope live is admitted. A
// duplicate id and a cancel of an id never opened are protocol errors.
func wireSubscriptionRefusals(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	rc := tg.raw(t, "refusals", true)
	protocolError := func(id uint64, what string) {
		t.Helper()
		if e, ok := rc.read().(rtwire.Err); !ok || e.ID != id || e.Code != rtwire.CodeBadRequest {
			t.Fatalf("%s: %+v, want CodeBadRequest for id %d", what, e, id)
		}
	}
	rc.write(rtwire.SubOpen{ID: 1, Query: "nope_q", Period: 2}.Encode())
	if a := expectSubAck(t, rc, nil); a.ID != 1 || a.State != rtwire.SubRefused {
		t.Fatalf("unknown query: %+v", a)
	}
	live := rtwire.SubOpen{ID: 3, Query: "status_q", Period: 4, Kind: deadline.Firm, Deadline: 3, MinUseful: 1}
	expired := live
	if expired.ID = 2; !tg.standby {
		expired.Elapsed = 5
	}
	rc.write(expired.Encode())
	if tg.standby {
		if e, ok := rc.read().(rtwire.Err); !ok || e.Code != rtwire.CodeReadOnly {
			t.Fatalf("firm SubOpen on a standby: %+v", e)
		}
		live.Kind, live.Deadline = deadline.Soft, 50
	} else if a := expectSubAck(t, rc, nil); a.ID != 2 || a.State != rtwire.SubRefused {
		t.Fatalf("expired envelope: %+v", a)
	}
	rc.write(live.Encode())
	if a := expectSubAck(t, rc, nil); a.ID != 3 || a.State != rtwire.SubAdmitted {
		t.Fatalf("live envelope: %+v", a)
	}
	rc.write(live.Encode())
	protocolError(3, "duplicate id")
	rc.write(rtwire.SubCancel{ID: 9}.Encode())
	protocolError(9, "cancel of an id never opened")
	rc.write(rtwire.SubCancel{ID: 3}.Encode())
	expectSubAck(t, rc, nil)
	tg.finish(t)
	if n := tg.srv.Metrics.SubsOpened.Load(); n != 1 {
		t.Errorf("subs opened %d, want 1: refusals open nothing", n)
	}
}

// WIRE-016: the subscription books ship under their pinned names with the
// node's values — in the server's own row list in process, in the metrics
// reply on a listener, where net_subs_in and net_pushes_out ride beside them.
func wirePushRows(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	h, err := tg.subscribe(t, base())
	must(t, err)
	tg.advance(t, 8)
	if _, ok := h.next(5 * time.Second); !ok {
		t.Fatal("no push")
	}
	h.cancel(t)
	reply := rtwire.Metrics{Pairs: tg.srv.Metrics.Snapshot().Pairs()}
	if tg.ns != nil {
		reply = tg.metrics(t)
	}
	rows := reply.Map()
	m := tg.srv.Metrics.Snapshot()
	want := map[string]uint64{"subs_opened": m.SubsOpened, "subs_closed": m.SubsClosed,
		"push_scheduled": m.PushScheduled, "pushed": m.Pushed, "push_dropped": m.PushDropped, "push_expired": m.PushExpired}
	if tg.ns != nil {
		want["net_subs_in"], want["net_pushes_out"] = tg.ns.Wire.SubsIn.Load(), tg.ns.Wire.PushesOut.Load()
	}
	for name, v := range want {
		if got, ok := rows[name]; !ok || got != v {
			t.Errorf("row %s = %d (present %v), the node's books say %d", name, got, ok, v)
		}
	}
	if m.SubsOpened != 1 || m.SubsClosed != 1 || m.Pushed == 0 {
		t.Errorf("books: opened %d closed %d pushed %d, want 1, 1 and > 0", m.SubsOpened, m.SubsClosed, m.Pushed)
	}
	tg.finish(t)
}

// fabricClient dials through the fabric as label with beacons every hb (< 0:
// none, and no silence bound) and a short redial walk.
func (tg *target) fabricClient(t *testing.T, label string, hb time.Duration, attempts int) *client.Client {
	return tg.dialWith(t, tg.addr, client.Options{
		Name: label, DialTimeout: 500 * time.Millisecond, CallTimeout: 30 * time.Second,
		WriteTimeout: 500 * time.Millisecond, RetryAttempts: attempts,
		RetryBackoff: time.Millisecond, RetryBackoffMax: 10 * time.Millisecond,
		HeartbeatInterval: hb, Seed: 1,
	})
}

// WIRE-005: a frame damaged on the wire is never decoded. Inbound, the
// listener's CRC or framing catches it, counts it in corrupt_frames and
// decode_errors, and resets the connection, answering nothing but the
// teardown's Bye; a client whose query was damaged redials and retries it.
// Outbound, the client counts the damaged result, rotates, and the query
// retries on the fresh connection. Either way the answer is the node's.
func wireCorruptFrameResets(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	w := &tg.ns.Wire
	rc := tg.raw(t, "corrupter", true)
	tg.fab.ArmAt(tg.fab.Ops()+1, faultnet.Fault{Kind: faultnet.FaultCorrupt})
	rc.write(rtwire.AsOf{ID: 1, Image: "temp", At: 1}.Encode())
	rc.reset(5 * time.Second)
	if w.CorruptFrames.Load() != 1 || w.DecodeErrors.Load() != 1 || w.AsOfReads.Load() != 0 {
		t.Fatalf("corrupt_frames %d decode_errors %d asof_reads %d, want 1, 1 and 0",
			w.CorruptFrames.Load(), w.DecodeErrors.Load(), w.AsOfReads.Load())
	}
	// The wire is quiet (no beacons): op+1 is the client's query, op+2 the
	// listener's result. Either damaged, the query retries on a fresh link
	// and reads back the sample taken before.
	c := tg.fabricClient(t, "victim", -1, 6)
	if tg.standby {
		tg.advance(t, 1)
	} else {
		must(t, c.InjectSample("temp", "30"))
		must(t, c.Flush())
	}
	q := client.Query{Query: "temp_q", Candidate: "30"}
	for _, at := range []uint64{1, 2} {
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
		tg.fab.ArmAt(tg.fab.Ops()+at, faultnet.Fault{Kind: faultnet.FaultCorrupt})
		if r, err := c.Query(q); err != nil || !r.Match {
			t.Fatalf("query through a damaged frame (op +%d) never recovered: %+v %v", at, r, err)
		}
		if fired, _ := tg.fab.Fired(); !fired {
			t.Fatal("armed corruption never fired")
		}
	}
	if w.CorruptFrames.Load() != 2 || c.Stats.CorruptFrames.Load() != 1 || c.Stats.Redials.Load() < 2 {
		t.Fatalf("listener corrupt_frames %d, client corrupt frames %d redials %d; want 2, 1 and ≥ 2",
			w.CorruptFrames.Load(), c.Stats.CorruptFrames.Load(), c.Stats.Redials.Load())
	}
}

// within reports a link cut after start, failing unless it took about 3
// heartbeat intervals iv — never under 2, which would be an error path, not
// the bound.
func within(t *testing.T, start time.Time, iv time.Duration, what string) {
	t.Helper()
	if d := time.Since(start); d < 2*iv || d > 3*iv+time.Second {
		t.Fatalf("%s cut after %v, want ≈ 3 intervals (%v)", what, d, 3*iv)
	}
}

// WIRE-006: a listener whose client goes mute on a half-open link — its
// beacons blackholed while the listener's writes still succeed — cuts the
// link within 3 heartbeat intervals, on its own silence bound.
func wireOneWayPartition(t *testing.T, mk maker) {
	const iv = 60 * time.Millisecond
	tg := mk(t, setup{opt: netserve.Options{HeartbeatInterval: iv}})
	c := tg.fabricClient(t, "mute", iv, 6)
	if _, _, _, err := c.AsOf("temp", 1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	tg.fab.PartitionNow(faultnet.Direction{From: "mute", To: tg.addr})
	await(t, "listener cut the half-open link", func() bool { return tg.ns.Wire.ConnsClosed.Load() >= 1 })
	within(t, start, iv, "listener")
	tg.fab.Heal()
}

// WIRE-017: a client whose listener freezes — the listener's frames
// blackholed while the client's writes still succeed — cuts the link within
// 3 heartbeat intervals, counted once, and its pending call fails then
// rather than at CallTimeout.
func wireFrozenPeer(t *testing.T, mk maker) {
	const iv = 60 * time.Millisecond
	tg := mk(t, setup{opt: netserve.Options{HeartbeatInterval: iv}})
	c := tg.fabricClient(t, "deaf", iv, -1)
	if _, _, _, err := c.AsOf("temp", 1); err != nil {
		t.Fatal(err)
	}
	tg.fab.PartitionNow(faultnet.Direction{From: tg.addr, To: "deaf"})
	start := time.Now()
	if _, _, _, err := c.AsOf("temp", 1); err == nil {
		t.Fatal("a call through a frozen peer succeeded")
	}
	within(t, start, iv, "client")
	if got := c.Stats.HeartbeatTimeouts.Load(); got != 1 {
		t.Fatalf("HeartbeatTimeouts = %d, want 1", got)
	}
	tg.fab.Heal()
}

// inflated is a beacon whose header claims 40 000 more payload bytes than
// follow — under MaxPayload, so only the silence bound can end the wait.
func inflated() []byte {
	f := rtwire.Heartbeat{Epoch: 1}.Encode()
	binary.LittleEndian.PutUint32(f[3:7], binary.LittleEndian.Uint32(f[3:7])+40000)
	return f
}

// WIRE-007: silence is bounded per frame at both ends of a link. A peer
// sends a header with an inflated length, then keeps beaconing: the bytes
// trickling in behind the frame that never completes must not hold the link
// open. The listener cuts it within 3 × HeartbeatInterval of the frame's
// start; a client behind a relay that inflates the first frame after its
// Welcome fails its pending call with ErrConnDown, counted once.
func wireSilencePerFrame(t *testing.T, mk maker) {
	const iv = 50 * time.Millisecond
	tg := mk(t, setup{opt: netserve.Options{HeartbeatInterval: iv}})
	rc := tg.raw(t, "loris", true)
	stop := make(chan struct{})
	defer close(stop)
	start := time.Now()
	rc.write(inflated())
	beacon := rtwire.Heartbeat{}.Encode()
	go func() {
		for ; ; time.Sleep(10 * time.Millisecond) {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := rc.nc.Write(beacon); err != nil {
				return
			}
		}
	}()
	rc.reset(3 * time.Second)
	if d := time.Since(start); d > 3*iv+time.Second {
		t.Fatalf("listener held the link %v behind an inflated length", d)
	}

	c, err := client.Dial(relay(t, tg), client.Options{
		RetryAttempts: -1, HeartbeatInterval: iv, CallTimeout: 30 * time.Second,
	})
	must(t, err)
	defer c.Close()
	start = time.Now()
	if _, _, _, err := c.AsOf("temp", 1); !errors.Is(err, client.ErrConnDown) {
		t.Fatalf("call behind a frame that never completes: %v, want ErrConnDown", err)
	}
	if d := time.Since(start); d > 3*iv+time.Second {
		t.Fatalf("the client held the link %v behind an inflated length", d)
	}
	if got := c.Stats.HeartbeatTimeouts.Load(); got != 1 {
		t.Fatalf("HeartbeatTimeouts = %d, want 1", got)
	}
}

// relay listens on a loopback port and passes one connection through to the
// target, inflating the length of the listener's first frame after its
// Welcome and passing every later byte behind it.
func relay(t *testing.T, tg *target) string {
	ln := tcpListener(t, "127.0.0.1:0")
	t.Cleanup(func() { ln.Close() })
	go func() {
		cc, err := ln.Accept()
		if err != nil {
			return
		}
		defer cc.Close()
		sc, err := tg.dialer("relay").DialTimeout("tcp", tg.addr, 2*time.Second)
		if err != nil {
			return
		}
		defer sc.Close()
		go func() { _, _ = io.Copy(sc, cc) }()
		frame := func(grow uint32) bool {
			hdr := make([]byte, rtwire.HeaderSize)
			if _, err := io.ReadFull(sc, hdr); err != nil {
				return false
			}
			n := binary.LittleEndian.Uint32(hdr[3:7])
			body := make([]byte, n)
			if _, err := io.ReadFull(sc, body); err != nil {
				return false
			}
			binary.LittleEndian.PutUint32(hdr[3:7], n+grow)
			_, err := cc.Write(append(hdr, body...))
			return err == nil
		}
		if frame(0) && frame(40000) {
			_, _ = io.Copy(cc, sc)
		}
	}()
	return ln.Addr().String()
}

// The metrics reply's row names, in order, as tooling keyed on them reads
// it: the server's counters, then the wire counters, then the node's
// durability coordinates, which depend on its shape.
var (
	serverRowNames = []string{
		"chronon", "samples_in", "samples_rejected", "samples_applied",
		"queries_in", "queries_rejected", "reject_miss", "deadline_hit",
		"deadline_miss", "no_deadline", "admission_skip", "expired_on_arrival",
		"degraded", "periodic_issued", "periodic_hit", "periodic_miss",
		"subs_opened", "subs_closed", "push_scheduled", "pushed",
		"push_dropped", "push_expired", "asof_reads", "rule_firings",
		"cascade_depth_max", "wal_appends", "wal_errors", "wal_heals",
		"fsync_count", "fsync_total_ns", "fsync_max_ns", "group_commits",
		"grouped_appends",
	}
	wireRowNames = []string{
		"net_conns_accepted", "net_conns_refused", "net_conns_closed",
		"net_frames_in", "net_frames_out", "net_bytes_in", "net_bytes_out",
		"net_samples_in", "net_queries_in", "net_asof_reads", "net_subs_in",
		"net_pushes_out", "net_expired_on_arrival", "net_backpressure_frames",
		"net_write_drops", "net_decode_errors", "net_heartbeats_in",
		"net_repl_batches_out", "net_corrupt_frames",
		"net_write_timeouts", "net_repl_stall_evictions",
	}
	primaryRowNames  = []string{"wal_seq", "wal_durable", "epoch", "repl_durable"}
	followerRowNames = []string{
		"wal_seq", "epoch", "repl_seq", "repl_epoch", "repl_batches_in",
		"repl_events_applied", "repl_dup_skipped", "repl_gap_resubscribes",
		"repl_stale_batches", "repl_reconnects", "repl_promotions",
	}
)

func rowNames(m rtwire.Metrics) []string {
	names := make([]string, len(m.Pairs))
	for i, p := range m.Pairs {
		names[i] = p.Name
	}
	return names
}

// WIRE-008: the metrics reply is the complete, ordered row list of the
// node's shape — a primary's, or a follower's — and counts the connection
// that asked for it.
func wireMetricsRows(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	m := tg.metrics(t)
	want := slices.Concat(serverRowNames, wireRowNames, primaryRowNames)
	if tg.standby {
		want = slices.Concat(serverRowNames, wireRowNames, followerRowNames)
	}
	if got := rowNames(m); !reflect.DeepEqual(got, want) {
		t.Errorf("rows\n got %q\nwant %q", got, want)
	}
	if got := m.Map()["net_conns_accepted"]; got != 1 {
		t.Errorf("net_conns_accepted = %d, want 1: the probe", got)
	}
}

// WIRE-018: the durability coordinates in the metrics reply are the node's
// own: wal_seq its log's tail, epoch its fencing epoch, and on a primary
// whose log fsyncs, wal_durable the tail once a Flush has returned.
func wireDurabilityRows(t *testing.T, mk maker) {
	tg := mk(t, setup{wal: wal.Options{Sync: true}})
	tg.advance(t, 4)
	mm := tg.metrics(t).Map()
	if mm["wal_seq"] != tg.log.Seq() || mm["wal_seq"] == 0 || mm["epoch"] != tg.log.Epoch() {
		t.Errorf("wal_seq %d epoch %d, want the node's %d (> 0) and %d", mm["wal_seq"], mm["epoch"], tg.log.Seq(), tg.log.Epoch())
	}
	if tg.r == nil && mm["wal_durable"] != mm["wal_seq"] {
		t.Errorf("wal_durable %d != wal_seq %d after a Flush", mm["wal_durable"], mm["wal_seq"])
	}
}

// WIRE-019: a primary without a log reports epoch and repl_durable and no
// wal_seq or wal_durable — it has no durable tail to advertise.
func wireWALlessRows(t *testing.T, mk maker) {
	m := mk(t, setup{noWAL: true}).metrics(t)
	if got, want := rowNames(m), slices.Concat(serverRowNames, wireRowNames, []string{"epoch", "repl_durable"}); !reflect.DeepEqual(got, want) {
		t.Errorf("WAL-less rows\n got %q\nwant %q", got, want)
	}
}

// WIRE-020: a running primary reports its log's fsync and group-commit rows
// as they stand, not as they stood at the last Stop; one without a log
// reports the same rows at zero.
func wireLiveFsyncRows(t *testing.T, mk maker) {
	const samples = 10
	tg := mk(t, setup{wal: wal.Options{Sync: true, GroupWindow: 200 * time.Microsecond}})
	tg.advance(t, samples)
	mm := tg.metrics(t).Map()
	if mm["wal_appends"] < samples || mm["fsync_count"] == 0 || mm["group_commits"] == 0 || mm["grouped_appends"] != mm["wal_appends"] {
		t.Errorf("live fsync rows: wal_appends %d fsync_count %d group_commits %d grouped_appends %d",
			mm["wal_appends"], mm["fsync_count"], mm["group_commits"], mm["grouped_appends"])
	}
	plain := mk(t, setup{noWAL: true}).metrics(t).Map()
	for _, name := range []string{"fsync_count", "fsync_total_ns", "fsync_max_ns", "group_commits", "grouped_appends"} {
		if v, ok := plain[name]; !ok || v != 0 {
			t.Errorf("WAL-less %s = %d (present %v), want 0", name, v, ok)
		}
	}
}

// WIRE-021: every wire-hardening drop path reports under its pinned row
// name with the listener's own count, so none is silent: corrupt frames,
// decode errors, write timeouts, write drops and replication stall
// evictions. On a fabric a damaged frame first puts a count on two of them.
// The counts are compared over a reply during which they held still.
func wireFaultPathRows(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	if tg.fab != nil {
		rc := tg.raw(t, "corrupter", true)
		tg.fab.ArmAt(tg.fab.Ops()+1, faultnet.Fault{Kind: faultnet.FaultCorrupt})
		rc.write(rtwire.AsOf{ID: 1, Image: "temp", At: 1}.Encode())
		rc.reset(5 * time.Second)
	}
	faults := func() map[string]uint64 {
		w := tg.ns.Wire.Snapshot()
		return map[string]uint64{"net_corrupt_frames": w.CorruptFrames, "net_decode_errors": w.DecodeErrors,
			"net_write_timeouts": w.WriteTimeouts, "net_write_drops": w.WriteDrops, "net_repl_stall_evictions": w.ReplStallEvictions}
	}
	var rows, want map[string]uint64
	await(t, "a metrics reply while the fault-path counts held still", func() bool {
		before := faults()
		rows, want = tg.metrics(t).Map(), faults()
		return reflect.DeepEqual(before, want)
	})
	for name, v := range want {
		if got, ok := rows[name]; !ok || got != v {
			t.Errorf("row %s = %d (present %v), the listener counted %d", name, got, ok, v)
		}
	}
	if tg.fab != nil && (want["net_corrupt_frames"] != 1 || want["net_decode_errors"] != 1) {
		t.Errorf("corrupt_frames %d decode_errors %d after one damaged frame, want 1 and 1",
			want["net_corrupt_frames"], want["net_decode_errors"])
	}
}

// WIRE-009: a client that cannot absorb frames within WriteTimeout is cut
// and counted, its subscription closed on the books; the node never waits
// for it.
func wireWriteTimeoutEvicts(t *testing.T, mk maker) {
	tg := mk(t, setup{opt: netserve.Options{WriteTimeout: 100 * time.Millisecond}})
	rc := tg.raw(t, "stalled", true)
	rc.write(rtwire.SubOpen{ID: 1, Query: "status_q", Period: 1, Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1, Depth: 4}.Encode())
	if a := expectSubAck(t, rc, nil); a.State != rtwire.SubAdmitted {
		t.Fatalf("SubOpen ack: %+v", a)
	}
	tg.fab.StallAll(tg.addr, "stalled")
	tg.advance(t, 8)
	await(t, "stalled subscriber evicted", func() bool {
		return tg.ns.Wire.WriteTimeouts.Load() == 1 && tg.ns.Wire.ConnsClosed.Load() >= 1
	})
	tg.fab.Heal()
	tg.finish(t)
}

// WIRE-010: a soft query that survives arrival but whose usefulness at
// completion falls below MinUseful is skipped unevaluated and counted — an
// evaluation costing 5 chronons against a deadline of 3 ends at U(5) =
// 8/(5−3) = 4, under MinUseful 6 — and with the bar at 3 the same shape is
// served late but useful. The client's chronon is an hour, so its Elapsed
// stamp is 0.
func wireAdmissionAtDequeue(t *testing.T, mk maker) {
	tg := mk(t, setup{evalCost: 5})
	c := tg.dialWith(t, tg.addr, client.Options{Name: "hourly", ChrononDuration: time.Hour})
	q := client.Query{Query: "status_q", Kind: deadline.Soft, Deadline: 3, MinUseful: 6,
		Decay: rtwire.Decay{ID: rtwire.DecayHyperbolic, Max: 8}}
	if r, err := c.Query(q); err != nil || !r.Missed || r.Evaluated || r.ExpiredOnArrival || r.Useful != 4 {
		t.Fatalf("admission-skip result: %+v %v, want missed unevaluated at usefulness 4", r, err)
	}
	if got := tg.srv.Metrics.AdmissionSkip.Load(); got != 1 {
		t.Errorf("AdmissionSkip = %d, want 1", got)
	}
	q.MinUseful = 3
	if r, err := c.Query(q); err != nil || r.Missed || !r.Evaluated || r.Useful != 4 {
		t.Fatalf("soft-but-useful result: %+v %v", r, err)
	}
}

// WIRE-011: a sample that finds its session's queue full comes back as an
// explicit CodeBackpressure Err, counted — never silence, never a blocked
// read loop.
func wireSampleBackpressure(t *testing.T, mk maker) {
	tg := mk(t, setup{queueDepth: 1, stalled: true})
	rc := tg.raw(t, "raw", true)
	// With no apply loop running, the queue holds exactly one sample.
	rc.write(rtwire.Sample{ID: 1, Image: "temp", Value: "1"}.Encode(), rtwire.Sample{ID: 2, Image: "temp", Value: "2"}.Encode())
	if e, ok := rc.read().(rtwire.Err); !ok || e.Code != rtwire.CodeBackpressure || e.ID != 2 {
		t.Fatalf("overflow sample: %+v", e)
	}
	tg.srv.Start() // the drain's session flush needs the apply loop
	rc.write(rtwire.Bye{Reason: "done"}.Encode())
	tg.finish(t)
	if got := tg.ns.Wire.BackpressureFrames.Load(); got != 1 {
		t.Errorf("BackpressureFrames = %d, want 1", got)
	}
}

// WIRE-023: a sample whose image the node lacks is refused by the apply loop
// and counted in samples_rejected, out of samples_in, so samples_in ==
// samples_applied holds with it in the stream; a sample for a known image is
// applied before and after an as-of publish. On promoted the image is one
// the standby learned by replication, and the first sample lands before the
// node has published as a primary.
func wireSampleImage(t *testing.T, mk maker) {
	tg := mk(t, setup{})
	refused := func() {
		t.Helper()
		if tg.ns == nil {
			must(t, tg.srv.Session(0).InjectSample("nope", "1"))
		} else {
			must(t, tg.client(t).InjectSample("nope", "1"))
		}
	}
	base, horizon := tg.srv.Metrics.Snapshot(), tg.srv.HistoryHorizon()
	books := func(in, rejected uint64, when string) {
		t.Helper()
		m := tg.srv.Metrics.Snapshot()
		gotIn, gotApplied, gotRejected := m.SamplesIn-base.SamplesIn, m.SamplesApplied-base.SamplesApplied, m.SamplesRejected-base.SamplesRejected
		if gotIn != in || gotApplied != in || gotRejected != rejected {
			t.Fatalf("%s: samples_in %d samples_applied %d samples_rejected %d, want %d %d %d",
				when, gotIn, gotApplied, gotRejected, in, in, rejected)
		}
	}
	refused()
	tg.advance(t, 1)
	books(1, 1, "before a publish")
	tg.advance(t, 17) // past the default 16-chronon publication period
	if tg.srv.HistoryHorizon() == horizon {
		t.Fatalf("no as-of publish after 18 chronons (horizon %d)", horizon)
	}
	refused()
	tg.advance(t, 1)
	books(19, 2, "after a publish")
	tg.finish(t)
}
