package spec

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// Target sets, by what a requirement needs of the node: every way a node
// serves, every listener, every listener on a fabric, every primary listener,
// every listener started as a primary (so a row can choose its log and its
// segment size, or none, or hold its apply loop).
var (
	serving   = []string{"inproc", "tcp", "faultnet", "standby", "promoted"}
	listeners = []string{"tcp", "faultnet", "standby", "promoted"}
	fabrics   = []string{"faultnet", "standby", "promoted"}
	primaries = []string{"tcp", "faultnet", "promoted"}
	fresh     = []string{"tcp", "faultnet"}
)

// requirements is the suite's one table: each numbered requirement once,
// with the targets it applies to. Every (ID, target) pair must have a row.
var requirements = []struct {
	id      string
	targets []string
}{
	{"SUB-001_subscribe_ack", serving},
	{"SUB-002_periodic_delivery", serving},
	{"SUB-003_drop_oldest", serving},
	{"SUB-004_cancel", serving},
	{"SUB-005_resume_reconnect", serving},
	{"SUB-006_resume_failover", []string{"inproc", "tcp"}},
	{"SUB-007_stale_ticks_expire", []string{"standby"}},
	{"SUB-008_subscribe_refusals", serving},
	{"SUB-009_resume_at_cursor", serving},
	{"WIRE-001_every_request_kind", primaries},
	{"WIRE-002_expired_on_arrival", primaries},
	{"WIRE-003_handshake_and_pool", listeners},
	{"WIRE-004_subscription_frames", listeners},
	{"WIRE-005_corrupt_frame_resets", fabrics},
	{"WIRE-006_one_way_partition", fabrics},
	{"WIRE-007_silence_per_frame", listeners},
	{"WIRE-008_metrics_rows", listeners},
	{"WIRE-009_write_timeout_evicts", fabrics},
	{"WIRE-010_admission_at_dequeue", primaries},
	{"WIRE-011_sample_backpressure", fresh},
	{"WIRE-012_first_frame_hello", listeners},
	{"WIRE-013_handshake_timeout", listeners},
	{"WIRE-014_refusals_counted", listeners},
	{"WIRE-015_subscription_refusals", listeners},
	{"WIRE-016_push_rows", serving},
	{"WIRE-017_frozen_peer", fabrics},
	{"WIRE-018_durability_rows", listeners},
	{"WIRE-019_walless_rows", fresh},
	{"WIRE-020_live_fsync_rows", fresh},
	{"WIRE-021_fault_path_rows", listeners},
	{"WIRE-022_zero_deadline_firm", primaries},
	{"WIRE-023_sample_image", []string{"inproc", "tcp", "promoted"}},
	{"REPL-001_catchup_then_tail", primaries},
	{"REPL-002_send_window", primaries},
	{"REPL-003_departing_follower", primaries},
	{"REPL-004_stalled_standby_subscriber", []string{"standby"}},
	{"REPL-005_planned_promotion", []string{"standby"}},
	{"REPL-006_sender_only_echoes", primaries},
	{"REPL-007_promotion_fences", []string{"standby"}},
	{"REPL-008_idle_link_holds", primaries},
	{"REPL-009_watchdog_promotes", []string{"standby"}},
	{"REPL-010_own_apply_is_not_silence", primaries},
	{"REPL-011_live_tail", primaries},
	{"REPL-012_log_is_primary_bytes", primaries},
	{"REPL-013_promote_after_needs_beacons", []string{"standby"}},
	{"REPL-014_refused_follower", fresh},
	{"SHARD-001_placement", []string{"shards"}},
	{"SHARD-002_metrics_rows", []string{"shards"}},
	{"SHARD-003_replication", []string{"shards"}},
}

// rows holds each requirement's check, by ID. A row gets the constructor of
// the target it runs on and builds what it needs with it.
var rows = map[string]func(t *testing.T, mk maker){
	"SUB-001_subscribe_ack":                specSubscribeAck,
	"SUB-002_periodic_delivery":            specPeriodicDelivery,
	"SUB-003_drop_oldest":                  specDropOldest,
	"SUB-004_cancel":                       specCancel,
	"SUB-005_resume_reconnect":             specResumeReconnect,
	"SUB-006_resume_failover":              specResumeFailover,
	"SUB-007_stale_ticks_expire":           specStaleTicksExpire,
	"SUB-008_subscribe_refusals":           specSubscribeRefusals,
	"SUB-009_resume_at_cursor":             specResumeAtCursor,
	"WIRE-001_every_request_kind":          wireEveryRequestKind,
	"WIRE-002_expired_on_arrival":          wireExpiredOnArrival,
	"WIRE-003_handshake_and_pool":          wireSessionPool,
	"WIRE-004_subscription_frames":         wireSubscriptionFrames,
	"WIRE-005_corrupt_frame_resets":        wireCorruptFrameResets,
	"WIRE-006_one_way_partition":           wireOneWayPartition,
	"WIRE-007_silence_per_frame":           wireSilencePerFrame,
	"WIRE-008_metrics_rows":                wireMetricsRows,
	"WIRE-009_write_timeout_evicts":        wireWriteTimeoutEvicts,
	"WIRE-010_admission_at_dequeue":        wireAdmissionAtDequeue,
	"WIRE-011_sample_backpressure":         wireSampleBackpressure,
	"WIRE-012_first_frame_hello":           wireFirstFrameHello,
	"WIRE-013_handshake_timeout":           wireHandshakeTimeout,
	"WIRE-014_refusals_counted":            wireRefusalsCounted,
	"WIRE-015_subscription_refusals":       wireSubscriptionRefusals,
	"WIRE-016_push_rows":                   wirePushRows,
	"WIRE-017_frozen_peer":                 wireFrozenPeer,
	"WIRE-018_durability_rows":             wireDurabilityRows,
	"WIRE-019_walless_rows":                wireWALlessRows,
	"WIRE-020_live_fsync_rows":             wireLiveFsyncRows,
	"WIRE-021_fault_path_rows":             wireFaultPathRows,
	"WIRE-022_zero_deadline_firm":          wireZeroDeadlineFirm,
	"WIRE-023_sample_image":                wireSampleImage,
	"REPL-001_catchup_then_tail":           replCatchupThenTail,
	"REPL-002_send_window":                 replSendWindow,
	"REPL-003_departing_follower":          replDepartingFollower,
	"REPL-004_stalled_standby_subscriber":  replStalledSubscriber,
	"REPL-005_planned_promotion":           replPlannedPromotion,
	"REPL-006_sender_only_echoes":          replSenderOnlyEchoes,
	"REPL-007_promotion_fences":            replPromotionFences,
	"REPL-008_idle_link_holds":             replIdleLinkHolds,
	"REPL-009_watchdog_promotes":           replWatchdogPromotes,
	"REPL-010_own_apply_is_not_silence":    replOwnApplyIsNotSilence,
	"REPL-011_live_tail":                   replLiveTail,
	"REPL-012_log_is_primary_bytes":        replLogIsPrimaryBytes,
	"REPL-013_promote_after_needs_beacons": replPromoteAfterNeedsBeacons,
	"REPL-014_refused_follower":            replRefusedFollower,
	"SHARD-001_placement":                  shardPlacement,
	"SHARD-002_metrics_rows":               shardMetricsRows,
	"SHARD-003_replication":                shardReplication,
}

// TestSpecs runs every requirement on every target it applies to, targets
// side by side. An ID that appears twice, a family that skips a number, an
// (ID, target) pair with no row, a row no requirement names, and a target
// with no constructor all fail the run before any row runs.
func TestSpecs(t *testing.T) {
	named, ids := map[string]bool{}, map[string]bool{}
	perFamily := map[string]int{}
	for _, req := range requirements {
		named[req.id] = true
		id, _, _ := strings.Cut(req.id, "_")
		if ids[id] {
			t.Errorf("%s appears twice in requirements", id)
		}
		ids[id] = true
		family, _, _ := strings.Cut(id, "-")
		perFamily[family]++
		for _, tn := range req.targets {
			if mkOf(tn) == nil {
				t.Errorf("%s applies to %q, which has no constructor", req.id, tn)
			}
			if rows[req.id] == nil {
				t.Errorf("%s on %s: no row", req.id, tn)
			}
		}
	}
	for family, n := range perFamily {
		for i := 1; i <= n; i++ {
			if id := fmt.Sprintf("%s-%03d", family, i); !ids[id] {
				t.Errorf("the %s- family skips %s", family, id)
			}
		}
	}
	for id := range rows {
		if !named[id] {
			t.Errorf("row %s is in no requirement", id)
		}
	}
	if t.Failed() {
		return
	}
	for _, tr := range targets {
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			for _, req := range requirements {
				for _, tn := range req.targets {
					if tn == tr.name {
						t.Run(req.id, func(t *testing.T) { rows[req.id](t, tr.mk) })
					}
				}
			}
		})
	}
}

func mkOf(name string) maker {
	for _, tr := range targets {
		if tr.name == name {
			return tr.mk
		}
	}
	return nil
}

// --------------------------------------------------------------------- SUB

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

// SUB-001: a servable envelope is admitted: one subscription opens, its
// cursor at 0.
func specSubscribeAck(t *testing.T, mk maker) {
	e := mk(t, setup{})
	h, err := e.subscribe(t, base())
	if err != nil {
		t.Fatalf("servable envelope refused: %v", err)
	}
	if c := h.seen(); c != 0 {
		t.Fatalf("admitted at cursor %d, want 0", c)
	}
	e.finish(t, h)
	if n := e.srv.Metrics.SubsOpened.Load(); n != 1 {
		t.Errorf("subs opened %d, want 1", n)
	}
}

// SUB-008: subscribe refuses, once each, an unknown query, a dead period, a
// firm deadline no evaluation can meet (EvalCost 1 ≥ deadline 1), and a
// deadline-free query at utilization ≥ 1, which admission could never shed
// — over a listener as a refused subscription, in process the last two as
// not admissible. Refusals open nothing.
func specSubscribeRefusals(t *testing.T, mk maker) {
	e := mk(t, setup{})
	for i, bad := range []func(*client.SubSpec){
		func(s *client.SubSpec) { s.Query = "nope_q" },
		func(s *client.SubSpec) { s.Period = 0 },
		func(s *client.SubSpec) { s.Kind, s.Deadline = deadline.Firm, 1 },
		func(s *client.SubSpec) { s.Kind, s.Period = deadline.None, 1 },
	} {
		s := base()
		bad(&s)
		_, err := e.subscribe(t, s)
		if err == nil || e.ns != nil && !e.standby && !errors.Is(err, client.ErrSubRefused) ||
			e.ns == nil && i >= 2 && !errors.Is(err, server.ErrNotAdmissible) {
			t.Fatalf("envelope %d: %v, want a refusal", i, err)
		}
	}
	e.finish(t)
	if n := e.srv.Metrics.SubsOpened.Load(); n != 0 {
		t.Errorf("subs opened %d, want 0: refusals open nothing", n)
	}
}

// SUB-002: delivery is periodic with contiguous cursors from 1 and the
// catalog's stamped answers.
func specPeriodicDelivery(t *testing.T, mk maker) {
	e := mk(t, setup{})
	h, err := e.subscribe(t, base())
	must(t, err)
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
	if h.seen() < got[2].cursor || h.received() < 3 {
		t.Fatalf("bookkeeping: cursor %d received %d after 3 pushes to cursor %d", h.seen(), h.received(), got[2].cursor)
	}
	e.finish(t, h)
}

// SUB-003: a reader that sleeps through a burst loses pushes to the bounded
// stages — oldest first server-side — and every loss is counted: the audit
// arithmetic closes exactly at quiescence.
func specDropOldest(t *testing.T, mk maker) {
	e := mk(t, setup{})
	s := base()
	s.Depth = 2
	s.Buffer = 1
	h, err := e.subscribe(t, s)
	must(t, err)
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
	if received := h.received(); received != uint64(len(got)) || received+dropped+expired+h.lost() != h.seen() {
		t.Fatalf("audit open: received %d + dropped %d + expired %d + local %d != seen %d",
			received, dropped, expired, h.lost(), h.seen())
	}
	e.finish(t, h)
}

// SUB-004: cancel stops delivery; the held cursor is the resume point.
func specCancel(t *testing.T, mk maker) {
	e := mk(t, setup{})
	h, err := e.subscribe(t, base())
	must(t, err)
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
func resumeShape(t *testing.T, e *target, sever func(t *testing.T, hs ...handle)) {
	h, err := e.subscribe(t, base())
	must(t, err)
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
func specResumeReconnect(t *testing.T, mk maker) {
	e := mk(t, setup{})
	resumeShape(t, e, e.sever)
}

// SUB-006: resume after a failover onto the promoted successor.
func specResumeFailover(t *testing.T, mk maker) {
	e := mk(t, setup{failover: true})
	resumeShape(t, e, e.failover)
}

// SUB-009: a subscription resumed at the cursor its cancel answered with
// continues at cursor+1 with fresh tallies: nothing replayed, nothing
// skipped. Over a listener the closing SubAck carries the cursor and a
// SubResume names it; in process Cancel returns it and a new attachment
// takes it.
func specResumeAtCursor(t *testing.T, mk maker) {
	e := mk(t, setup{})
	if e.ns == nil {
		s := toSubSpec(base())
		ss, err := e.srv.Subscribe(s, 0, 16)
		must(t, err)
		e.advance(t, 8)
		if _, ok := (&lbHandle{ss: ss}).next(5 * time.Second); !ok {
			t.Fatal("no push before cancel")
		}
		held, err := ss.Cancel()
		must(t, err)
		ss, err = e.srv.Subscribe(s, held, 16)
		must(t, err)
		h := &lbHandle{spec: base(), ss: ss}
		e.advance(t, 8)
		if p, ok := h.next(5 * time.Second); !ok || p.cursor != held+1 || p.dropped != 0 || p.expired != 0 {
			t.Fatalf("first resumed push: %+v (ok %v), want cursor %d with fresh tallies", p, ok, held+1)
		}
		e.finish(t, h)
		return
	}
	rc := e.raw(t, "resume", true)
	open := rtwire.SubOpen{ID: 1, Query: "status_q", Period: 2, Kind: deadline.Soft, Deadline: 50, MinUseful: 1, Depth: 16}
	rc.write(open.Encode())
	if a := expectSubAck(t, rc, nil); a.State != rtwire.SubAdmitted {
		t.Fatalf("open ack: %+v", a)
	}
	e.advance(t, 8)
	if p, ok := rc.read().(rtwire.Push); !ok {
		t.Fatalf("want a push before cancel, got %+v", p)
	}
	rc.write(rtwire.SubCancel{ID: 1}.Encode())
	closed := expectSubAck(t, rc, nil)
	if closed.State != rtwire.SubClosed {
		t.Fatalf("close ack %+v", closed)
	}
	rc.write(rtwire.SubResume{ID: 2, Query: open.Query, Period: open.Period, Kind: open.Kind, Deadline: open.Deadline,
		MinUseful: open.MinUseful, Depth: open.Depth, AfterCursor: closed.Cursor}.Encode())
	if a := expectSubAck(t, rc, nil); a.ID != 2 || a.State != rtwire.SubAdmitted || a.Cursor != closed.Cursor {
		t.Fatalf("resume ack: %+v", a)
	}
	e.advance(t, 8)
	if p, ok := rc.read().(rtwire.Push); !ok || p.ID != 2 || p.Cursor != closed.Cursor+1 || p.Dropped != 0 || p.Expired != 0 {
		t.Fatalf("first resumed push: %+v, want cursor %d with fresh tallies", p, closed.Cursor+1)
	}
	rc.write(rtwire.SubCancel{ID: 2}.Encode())
	expectSubAck(t, rc, nil)
	e.finish(t)
}

// SUB-007: a horizon that leaps past a tight soft envelope expires the stale
// ticks instead of serving answers whose usefulness already decayed — counted
// cursor gaps that the next delivered push carries, on the books as expired.
func specStaleTicksExpire(t *testing.T, mk maker) {
	e := mk(t, setup{})
	e.advance(t, 1)
	h, err := e.subscribe(t, client.SubSpec{
		Query: "status_q", Period: 1, Kind: deadline.Soft, Deadline: 2, Depth: 32, Buffer: 64,
	})
	must(t, err)
	// One sample that leaps the horizon 20 chronons: every tick between
	// falls due in one advance, and only the freshest survive admission.
	p := e.primary
	must(t, p.log.Append(wal.Sample(p.log.State().LastAt+20, "temp", "30")))
	e.awaitAcked(t)
	got, ok := h.next(5 * time.Second)
	if !ok {
		t.Fatal("no push after the leap")
	}
	if got.expired == 0 {
		t.Fatalf("no ticks expired across the leap: %+v", got)
	}
	if got.cursor != 1+got.dropped+got.expired {
		t.Fatalf("first delivered push: cursor %d dropped %d expired %d", got.cursor, got.dropped, got.expired)
	}
	e.finish(t, h)
	if m := e.srv.Metrics.Snapshot(); m.PushExpired == 0 {
		t.Errorf("expiry not on the books: %+v", m)
	}
}
