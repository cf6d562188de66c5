package replica

import (
	"bufio"
	"net"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultnet"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

const fabStandby = "standby:1"

// fabricStandby is a caught-up replica whose standby listener sits on a
// faultnet fabric, so a test can damage the bytes between it and a client.
type fabricStandby struct {
	t       *testing.T
	r       *Replica
	fab     *faultnet.Fabric
	lp      *wal.Log
	pns     *netserve.Server // the primary's listener
	seq     uint64
	horizon timeseq.Time
}

func newFabricStandby(t *testing.T, opt netserve.Options) *fabricStandby {
	t.Helper()
	lp, pns, _, addr := newTestPrimaryNS(t, 1<<16, 1<<20)
	h := &fabricStandby{t: t, lp: lp, pns: pns, r: newTestReplica(t, addr), fab: faultnet.NewFabric(21)}
	t.Cleanup(func() { h.r.Close(); h.fab.Close() })
	h.r.Start()
	for _, e := range testEvents(0) {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
		h.seq++
	}
	h.advance(1, 1)
	ln, err := h.fab.Listen(fabStandby)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.r.ServeOn(ln, opt); err != nil {
		t.Fatal(err)
	}
	return h
}

// advance appends n samples on the primary, step chronons apart, and waits
// for the standby to apply them.
func (h *fabricStandby) advance(n int, step timeseq.Time) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		h.horizon += step
		if err := h.lp.Append(wal.Sample(h.horizon, "temp", "30")); err != nil {
			h.t.Fatal(err)
		}
		h.seq++
	}
	if !h.r.WaitSeq(h.seq, 10*time.Second) {
		h.t.Fatalf("replica stuck at %d, want %d", h.r.Seq(), h.seq)
	}
}

// dial opens a raw connection from label; hello completes the handshake.
func (h *fabricStandby) dial(label string, hello bool) (net.Conn, *bufio.Reader) {
	h.t.Helper()
	nc, err := h.fab.Dialer(label).DialTimeout("tcp", fabStandby, time.Second)
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	br := newFrameReader(nc)
	if hello {
		if _, err := nc.Write(rtwire.Hello{Client: label}.Encode()); err != nil {
			h.t.Fatal(err)
		}
		if msg, err := readMsg(br); err != nil {
			h.t.Fatal(err)
		} else if w, ok := msg.(rtwire.Welcome); !ok || w.Role != rtwire.RoleStandby {
			h.t.Fatalf("handshake reply: %T %+v", msg, msg)
		}
	}
	return nc, br
}

// rows fetches the standby's metrics reply over a fresh connection.
func (h *fabricStandby) rows() map[string]uint64 {
	h.t.Helper()
	nc, br := h.dial("rows", true)
	defer nc.Close()
	if _, err := nc.Write(rtwire.MetricsReq{ID: 1}.Encode()); err != nil {
		h.t.Fatal(err)
	}
	msg, err := readMsg(br)
	if err != nil {
		h.t.Fatal(err)
	}
	m, ok := msg.(rtwire.Metrics)
	if !ok {
		h.t.Fatalf("metrics reply = %T, want Metrics", msg)
	}
	return m.Map()
}

// await polls cond until it holds; what names the thing that never happened.
func (h *fabricStandby) await(what string, cond func() bool) {
	h.t.Helper()
	for end := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(end) {
			h.t.Fatalf("%s (standby rows: %v)", what, h.rows())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStandbyWireHardening runs against a standby listener the wire checks
// the netserve suite runs against a primary's (TestHandshakeDiscipline,
// TestCorruptedFrameInboundCountedAndReset, TestHeartbeatOneWayPartition and
// the write-timeout eviction the partition sweep leans on): the standby is
// served by the same loop, so each must hold there, under the same row names.
func TestStandbyWireHardening(t *testing.T) {
	const iv = 60 * time.Millisecond
	cases := []struct {
		name string
		opt  netserve.Options
		run  func(t *testing.T, h *fabricStandby)
	}{
		{"non-hello first frame", netserve.Options{}, func(t *testing.T, h *fabricStandby) {
			nc, br := h.dial("rude", false)
			if _, err := nc.Write(rtwire.AsOf{ID: 1, Image: "temp", At: 1}.Encode()); err != nil {
				t.Fatal(err)
			}
			if msg, err := readMsg(br); err != nil {
				t.Fatal(err)
			} else if e, ok := msg.(rtwire.Err); !ok || e.Code != rtwire.CodeBadRequest {
				t.Fatalf("non-hello first frame: %T %+v", msg, msg)
			}
			if got := h.rows()["net_conns_refused"]; got != 1 {
				t.Errorf("net_conns_refused = %d, want 1", got)
			}
		}},
		{"handshake timeout", netserve.Options{HandshakeTimeout: 50 * time.Millisecond}, func(t *testing.T, h *fabricStandby) {
			_, br := h.dial("mute", false)
			if msg, err := readMsg(br); err != nil {
				t.Fatal(err)
			} else if e, ok := msg.(rtwire.Err); !ok || e.Code != rtwire.CodeBadRequest {
				t.Fatalf("silent handshake: %T %+v", msg, msg)
			}
			if _, err := readMsg(br); err == nil {
				t.Fatal("connection left open after a handshake timeout")
			}
			if got := h.rows()["net_conns_refused"]; got != 1 {
				t.Errorf("net_conns_refused = %d, want 1", got)
			}
		}},
		{"corrupt inbound frame", netserve.Options{}, func(t *testing.T, h *fabricStandby) {
			nc, br := h.dial("corrupter", true)
			h.fab.ArmAt(h.fab.Ops()+1, faultnet.Fault{Kind: faultnet.FaultCorrupt})
			if _, err := nc.Write(rtwire.AsOf{ID: 1, Image: "temp", At: 1}.Encode()); err != nil {
				t.Fatal(err)
			}
			// The connection resets — boundaries are gone — with nothing
			// answered but the teardown's Bye.
			for {
				msg, err := readMsg(br)
				if err != nil {
					break
				}
				if _, bye := msg.(rtwire.Bye); !bye {
					t.Fatalf("damaged frame answered with %T %+v", msg, msg)
				}
			}
			rows := h.rows()
			if rows["net_corrupt_frames"] != 1 || rows["net_decode_errors"] != 1 {
				t.Errorf("net_corrupt_frames %d net_decode_errors %d, want 1 and 1",
					rows["net_corrupt_frames"], rows["net_decode_errors"])
			}
			if rows["net_asof_reads"] != 0 {
				t.Errorf("damaged as-of decoded anyway: net_asof_reads = %d", rows["net_asof_reads"])
			}
		}},
		{"one-way partition", netserve.Options{HeartbeatInterval: iv}, func(t *testing.T, h *fabricStandby) {
			c, err := client.Dial(fabStandby, client.Options{
				Name: "hb", Dialer: h.fab.Dialer("hb"), HeartbeatInterval: iv,
				DialTimeout: 500 * time.Millisecond, RetryAttempts: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, _, _, err := c.AsOf("temp", 1); err != nil {
				t.Fatal(err)
			}
			// The client's beacons vanish while the standby still writes
			// fine: only its inbound-silence bound can detect the loss.
			start := time.Now()
			h.fab.PartitionNow(faultnet.Direction{From: "hb", To: fabStandby})
			h.await("standby never cut the half-open connection", func() bool {
				return h.r.ns.Wire.ConnsClosed.Load() >= 1
			})
			if elapsed := time.Since(start); elapsed < 2*iv {
				t.Fatalf("cut after %v — before the silence bound; that is an error path, not the watchdog", elapsed)
			}
			h.fab.Heal()
		}},
		{"write timeout", netserve.Options{WriteTimeout: 100 * time.Millisecond}, func(t *testing.T, h *fabricStandby) {
			nc, br := h.dial("stalled", true)
			if _, err := nc.Write(rtwire.SubOpen{
				ID: 1, Query: "status_q", Period: 1,
				Kind: deadline.Soft, Deadline: 1 << 20, MinUseful: 1, Depth: 4,
			}.Encode()); err != nil {
				t.Fatal(err)
			}
			if msg, err := readMsg(br); err != nil {
				t.Fatal(err)
			} else if a, ok := msg.(rtwire.SubAck); !ok || a.State != rtwire.SubAdmitted {
				t.Fatalf("SubOpen ack: %T %+v", msg, msg)
			}
			h.fab.StallAll(fabStandby, "stalled")
			// A client that cannot absorb frames within WriteTimeout is cut
			// and counted; replication never waits for it.
			h.advance(8, 1)
			h.await("stalled subscriber never evicted", func() bool {
				return h.r.ns.Wire.WriteTimeouts.Load() == 1 && h.r.ns.Wire.ConnsClosed.Load() == 1
			})
			h.fab.Heal()
			if got := h.rows()["net_write_timeouts"]; got != 1 {
				t.Errorf("net_write_timeouts = %d, want 1", got)
			}
			h.await("evicted subscription still open", func() bool {
				m := h.r.srv.Metrics.Snapshot()
				return m.SubsOpened == m.SubsClosed && m.PushAccounted() == m.PushScheduled
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newFabricStandby(t, tc.opt)) })
	}
}
