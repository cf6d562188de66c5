package replica

import (
	"bufio"
	"net"
	"testing"
	"time"

	"rtc/internal/faultnet"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtwire"
)

const fabStandby = "standby:1"

// fabricStandby is a caught-up replica whose standby listener sits on a
// faultnet fabric, so a test can speak raw frames to it.
type fabricStandby struct {
	t   *testing.T
	r   *Replica
	fab *faultnet.Fabric
}

func newFabricStandby(t *testing.T, opt netserve.Options) *fabricStandby {
	t.Helper()
	lp, _, addr := newTestPrimary(t, 1<<16, 1<<20)
	h := &fabricStandby{t: t, r: newTestReplica(t, addr), fab: faultnet.NewFabric(21)}
	t.Cleanup(func() { h.r.Close(); h.fab.Close() })
	h.r.Start()
	for _, e := range append(testEvents(0), wal.Sample(1, "temp", "30")) {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if n := uint64(len(testEvents(0)) + 1); !h.r.WaitSeq(n, 10*time.Second) {
		t.Fatalf("replica stuck at %d, want %d", h.r.Seq(), n)
	}
	ln, err := h.fab.Listen(fabStandby)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.r.ServeOn(ln, opt); err != nil {
		t.Fatal(err)
	}
	return h
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

// TestStandbyWireHardening runs against a standby listener the handshake
// checks netserve runs against a primary's: the standby is served by the
// same loop, so each must hold there, under the same row names. The
// standby's corrupt-frame reset, one-way partition and write-timeout
// eviction are the conformance suite's WIRE-005, WIRE-006 and WIRE-009 on
// its standby target.
func TestStandbyWireHardening(t *testing.T) {
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newFabricStandby(t, tc.opt)) })
	}
}
