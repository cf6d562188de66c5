package netserve

import (
	"testing"
	"time"

	"rtc/internal/faultnet"
	"rtc/internal/rtdb/client"
)

// TestHeartbeatOneWayPartition pins the two halves of the silence-bound
// contract against a genuine half-open socket: one direction of the
// connection is blackholed (writes look like success, nothing arrives)
// while the other keeps flowing, and whichever side stops hearing frames
// must cut the connection within three heartbeat intervals.
//
//   - client→server blackholed: the client's beacons vanish, the server
//     still writes fine — only its inbound-silence bound
//     (min(2 min, 3×HeartbeatInterval)) can detect the loss.
//   - server→client blackholed: heartbeat echoes vanish, and the client's
//     read, armed with a deadline of 3 intervals, ends; it cuts and
//     rotates.
func TestHeartbeatOneWayPartition(t *testing.T) {
	const iv = 60 * time.Millisecond
	cases := []struct {
		name string
		dir  faultnet.Direction
		cut  func(c *client.Client, ns *Server) bool
		what string
	}{
		{
			name: "client-to-server-blackholed",
			dir:  faultnet.Direction{From: "hb", To: "srv:1"},
			cut: func(_ *client.Client, ns *Server) bool {
				return ns.Wire.ConnsClosed.Load() >= 1
			},
			what: "server idle watchdog",
		},
		{
			name: "server-to-client-blackholed",
			dir:  faultnet.Direction{From: "srv:1", To: "hb"},
			cut: func(c *client.Client, _ *Server) bool {
				return c.Stats.HeartbeatTimeouts.Load() >= 1
			},
			what: "client heartbeat watchdog",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fab := faultnet.NewFabric(7)
			defer fab.Close()
			_, ns := startFabricNet(t, fab, "srv:1", Options{HeartbeatInterval: iv})
			c := fabricClient(t, fab, "hb", "srv:1", iv)
			if err := c.InjectSample("temp", "21"); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}

			start := time.Now()
			fab.PartitionNow(tc.dir)
			// 3 intervals is the contract; the slack absorbs scheduler
			// jitter on loaded CI, not a looser bound.
			dl := start.Add(3*iv + 2*time.Second)
			for !tc.cut(c, ns) {
				if time.Now().After(dl) {
					t.Fatalf("%s never cut the half-open connection", tc.what)
				}
				time.Sleep(2 * time.Millisecond)
			}
			elapsed := time.Since(start)
			if elapsed < 2*iv {
				t.Fatalf("%s cut after %v — before the silence bound; that is an error path, not the watchdog", tc.what, elapsed)
			}
			if elapsed > 3*iv+time.Second {
				t.Errorf("%s took %v, want ≈3 intervals (%v)", tc.what, elapsed, 3*iv)
			}
			fab.Heal()
			_ = c.Close()
		})
	}
}
