package netserve

import (
	"testing"
	"time"

	"rtc/internal/faultnet"
)

// TestHeartbeatOneWayPartition pins the server's half of the silence-bound
// contract against a genuine half-open socket: the client's beacons are
// blackholed (writes look like success, nothing arrives) while the server
// still writes fine, so only its inbound-silence bound
// (min(2 min, 3×HeartbeatInterval)) can detect the loss, and it must cut
// the connection within three heartbeat intervals. The client's half, a
// frozen listener, is the conformance suite's WIRE-017.
func TestHeartbeatOneWayPartition(t *testing.T) {
	const iv = 60 * time.Millisecond
	t.Run("client-to-server-blackholed", func(t *testing.T) {
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
		fab.PartitionNow(faultnet.Direction{From: "hb", To: "srv:1"})
		// 3 intervals is the contract; the slack absorbs scheduler
		// jitter on loaded CI, not a looser bound.
		dl := start.Add(3*iv + 2*time.Second)
		for ns.Wire.ConnsClosed.Load() < 1 {
			if time.Now().After(dl) {
				t.Fatal("server idle watchdog never cut the half-open connection")
			}
			time.Sleep(2 * time.Millisecond)
		}
		elapsed := time.Since(start)
		if elapsed < 2*iv {
			t.Fatalf("server idle watchdog cut after %v — before the silence bound; that is an error path, not the watchdog", elapsed)
		}
		if elapsed > 3*iv+time.Second {
			t.Errorf("server idle watchdog took %v, want ≈3 intervals (%v)", elapsed, 3*iv)
		}
		fab.Heal()
		_ = c.Close()
	})
}
