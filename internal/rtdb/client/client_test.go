package client_test

import (
	"errors"
	"net"
	"strconv"
	"testing"
	"time"

	"rtc/internal/faultnet"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
)

func statusDerive(src map[string]rtdb.Value) rtdb.Value {
	t, _ := strconv.Atoi(src["temp"])
	l, _ := strconv.Atoi(src["limit"])
	if t > l {
		return "high"
	}
	return "ok"
}

func testServerConfig() server.Config {
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
	}
}

// startServer stands up a started server behind a loopback listener — or,
// given a fabric, behind its listener at addr with the short beacon and write
// deadlines the teardown tests blackhole, reset and stall — and hands back
// the server, so a test can wait on what it has applied, and the address.
func startServer(t *testing.T, fab *faultnet.Fabric, addr string) (*server.Server, string) {
	t.Helper()
	cfg := testServerConfig()
	cfg.QueueDepth = 256 // a 64-sample burst arriving at wire speed fits
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	opt, ln := netserve.Options{}, net.Listener(nil)
	if fab == nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	} else {
		opt = netserve.Options{HeartbeatInterval: 50 * time.Millisecond, WriteTimeout: 100 * time.Millisecond}
		ln, err = fab.Listen(addr)
	}
	if err != nil {
		s.Stop()
		t.Fatal(err)
	}
	ns := netserve.New(s, opt)
	go func() { _ = ns.Serve(ln) }()
	t.Cleanup(func() {
		_ = ns.Close()
		s.Stop()
	})
	return s, ln.Addr().String()
}

// TestDialFailureIsFast: with retries disabled a dial against a dead port
// fails promptly instead of hanging through a backoff ladder.
func TestDialFailureIsFast(t *testing.T) {
	start := time.Now()
	_, err := client.Dial("127.0.0.1:1", client.Options{
		RetryAttempts: -1, DialTimeout: 500 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("dial of a dead port succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("dial failure took %v", d)
	}
}

// TestClientEndToEnd drives the whole public client surface against a
// live loopback server.
func TestClientEndToEnd(t *testing.T) {
	_, addr := startServer(t, nil, "")
	c, err := client.Dial(addr, client.Options{Name: "e2e"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.InjectSample("temp", "25"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := c.Query(client.Query{Query: "status_q", Candidate: "high"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Match || !r.Evaluated {
		t.Fatalf("derived query: %+v", r)
	}

	// Temporal read: learn the horizon with a throwaway read, then read a
	// chronon the snapshot definitely covers.
	_, _, horizon, err := c.AsOf("temp", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, _, err := c.AsOf("temp", horizon/2); err != nil {
		t.Fatal(err)
	} else if ok && v == "" {
		t.Fatal("as-of returned ok with empty value")
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Map()["queries_in"] != 1 {
		t.Fatalf("queries_in = %d, want 1", m.Map()["queries_in"])
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The client is closed: further calls fail with ErrClosed.
	if _, err := c.Query(client.Query{Query: "status_q"}); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("query after close: %v", err)
	}
}
