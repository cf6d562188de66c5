package client_test

import (
	"bufio"
	"io"
	"net"
	"testing"
	"time"

	"rtc/internal/rtdb/client"
	"rtc/internal/rtwire"
)

// fakeNode is a hand-rolled rtwire endpoint for failure-mode tests: it
// accepts up to accepts connections, answers each Hello with a Welcome
// announcing the given epoch, and then either freezes (swallows inbound
// frames, never writes again — a wedged peer) or closes immediately. After
// the accept budget the listener closes, so further dials are refused.
func fakeNode(t *testing.T, epoch uint64, freeze bool, accepts int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for i := 0; i < accepts; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := rtwire.ReadFrame(br); err != nil {
					return
				}
				_, _ = conn.Write(rtwire.Welcome{
					Session: 0, Chronon: 0, Epoch: epoch, Role: rtwire.RolePrimary,
				}.Encode())
				if freeze {
					_, _ = io.Copy(io.Discard, conn)
				}
			}(conn)
		}
		_ = ln.Close()
	}()
	return ln.Addr().String()
}

// TestStaleEpochFenced: the client first reaches a node at epoch 5; after
// that node goes away, the only reachable node announces epoch 3 — a
// deposed primary. The client must refuse it (StaleRejected) and must not
// regress its epoch watermark.
func TestStaleEpochFenced(t *testing.T) {
	newer := fakeNode(t, 5, false, 1) // handshake once at epoch 5, then gone
	stale := fakeNode(t, 3, true, 16) // a deposed primary, happy to talk

	c, err := client.Dial(newer+","+stale, client.Options{
		RetryAttempts: -1, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Epoch(); got != 5 {
		t.Fatalf("epoch after first handshake = %d, want 5", got)
	}

	// The epoch-5 node closed right after the handshake; give the read
	// loop a moment to notice, then force traffic. Every reconnect lands
	// on the stale node (the newer one refuses dials now) and must be
	// fenced rather than accepted.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats.StaleRejected.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stale node was never fenced")
		}
		_, _ = c.Query(client.Query{Query: "anything"})
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Epoch(); got != 5 {
		t.Fatalf("epoch watermark regressed to %d after meeting the stale node", got)
	}
}
