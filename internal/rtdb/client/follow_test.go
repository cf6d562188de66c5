package client_test

import (
	"bufio"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"rtc/internal/rtdb/client"
	"rtc/internal/rtwire"
)

// TestFollowDumpOutlivesStaleLoss: a loss token that reaches a live stream
// in the middle of a resync dump — a loss seen twice, by a failed write and
// by the dead connection's read loop — runs Retry on the live link, and the
// dump still reaches Apply once and whole: the chunks before the token and
// after it, in one SnapFinal batch, over the one connection.
func TestFollowDumpOutlivesStaleLoss(t *testing.T) {
	dump := []string{"$I@0@temp$", "$S@1@temp@20$", "$S@2@temp@21$", "$S@3@temp@22$"}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	release := make(chan struct{})
	accepted := make(chan struct{}, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- struct{}{}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := rtwire.ReadFrame(br); err != nil { // Hello
					return
				}
				_, _ = conn.Write(rtwire.Welcome{Epoch: 1, Role: rtwire.RolePrimary, Shards: 1}.Encode())
				if _, err := rtwire.ReadFrame(br); err != nil { // Subscribe
					return
				}
				_, _ = conn.Write(rtwire.WalBatch{Epoch: 1, Snap: rtwire.SnapPart, Events: dump[:2]}.Encode())
				_, _ = conn.Write(rtwire.Heartbeat{Epoch: 1, Seq: 77}.Encode()) // marks the first chunk read
				<-release
				_, _ = conn.Write(rtwire.WalBatch{Epoch: 1, Snap: rtwire.SnapPart, Events: dump[2:]}.Encode())
				_, _ = conn.Write(rtwire.WalBatch{Epoch: 1, Snap: rtwire.SnapFinal, SnapSeq: 9, SnapLastAt: 3}.Encode())
				_, _ = io.Copy(io.Discard, br)
			}(conn)
		}
	}()

	applied := make(chan rtwire.WalBatch, 8)
	retried := make(chan struct{}, 8)
	c := client.Follow(ln.Addr().String(), client.Options{
		RetryBackoff: time.Millisecond, RetryBackoffMax: 5 * time.Millisecond, HeartbeatInterval: 5 * time.Second,
	}, client.FollowSpec{
		After: func() uint64 { return 0 },
		Apply: func(b rtwire.WalBatch) error { applied <- b; return nil },
		Adopt: func(uint64) bool { return true },
		Retry: func(time.Duration) { retried <- struct{}{} },
	})
	defer c.Close()
	for end := time.Now().Add(10 * time.Second); c.Stats.MaxPrimarySeq.Load() != 77; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("the first chunk never arrived")
		}
	}
	c.PostLoss()
	select {
	case <-retried:
	case <-time.After(10 * time.Second):
		t.Fatal("the stale loss never reached Retry")
	}
	close(release)
	select {
	case b := <-applied:
		if b.Snap != rtwire.SnapFinal || b.SnapSeq != 9 || !reflect.DeepEqual(b.Events, dump) {
			t.Fatalf("Apply got %+v, want one SnapFinal at 9 carrying the whole dump %q", b, dump)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the dump never reached Apply")
	}
	select {
	case b := <-applied:
		t.Fatalf("a second batch reached Apply: %+v", b)
	case <-time.After(50 * time.Millisecond):
	}
	if n := len(accepted); n != 1 {
		t.Fatalf("%d connections, want the one live stream", n)
	}
}
