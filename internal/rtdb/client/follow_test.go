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

// TestFollowBatchesOutliveStaleLoss: a loss token that reaches a live
// stream between two batches — a loss seen twice, by a failed write and by
// the dead connection's read loop — runs Retry on the live link, and each
// batch still reaches Apply once, in order: the one before the token and the
// one after it, over the one connection.
func TestFollowBatchesOutliveStaleLoss(t *testing.T) {
	events := []string{"$I@0@temp$", "$S@1@temp@20$", "$S@2@temp@21$", "$S@3@temp@22$"}
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
				_, _ = conn.Write(rtwire.WalBatch{Epoch: 1, FirstSeq: 1, Events: events[:2]}.Encode())
				_, _ = conn.Write(rtwire.Heartbeat{Epoch: 1, Seq: 77}.Encode()) // marks the first batch read
				<-release
				_, _ = conn.Write(rtwire.WalBatch{Epoch: 1, FirstSeq: 3, Events: events[2:]}.Encode())
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
			t.Fatal("the first batch never arrived")
		}
	}
	c.PostLoss()
	select {
	case <-retried:
	case <-time.After(10 * time.Second):
		t.Fatal("the stale loss never reached Retry")
	}
	close(release)
	for _, want := range []rtwire.WalBatch{{Epoch: 1, FirstSeq: 1, Events: events[:2]}, {Epoch: 1, FirstSeq: 3, Events: events[2:]}} {
		select {
		case b := <-applied:
			if !reflect.DeepEqual(b, want) {
				t.Fatalf("Apply got %+v, want %+v", b, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("batch at %d never reached Apply", want.FirstSeq)
		}
	}
	select {
	case b := <-applied:
		t.Fatalf("a third batch reached Apply: %+v", b)
	case <-time.After(50 * time.Millisecond):
	}
	if n := len(accepted); n != 1 {
		t.Fatalf("%d connections, want the one live stream", n)
	}
}
