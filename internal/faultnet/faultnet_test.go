package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"rtc/internal/rtwire"
)

// pair dials one connection through a fresh fabric, returning both ends.
func pair(t *testing.T, f *Fabric, clientLabel, serverAddr string) (client, server net.Conn) {
	t.Helper()
	ln, err := f.Listen(serverAddr)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := f.Dialer(clientLabel).DialTimeout("tcp", serverAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-accepted:
		return c, s
	case <-time.After(2 * time.Second):
		t.Fatal("accept never completed")
		return nil, nil
	}
}

func TestRoundTripAndClose(t *testing.T) {
	f := NewFabric(1)
	defer f.Close()
	c, s := pair(t, f, "client", "srv:1")

	msg := []byte("hello over the fabric")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, wrote %q", got, msg)
	}
	// Reverse direction works too.
	if _, err := s.Write([]byte("ack")); err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, 3)
	if _, err := io.ReadFull(c, ack); err != nil {
		t.Fatal(err)
	}

	// Graceful close: the peer drains to EOF; our own reads fail ErrClosed;
	// peer writes see a reset.
	c.Close()
	if _, err := s.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer read after close: %v, want EOF", err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("own read after close: %v, want ErrClosed", err)
	}
	if _, err := s.Write([]byte("x")); err == nil {
		t.Fatal("write to a closed peer succeeded")
	}
}

func TestReadDeadlineAndInterrupt(t *testing.T) {
	f := NewFabric(1)
	defer f.Close()
	c, _ := pair(t, f, "client", "srv:1")

	// A past deadline interrupts a blocked read — the netserve
	// interruptRead idiom (SetReadDeadline(now)) must work.
	errc := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = c.SetReadDeadline(time.Now())
	select {
	case err := <-errc:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("interrupted read: %v, want deadline exceeded", err)
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("deadline error is not a net.Error timeout: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read not interrupted by SetReadDeadline(now)")
	}
}

func TestCutDeliversPrefixThenReset(t *testing.T) {
	run := func(seed uint64) (prefix []byte, werr error) {
		f := NewFabric(seed)
		defer f.Close()
		c, s := pair(t, f, "client", "srv:1")
		f.ArmAt(2, Fault{Kind: FaultCut})

		if _, err := c.Write([]byte("frame-one")); err != nil { // op 1
			t.Fatal(err)
		}
		_, werr = c.Write([]byte("frame-two-cut-here")) // op 2: fires
		got := make([]byte, 64)
		n, _ := io.ReadFull(s, got[:9]) // frame-one arrives whole
		total := n
		for {
			m, err := s.Read(got[total:])
			total += m
			if err != nil {
				if !errors.Is(err, ErrInjectedReset) {
					t.Fatalf("reader got %v, want ErrInjectedReset", err)
				}
				break
			}
		}
		return got[9:total], werr
	}
	p1, werr := run(7)
	if werr == nil {
		t.Fatal("cut write reported success")
	}
	if len(p1) >= len("frame-two-cut-here") {
		t.Fatalf("cut delivered the whole write (%d bytes)", len(p1))
	}
	// Determinism: the same seed cuts at the same prefix length.
	p2, _ := run(7)
	if !bytes.Equal(p1, p2) {
		t.Fatalf("cut prefix not deterministic: %q vs %q", p1, p2)
	}
}

func TestDropDesyncsStream(t *testing.T) {
	f := NewFabric(3)
	defer f.Close()
	c, s := pair(t, f, "client", "srv:1")
	f.ArmAt(2, Fault{Kind: FaultDrop})

	for _, m := range []string{"aaaa", "bbbb", "cccc"} {
		if _, err := c.Write([]byte(m)); err != nil {
			t.Fatalf("write %q: %v (drops must look like success)", m, err)
		}
	}
	// A strict prefix of "bbbb" vanished but its suffix flowed on: the
	// reader sees fewer bytes than were written, never cleanly realigned
	// on a write boundary.
	if err := s.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 12)
	n, _ := io.ReadFull(s, got)
	got = got[:n]
	if n <= 8 || n >= 12 {
		t.Fatalf("reader saw %d bytes %q, want a strict-prefix drop of one write (9..11 bytes)", n, got)
	}
	if string(got[:4]) != "aaaa" || string(got[n-4:]) != "cccc" {
		t.Fatalf("reader saw %q, want intact neighbors around the damaged write", got)
	}
	if tapped := f.MalformedStream(); !bytes.Equal(tapped, got[4:]) {
		t.Fatalf("malformed-stream tap = %q, want the reader-visible post-drop bytes %q", tapped, got[4:])
	}
}

func TestCorruptFlipsOneByte(t *testing.T) {
	f := NewFabric(11)
	defer f.Close()
	c, s := pair(t, f, "client", "srv:1")
	f.ArmAt(1, Fault{Kind: FaultCorrupt})

	msg := []byte("payload-to-corrupt")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range msg {
		if msg[i] != got[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1 (sent %q, got %q)", diff, msg, got)
	}
}

func TestStallBlocksUntilHeal(t *testing.T) {
	f := NewFabric(5)
	defer f.Close()
	c, s := pair(t, f, "client", "srv:1")
	f.ArmAt(1, Fault{Kind: FaultStall})

	// The stalled write must respect the write deadline.
	_ = c.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := c.Write([]byte("stuck")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled write: %v, want deadline exceeded", err)
	}
	// After Heal the connection moves again.
	f.Heal()
	_ = c.SetWriteDeadline(time.Time{})
	if _, err := c.Write([]byte("flow")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(s, got); err != nil || string(got) != "flow" {
		t.Fatalf("post-heal read: %q, %v", got, err)
	}
}

func TestOneWayPartitionHoldsAndHeals(t *testing.T) {
	f := NewFabric(9)
	defer f.Close()
	c, s := pair(t, f, "client", "srv:1")
	f.PartitionNow(Direction{From: "client", To: "srv:1"})

	// Blackholed writes look like success — the half-open socket.
	if _, err := c.Write([]byte("held")); err != nil {
		t.Fatal(err)
	}
	_ = s.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := s.Read(make([]byte, 4)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("partitioned read: %v, want silence until deadline", err)
	}
	// The reverse direction still flows: one-way.
	if _, err := s.Write([]byte("back")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(c, got); err != nil || string(got) != "back" {
		t.Fatalf("reverse read under one-way partition: %q, %v", got, err)
	}
	// Heal retransmits the held bytes.
	f.Heal()
	_ = s.SetReadDeadline(time.Time{})
	if _, err := io.ReadFull(s, got); err != nil || string(got) != "held" {
		t.Fatalf("post-heal read: %q, %v", got, err)
	}
}

func TestDialUnderPartitionTimesOut(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	if _, err := f.Listen("srv:1"); err != nil {
		t.Fatal(err)
	}
	f.PartitionNow(Direction{From: "client", To: "srv:1"})
	start := time.Now()
	_, err := f.Dialer("client").DialTimeout("tcp", "srv:1", 50*time.Millisecond)
	if err == nil {
		t.Fatal("dial through a partition succeeded")
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("partitioned dial failed in %v; must hang to its timeout", d)
	}
}

func TestCutAllResetsLiveConns(t *testing.T) {
	f := NewFabric(4)
	defer f.Close()
	c, s := pair(t, f, "client", "srv:1")
	f.CutAll("client", "srv:1")
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("client read after CutAll: %v", err)
	}
	if _, err := s.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("server write after CutAll: %v", err)
	}
}

func TestChaosShapingPreservesBytes(t *testing.T) {
	f := NewFabric(6)
	defer f.Close()
	f.Chaos(3, 0)
	c, s := pair(t, f, "client", "srv:1")
	msg := bytes.Repeat([]byte("0123456789"), 20)
	go func() { _, _ = c.Write(msg) }()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("chaos shaping altered the byte stream")
	}
}

// coalesced is what a client that batches its sends puts in one socket
// write: two fire-and-forget samples and the Flush whose ack covers them.
func coalesced() (write []byte, firstFrame int) {
	write = rtwire.Sample{ID: 1, Image: "temp", Value: "21"}.AppendTo(nil)
	firstFrame = len(write)
	write = rtwire.Sample{ID: 2, Image: "temp", Value: "22"}.AppendTo(write)
	return rtwire.Flush{ID: 3}.AppendTo(write), firstFrame
}

// dropCoalesced arms drop (with the given Span) at one coalesced write and
// returns the frames a framing reader decodes from what is left, the error
// that ended the stream, and how many bytes vanished.
func dropCoalesced(t *testing.T, seed uint64, span int) (frames []any, end error, dropped int) {
	t.Helper()
	f := NewFabric(seed)
	defer f.Close()
	c, s := pair(t, f, "client", "srv:1")
	f.ArmAt(1, Fault{Kind: FaultDrop, Span: span})
	write, _ := coalesced()
	if _, err := c.Write(write); err != nil {
		t.Fatalf("dropped write: %v (drops must look like success)", err)
	}
	c.Close() // the reader drains what was delivered, then EOF
	dropped = len(write) - len(f.MalformedStream())
	for {
		fr, err := rtwire.ReadFrame(s)
		if err != nil {
			return frames, err, dropped
		}
		msg, err := rtwire.Decode(fr)
		if err != nil {
			return frames, err, dropped
		}
		frames = append(frames, msg)
	}
}

// TestDropSpan: why a coalescing writer's drop fault carries a Span.
//
// Span 0 draws the vanished prefix from the whole write, and the draw can end
// exactly on a frame boundary: seed 54 elides the first Sample and hands the
// reader a well-formed "Sample, Flush" — a write the peer will acknowledge
// with a sample missing behind the ack, which is a transport no network is
// (TCP never acks-and-omits on a connection that keeps delivering). With
// Span at the frame header size the damage always lands inside the first
// header: the reader decodes nothing from the damaged write, on any seed,
// and what ends the stream is frame damage, so the connection resets.
func TestDropSpan(t *testing.T) {
	_, firstFrame := coalesced()
	frames, end, dropped := dropCoalesced(t, 54, 0)
	if dropped != firstFrame {
		t.Fatalf("seed 54 dropped %d bytes, not the first frame's %d: the draw moved, pick the seed that aligns again", dropped, firstFrame)
	}
	if len(frames) != 2 || end != io.EOF {
		t.Fatalf("boundary-aligned drop read %d frames then %v, want a clean Sample, Flush, EOF", len(frames), end)
	}
	if m, ok := frames[0].(rtwire.Sample); !ok || m.ID != 2 {
		t.Fatalf("first surviving frame %+v, want the second Sample", frames[0])
	}
	if _, ok := frames[1].(rtwire.Flush); !ok {
		t.Fatalf("second surviving frame %+v, want the Flush", frames[1])
	}

	for seed := uint64(1); seed <= 200; seed++ {
		frames, end, dropped := dropCoalesced(t, seed, rtwire.HeaderSize)
		if dropped < 1 || dropped >= rtwire.HeaderSize {
			t.Fatalf("seed %d: Span %d dropped %d bytes", seed, rtwire.HeaderSize, dropped)
		}
		if len(frames) != 0 || !rtwire.IsCorruptFrame(end) {
			t.Fatalf("seed %d: %d frames decoded after the damaged write, stream ended with %v; want none and frame damage",
				seed, len(frames), end)
		}
	}
}
