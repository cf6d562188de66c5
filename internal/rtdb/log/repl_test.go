package log

import (
	"errors"
	"reflect"
	"testing"

	"rtc/internal/timeseq"
)

// fillLog appends n events (an image definition followed by samples) and
// returns the appended events in order.
func fillLog(t *testing.T, l *Log, n int) []Event {
	t.Helper()
	events := []Event{Image("temp", 5)}
	for i := 1; i < n; i++ {
		events = append(events, Sample(timeseq.Time(i), "temp", "v"))
	}
	for _, e := range events {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	return events
}

// payloadsOf renders events as the record payloads replication ships.
func payloadsOf(events []Event) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = string(e.Payload())
	}
	return out
}

// TestReadSinceGaps is the table-driven gap battery for Subscribe handling —
// a fresh ReadFrom position at the follower's afterSeq, as a new
// subscription starts: afterSeq past the tail, inside a compacted-away
// segment (refused, as past the tail is), exactly at a segment boundary, at the
// tail, and mid-segment.
func TestReadSinceGaps(t *testing.T) {
	// Small segments so the log rotates: each Append is ~20 bytes, so
	// SegmentSize 64 seals a segment every ~3 events.
	mk := func(t *testing.T, compact bool) (*Log, []Event) {
		l, err := Open(Options{Dir: t.TempDir(), SegmentSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		events := fillLog(t, l, 30)
		if compact {
			if err := l.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		return l, events
	}

	t.Run("past_tail", func(t *testing.T) {
		l, _ := mk(t, false)
		defer l.Close()
		if _, err := l.ReadFrom(&ReadPos{Seq: 31}, 100); !errors.Is(err, ErrSeqFuture) {
			t.Fatalf("afterSeq past tail: err = %v, want ErrSeqFuture", err)
		}
	})

	t.Run("at_tail", func(t *testing.T) {
		l, _ := mk(t, false)
		defer l.Close()
		got, err := l.ReadFrom(&ReadPos{Seq: 30}, 100)
		if err != nil || len(got) != 0 {
			t.Fatalf("afterSeq at tail: got %d events, err %v; want 0, nil", len(got), err)
		}
	})

	t.Run("compacted_away", func(t *testing.T) {
		l, _ := mk(t, true)
		defer l.Close()
		// After Snapshot+Compact only the active segment survives; a
		// subscriber that is far behind is told its events are gone.
		if _, err := l.ReadFrom(&ReadPos{Seq: 0}, 100); !errors.Is(err, ErrSeqCompacted) {
			t.Fatalf("afterSeq in compacted segment: err = %v, want ErrSeqCompacted", err)
		}
	})

	t.Run("segment_boundaries", func(t *testing.T) {
		l, events := mk(t, false)
		defer l.Close()
		// Exercise every boundary: each segment's firstSeq−1 is "exactly at
		// a segment boundary" for the follower.
		l.mu.Lock()
		boundaries := make([]uint64, 0, len(l.segFirstSeq))
		for _, first := range l.segFirstSeq {
			boundaries = append(boundaries, first-1)
		}
		l.mu.Unlock()
		if len(boundaries) < 3 {
			t.Fatalf("want ≥ 3 segments for a boundary test, got %d", len(boundaries))
		}
		for _, after := range boundaries {
			pos := &ReadPos{Seq: after}
			got, err := l.ReadFrom(pos, len(events))
			if err != nil {
				t.Fatalf("afterSeq %d at boundary: %v", after, err)
			}
			want := payloadsOf(events[after:])
			if len(got) != len(want) {
				t.Fatalf("afterSeq %d: got %d events, want %d", after, len(got), len(want))
			}
			if pos.Seq != after+uint64(len(got)) {
				t.Fatalf("afterSeq %d: position at seq %d after %d events", after, pos.Seq, len(got))
			}
			for i, p := range got {
				if p != want[i] {
					t.Fatalf("afterSeq %d: event %d = %q, want %q", after, i, p, want[i])
				}
			}
		}
	})

	t.Run("mid_segment_with_max", func(t *testing.T) {
		l, events := mk(t, false)
		defer l.Close()
		pos := &ReadPos{Seq: 7}
		got, err := l.ReadFrom(pos, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 || pos.Seq != 12 {
			t.Fatalf("mid-segment page: %q, position at seq %d", got, pos.Seq)
		}
		if want := string(events[7].Payload()); got[0] != want {
			t.Fatalf("mid-segment event mismatch: %q vs %q", got[0], want)
		}
	})

	t.Run("survives_reopen", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, SegmentSize: 64, SnapshotEvery: 10})
		if err != nil {
			t.Fatal(err)
		}
		events := fillLog(t, l, 30)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopen replays from the newest snapshot; the segment index must
		// be rebuilt for the pre-snapshot region too.
		l2, err := Open(Options{Dir: dir, SegmentSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		got, err := l2.ReadFrom(&ReadPos{Seq: 0}, len(events))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(events) {
			t.Fatalf("after reopen: got %d events, want %d", len(got), len(events))
		}
		if want := payloadsOf(events); !reflect.DeepEqual(got, want) {
			t.Fatalf("after reopen: read %q, want %q", got, want)
		}
	})
}

// TestAdvancedWakesPerAppend: on a log without Sync every append moves the
// shippable tail, so a caught-up reader waiting in Advanced is woken by the
// next append — once per advance, with the event readable when it wakes —
// and a reader that is behind is never made to wait.
func TestAdvancedWakesPerAppend(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pos := &ReadPos{}
	for i, e := range []Event{Image("temp", 5), Sample(1, "temp", "v"), Sample(2, "temp", "w")} {
		adv := l.Advanced(pos.Seq)
		if fired(adv) {
			t.Fatalf("append %d: Advanced fired with nothing new to read", i)
		}
		if again := l.Advanced(pos.Seq); again != adv {
			t.Fatalf("append %d: two waiters at the tail got different channels", i)
		}
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
		if !fired(adv) {
			t.Fatalf("append %d did not wake the waiting reader", i)
		}
		got, err := l.ReadFrom(pos, 8)
		if err != nil || len(got) != 1 || pos.Seq != uint64(i+1) || got[0] != string(e.Payload()) {
			t.Fatalf("append %d: woken reader read %q to seq %d (err %v)", i, got, pos.Seq, err)
		}
	}
	// Behind the tail there is nothing to wait for.
	if !fired(l.Advanced(1)) {
		t.Fatal("Advanced(1) with the tail at 3 is not already closed")
	}
	l.mu.Lock()
	idle := l.advanced == nil
	l.mu.Unlock()
	if !idle {
		t.Fatal("a fired wake-up channel was kept: appends with no waiter must find nil")
	}
}

func TestEpochPersistence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Epoch(); got != 1 {
		t.Fatalf("fresh epoch = %d, want 1", got)
	}
	if e, err := l.BumpEpoch(); err != nil || e != 2 {
		t.Fatalf("BumpEpoch = %d, %v", e, err)
	}
	if err := l.AdoptEpoch(5); err != nil {
		t.Fatal(err)
	}
	if err := l.AdoptEpoch(3); err != nil { // older: ignored
		t.Fatal(err)
	}
	if got := l.Epoch(); got != 5 {
		t.Fatalf("epoch = %d, want 5", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Epoch(); got != 5 {
		t.Fatalf("epoch after reopen = %d, want 5", got)
	}
}
