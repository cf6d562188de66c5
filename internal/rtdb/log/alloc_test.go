package log

import (
	"runtime"
	"testing"
	"time"

	"rtc/internal/timeseq"
)

// TestAllocGates pins the codec's allocation counts, which repeat exactly
// where wall-clock numbers do not: the WAL's hot paths must stay free of
// per-event garbage whatever machine CI runs on.
func TestAllocGates(t *testing.T) {
	sample := Sample(123456, "sensor-07", "21.5")

	buf := AppendEvent(nil, sample)
	if n := testing.AllocsPerRun(200, func() { buf = AppendEvent(buf[:0], sample) }); n != 0 {
		t.Errorf("AppendEvent into a warm buffer: %v allocs, want 0", n)
	}

	// A sample whose image is registered costs its value string and nothing
	// else: the name is interned, the frame buffer reused.
	rd := &reader{names: map[string]string{}}
	if _, ok := rd.event(Image("sensor-07", 5).Payload()); !ok {
		t.Fatal("image record did not decode")
	}
	payload := sample.Payload()
	if n := testing.AllocsPerRun(200, func() {
		if e, ok := rd.event(payload); !ok || e.Name != "sensor-07" {
			t.Fatal("sample record did not decode")
		}
	}); n > 1 {
		t.Errorf("decoding a sample of a registered image: %v allocs, want ≤ 1", n)
	}

	l, err := Open(Options{Dir: t.TempDir(), SegmentSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Image("sensor-07", 5)); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := l.Append(sample); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Log.Append of a sample, Sync off: %v allocs, want ≤ 2", n)
	}
}

// TestTicketByValueAllocs: a caller that keeps its ticket by value, as the
// server's apply loop does, pays nothing for the ticket — AppendTicket
// inlines, so the ticket it points to stays in the caller's frame. A whole
// commit batch under a long window then allocates the batch's share alone
// (the batch, its channels, its leader's timer), never one per append. The
// zero Ticket, held before any append, is resolved.
func TestTicketByValueAllocs(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), SegmentSize: 64 << 20, Sync: true, GroupWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var kept Ticket
	if !kept.Resolved() || kept.Wait() != nil {
		t.Fatal("the zero Ticket is not resolved")
	}
	batch := func() {
		for i := 0; i < groupMaxBatch; i++ { // the last append seals the batch
			tk, err := l.AppendTicket(Firing(1, "alarm"), false)
			if err != nil {
				t.Fatal(err)
			}
			kept = *tk
		}
		if err := kept.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	batch()
	n := testing.AllocsPerRun(50, batch)
	t.Logf("%v allocs per batch of %d appends", n, groupMaxBatch)
	if n > 8 {
		t.Errorf("a batch of %d appends with tickets kept by value: %v allocs, want ≤ 8", groupMaxBatch, n)
	}
}

// TestFiringsAndQueriesKeepNoHeap: a firing or query record lives in its
// segment and nowhere else. The state counts them; it does not keep them, so
// after a warm-up 200 000 more (firing, query) pairs leave the log's live
// heap, read after a collection, at most a byte a pair larger.
func TestFiringsAndQueriesKeepNoHeap(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), SegmentSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendPairs := func(from, n int) {
		for i := from; i < from+n; i++ {
			at := timeseq.Time(i)
			if err := l.Append(Firing(at, "alarm")); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(Query(at, "s1", "status_q", "ok", 1, 4, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	const warm, pairs = 20_000, 200_000
	appendPairs(0, warm)
	before := liveHeap()
	appendPairs(warm, pairs)
	grown := float64(int64(liveHeap())-int64(before)) / pairs
	t.Logf("live heap grew %.1f B per pair", grown)
	if grown > 1 {
		t.Errorf("live heap grew %.1f B per (firing, query) pair, want ≤ 1", grown)
	}
}
