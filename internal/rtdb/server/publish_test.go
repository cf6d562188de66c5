package server

import (
	"strconv"
	"sync"
	"testing"

	"rtc/internal/faultfs"
	"rtc/internal/rtdb"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/timeseq"
)

// wideConfig is testConfig with images img1..img<n-1> beside temp: an
// n-image catalog.
func wideConfig(n int) Config {
	cfg := testConfig()
	for i := 1; i < n; i++ {
		cfg.Spec.Images = append(cfg.Spec.Images, &rtdb.ImageObject{Name: "img" + strconv.Itoa(i), Period: 5})
	}
	return cfg
}

// TestPublishAllocs: a publish allocates the snapshot and at most one slice
// of history headers, however many of the catalog's images took samples
// since the last one, and only the snapshot when none did. The gates are
// bounds, not equalities, so they hold under every supported Go's maps.
func TestPublishAllocs(t *testing.T) {
	const images, runs = 65, 50
	s, err := New(wideConfig(images))
	if err != nil {
		t.Fatal(err)
	}
	names := s.names
	now := timeseq.Time(0)
	// inject applies one sample to each of the first k images at the next
	// chronon, as the apply loop would.
	inject := func(k int) {
		now++
		s.sched.RunUntil(now)
		for _, name := range names[:k] {
			if err := s.db.InjectSample(name, "v"); err != nil {
				t.Fatal(err)
			}
		}
		s.advance(now)
	}
	// Grow every history until it has room for all the samples measured
	// below, so that a history's own growth is not counted as publish's.
	// Every image takes the same samples here, so one image's room is all
	// of theirs.
	first, _ := s.db.Image(names[0])
	for h := first.History(); cap(h)-len(h) <= 3*(runs+1); h = first.History() {
		inject(images)
	}
	s.publishSnapshot()

	for _, k := range []int{1, 16, images} {
		got := testing.AllocsPerRun(runs, func() {
			inject(k)
			s.publishSnapshot()
		})
		if got > 2 {
			t.Errorf("publish after samples on %d of %d images: %v allocs, want ≤ 2", k, images, got)
		}
		if v, ok := s.ValueAsOf(names[k-1], now); !ok || v != "v" || s.HistoryHorizon() != now {
			t.Fatalf("%s as of %d = %q, %v under horizon %d; want the sample just published", names[k-1], now, v, ok, s.HistoryHorizon())
		}
	}
	if got := testing.AllocsPerRun(runs, s.publishSnapshot); got > 1 {
		t.Errorf("publish with no new sample: %v allocs, want ≤ 1", got)
	}
}

// TestFollowerCatalogGrowsUnderReaders: a follower absorbs an image its
// catalog lacked while readers poll as-of values. From the publish that
// follows, it answers for the new image; a snapshot loaded before the
// growth still answers for the old ones and knows nothing of the new one.
func TestFollowerCatalogGrowsUnderReaders(t *testing.T) {
	l := historyLog(t, faultfs.NewMem(1), "a", 0, 12) // temp is i at chronon i
	cfg := testConfig()
	cfg.Log = l
	f := NewFollower(cfg)
	f.Start()
	defer f.Stop()
	before := f.hist.Load()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := f.ValueAsOf("temp", 12); !ok || v != "12" {
					t.Errorf("temp as of 12 = %q, %v under readers; want 12", v, ok)
					return
				}
				if v, ok := f.ValueAsOf("press", f.HistoryHorizon()); ok && v != "990" {
					t.Errorf("press = %q, want 990 once it is served", v)
					return
				}
			}
		}()
	}
	at := l.State().LastAt
	for i := 0; i < 20; i++ {
		at++
		events := []wal.Event{wal.Sample(at, "temp", strconv.Itoa(100+i))}
		if i == 10 {
			events = append(events, wal.Image("press", 3), wal.Sample(at, "press", "990"))
		}
		payloads := make([]string, len(events))
		for j, e := range events {
			payloads[j] = string(e.Payload())
		}
		applied, err := l.AppendBatch(payloads)
		if err == nil {
			err = f.Replicate(applied)
		}
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if v, ok := f.ValueAsOf("press", at); !ok || v != "990" {
		t.Fatalf("press as of %d = %q, %v after the catalog grew; want 990", at, v, ok)
	}
	if v, ok := before.valueAt("temp", 12); !ok || v != "12" {
		t.Fatalf("the snapshot from before the growth: temp as of 12 = %q, %v; want 12", v, ok)
	}
	if v, ok := before.valueAt("press", at); ok {
		t.Fatalf("the snapshot from before the growth answers press = %q", v)
	}
}
