package log

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rtc/internal/faultfs"
	"rtc/internal/rtdb"
	"rtc/internal/timeseq"
	"rtc/internal/vtime"
)

// sortReplay is the reference rebuild: a database with the state's images
// and no rules, every sample of every image copied into one slice, sorted by
// (time, image, position) and re-injected at its original time, then the
// clock run to the state's last timestamp. Rebuild must be
// indistinguishable from it.
func sortReplay(st *State) (*rtdb.DB, error) {
	db := rtdb.New(vtime.New())
	type rec struct {
		at    timeseq.Time
		image string
		value string
		seq   int
	}
	var all []rec
	for name, img := range st.Images {
		db.AddImage(&rtdb.ImageObject{Name: name, Period: img.Period})
		for i, smp := range img.Samples {
			all = append(all, rec{at: smp.At, image: name, value: smp.Value, seq: i})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].at != all[j].at {
			return all[i].at < all[j].at
		}
		if all[i].image != all[j].image {
			return all[i].image < all[j].image
		}
		return all[i].seq < all[j].seq
	})
	for _, r := range all {
		db.Scheduler().RunUntil(r.at)
		if err := db.InjectSample(r.image, r.value); err != nil {
			return nil, err
		}
	}
	db.Scheduler().RunUntil(st.LastAt)
	return db, nil
}

// TestRebuildMatchesSortReplay rebuilds randomly interleaved multi-image
// histories — equal timestamps across images and within one image, images
// with no samples, and (every fourth seed) one history that is not in time
// order — by installing them and through the reference sort-and-replay, and
// requires the same database: every image's history and the clock.
func TestRebuildMatchesSortReplay(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		st := NewState()
		images := make([]string, 1+rng.IntN(7))
		for i := range images {
			images[i] = fmt.Sprintf("img-%d", i)
			st.Images[images[i]] = &ImageState{Period: 5}
		}
		st.Images["idle"] = &ImageState{Period: 5}
		at := timeseq.Time(0)
		for k := 0; k < 300; k++ {
			at += timeseq.Time(rng.IntN(3)) // 0: a tie with the previous sample
			img := st.Images[images[rng.IntN(len(images))]]
			img.Samples = append(img.Samples, rtdb.Sample{At: at, Value: fmt.Sprintf("v%d", k)})
		}
		st.LastAt = at
		if seed%4 == 0 {
			smp := st.Images[images[0]].Samples
			rng.Shuffle(len(smp), func(i, j int) { smp[i], smp[j] = smp[j], smp[i] })
		}

		want, err := sortReplay(st)
		if err != nil {
			t.Fatalf("seed %d: reference replay: %v", seed, err)
		}
		got := rtdb.New(vtime.New())
		if err := st.Rebuild(got, nil); err != nil {
			t.Fatalf("seed %d: rebuild: %v", seed, err)
		}

		for name := range st.Images {
			g, _ := got.Image(name)
			w, _ := want.Image(name)
			if !reflect.DeepEqual(g.History(), w.History()) {
				t.Fatalf("seed %d: image %q history differs:\n got  %v\nwant %v", seed, name, g.History(), w.History())
			}
		}
		if got.Now() != want.Now() {
			t.Fatalf("seed %d: clock %d vs %d", seed, got.Now(), want.Now())
		}
	}
}

// TestRebuildRefusesObservableReplay: installing a history equals replaying
// it only when nothing could have watched the replay. Each row sets up one
// database where something could, and Rebuild must refuse it without
// touching it; the last row is a rule on an image the log never held, which
// no replay would have raised.
func TestRebuildRefusesObservableReplay(t *testing.T) {
	st := NewState()
	st.Images["temp"] = &ImageState{Period: 5, Samples: []rtdb.Sample{{At: 1, Value: "a"}, {At: 3, Value: "b"}}}
	st.LastAt = 3
	rule := func(on string) rtdb.Rule {
		return rtdb.Rule{Name: "r", On: on, Mode: rtdb.Immediate, Then: func(*rtdb.DB, rtdb.Event) {}}
	}
	for _, tc := range []struct {
		name    string
		prepare func(db *rtdb.DB)
		refusal string // "" = Rebuild must succeed
	}{
		{"rule on a recovered image", func(db *rtdb.DB) { db.AddRule(rule("sample:temp")) }, "rule"},
		{"events pending on the scheduler", func(db *rtdb.DB) { db.Scheduler().At(2, 0, func() {}) }, "scheduled"},
		{"image already holds history", func(db *rtdb.DB) {
			db.AddImage(&rtdb.ImageObject{Name: "temp", Period: 5})
			if err := db.InjectSample("temp", "old"); err != nil {
				t.Fatal(err)
			}
		}, "already holds"},
		{"rule on another image", func(db *rtdb.DB) { db.AddRule(rule("sample:other")) }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := rtdb.New(vtime.New())
			tc.prepare(db)
			before := db.Now()
			err := st.Rebuild(db, nil)
			if tc.refusal == "" {
				if err != nil {
					t.Fatalf("rebuild refused: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.refusal) {
				t.Fatalf("rebuild error %v, want a refusal mentioning %q", err, tc.refusal)
			}
			if img, ok := db.Image("temp"); db.Now() != before || (ok && len(img.History()) == len(st.Images["temp"].Samples)) {
				t.Fatal("a refused rebuild touched the database")
			}
		})
	}
}

// TestReplayAllocatesPerImageNotPerSample pins what a rebuild leaves on the
// heap: each history is installed in one exactly sized copy, so the
// allocation count depends on the number of images, not samples — no
// history doubles its way up, and the garbage a recovery leaves behind does
// not depend on when the collector happened to run.
func TestReplayAllocatesPerImageNotPerSample(t *testing.T) {
	const images, perImage = 4, 5000
	st := NewState()
	for i := 0; i < images; i++ {
		img := &ImageState{Period: 5}
		for k := 0; k < perImage; k++ {
			img.Samples = append(img.Samples, rtdb.Sample{At: timeseq.Time(k*images + i), Value: "v"})
		}
		st.Images[fmt.Sprintf("img-%d", i)] = img
	}
	st.LastAt = images*perImage + 7 // past the last sample: Rebuild leaves the clock here
	var db *rtdb.DB
	allocs := testing.AllocsPerRun(5, func() {
		db = rtdb.New(vtime.New())
		if err := st.Rebuild(db, nil); err != nil {
			t.Fatal(err)
		}
	})
	if db.Now() != st.LastAt {
		t.Fatalf("rebuilt clock at %d, want the state's last timestamp %d", db.Now(), st.LastAt)
	}
	for name, want := range st.Images {
		img, _ := db.Image(name)
		if got := img.History(); len(got) != len(want.Samples) {
			t.Fatalf("%s: history has %d samples, want %d", name, len(got), len(want.Samples))
		}
	}
	// The database's maps, the sorted name list, and one object, one history
	// and one kind string per image.
	if limit := float64(8*images + 32); allocs > limit {
		t.Fatalf("rebuild of %d samples: %.0f allocs, want <= %.0f", images*perImage, allocs, limit)
	}
	t.Logf("rebuild of %d samples: %.0f allocs", images*perImage, allocs)
}

// TestSnapshotLoadAllocatesPerRunNotPerSample is the same pin one step
// earlier: a snapshot holds each image's samples back to back, and loading
// it takes them as one run per image — one string for the run's values and
// one exactly sized history. Snapshots of N and 2N samples over the same
// images therefore cost the same allocations, give or take the doublings of
// the run's scratch buffers.
func TestSnapshotLoadAllocatesPerRunNotPerSample(t *testing.T) {
	const images = 8
	load := func(perImage int) float64 {
		payloads := [][]byte{[]byte("$SNAPSHOT@1@0@0@0$")}
		for i := 0; i < images; i++ {
			payloads = append(payloads, Image(fmt.Sprintf("img-%d", i), 5).Payload())
		}
		for i := 0; i < images; i++ {
			for k := 0; k < perImage; k++ {
				payloads = append(payloads, Sample(timeseq.Time(k), fmt.Sprintf("img-%d", i), fmt.Sprint(k)).Payload())
			}
		}
		payloads = append(payloads, []byte(fmt.Sprintf("$COMMIT@%d$", len(payloads)-1)))
		mem := faultfs.NewMem(1)
		w, err := mem.Create("snap")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(frames(payloads...)); err != nil {
			t.Fatal(err)
		}
		w.Close()
		rd := newReader()
		var st *State
		allocs := testing.AllocsPerRun(5, func() {
			if st, _, err = loadSnapshot(mem, "snap", rd); err != nil {
				t.Fatal(err)
			}
		})
		for i := 0; i < images; i++ {
			img := st.Images[fmt.Sprintf("img-%d", i)]
			if len(img.Samples) != perImage || cap(img.Samples) != perImage {
				t.Fatalf("img-%d: %d samples in a history of capacity %d, want %d in %d", i, len(img.Samples), cap(img.Samples), perImage, perImage)
			}
			if last := img.Samples[perImage-1]; last.Value != fmt.Sprint(perImage-1) {
				t.Fatalf("img-%d: last sample %+v", i, last)
			}
		}
		return allocs
	}
	const n = 2000
	once, twice := load(n), load(2*n)
	if twice-once > 16 {
		t.Fatalf("loading %d samples: %.0f allocs, %d samples: %.0f — the difference grows with the samples", images*n, once, images*2*n, twice)
	}
	t.Logf("snapshot load of %d / %d samples over %d images: %.0f / %.0f allocs", images*n, images*2*n, images, once, twice)
}
