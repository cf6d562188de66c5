package log

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"rtc/internal/rtdb"
	"rtc/internal/timeseq"
	"rtc/internal/vtime"
)

// sortReplay is the reference replay order: every sample of every image
// copied into one slice and sorted by (time, image, position). The merge in
// replaySamples must be indistinguishable from it.
func sortReplay(db *rtdb.DB, st *State) error {
	type rec struct {
		at    timeseq.Time
		image string
		value string
		seq   int
	}
	var all []rec
	for name, img := range st.Images {
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
			return err
		}
	}
	return nil
}

// replayTarget is a database whose firing log records the global order
// samples arrive in: one immediate rule per image.
func replayTarget(t *testing.T, st *State) *rtdb.DB {
	db := rtdb.New(vtime.New())
	if err := st.Build(db, nil); err != nil {
		t.Fatal(err)
	}
	for name := range st.Images {
		db.AddRule(rtdb.Rule{
			Name: "saw-" + name, On: "sample:" + name, Mode: rtdb.Immediate,
			Then: func(*rtdb.DB, rtdb.Event) {},
		})
	}
	return db
}

// TestMergeReplayMatchesSort replays randomly interleaved multi-image
// histories — equal timestamps across images and within one image, images
// with no samples, and (every fourth seed) one history that is not in time
// order — through the reference sort and through the merge, and requires
// the same database: every image's history and the firing log.
func TestMergeReplayMatchesSort(t *testing.T) {
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
		if seed%4 == 0 {
			smp := st.Images[images[0]].Samples
			rng.Shuffle(len(smp), func(i, j int) { smp[i], smp[j] = smp[j], smp[i] })
		}

		want := replayTarget(t, st)
		if err := sortReplay(want, st); err != nil {
			t.Fatalf("seed %d: reference replay: %v", seed, err)
		}
		got := replayTarget(t, st)
		if err := st.replaySamples(got); err != nil {
			t.Fatalf("seed %d: merge replay: %v", seed, err)
		}

		if !reflect.DeepEqual(got.FiringLog(), want.FiringLog()) {
			t.Fatalf("seed %d: firing logs differ:\n got  %v\nwant %v", seed, got.FiringLog(), want.FiringLog())
		}
		if len(want.FiringLog()) != 300 {
			t.Fatalf("seed %d: firing log has %d entries, want one per sample", seed, len(want.FiringLog()))
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

// TestReplayAllocatesPerImageNotPerSample pins what a rebuild leaves on the
// heap: Build sizes every history for its replay, so replaySamples allocates
// its cursors and nothing that grows with the number of samples — no
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
	// Build: the database's maps, one object and one history per image.
	// Replay: the heap and one boxed cursor per image.
	if limit := float64(8*images + 32); allocs > limit {
		t.Fatalf("rebuild of %d samples: %.0f allocs, want <= %.0f", images*perImage, allocs, limit)
	}
	t.Logf("rebuild of %d samples: %.0f allocs", images*perImage, allocs)
}
