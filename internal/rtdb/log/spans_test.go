package log

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"rtc/internal/faultfs"
	"rtc/internal/timeseq"
)

// spanImages and spanRuns shape the snapshots the span tests load: 64
// images of 320 samples, 20 480 samples in all, about 600 KB of frames —
// four spans' worth at GOMAXPROCS 4.
const spanImages, spanRuns = 64, 320

// spanSnapshot writes, with the log's own writer, a snapshot of the span
// shape whose sample k of image i has the value value(i, k), and returns its
// record payloads.
func spanSnapshot(t *testing.T, value func(i, k int) string) [][]byte {
	mem := faultfs.NewMem(1)
	l, err := Open(Options{Dir: "wal", FS: mem, SegmentSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{Invariant("limit", "22"), Derived("status", "img-00", "limit")}
	for i := 0; i < spanImages; i++ {
		events = append(events, Image(spanImage(i), 5))
	}
	for k := 0; k < spanRuns; k++ {
		for i := 0; i < spanImages; i++ {
			events = append(events, Sample(timeseq.Time(k), spanImage(i), value(i, k)))
		}
	}
	for _, e := range events {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for _, fr := range splitFrames(mem.DumpFile("wal/" + snapName(1))) {
		payloads = append(payloads, fr[frameHeaderSize:])
	}
	return payloads
}

func spanImage(i int) string { return fmt.Sprintf("img-%02d", i) }

// plainValue is the span shape's ordinary value.
func plainValue(i, k int) string { return strconv.Itoa(i*k%1000) + "." + strconv.Itoa(k%10) }

// imageBoundaries returns the offsets in a snapshot file image where a
// sample record's image differs from the record's before it.
func imageBoundaries(image []byte) map[int]bool {
	out := map[int]bool{}
	prev, off := "", 0
	for _, fr := range splitFrames(image) {
		if e, ok := DecodeEvent(fr[frameHeaderSize:]); ok && e.Kind == KindSample {
			if e.Name != prev {
				out[off] = true
			}
			prev = e.Name
		} else {
			prev = ""
		}
		off += len(fr)
	}
	return out
}

// loadAt loads the snapshot file image with GOMAXPROCS at procs, restoring
// it before returning.
func loadAt(t *testing.T, image []byte, procs int) (*State, replayPos, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return loadBytes(t, image)
}

// withCommit closes payloads, header and records, with a COMMIT that counts
// the records.
func withCommit(payloads [][]byte) [][]byte {
	return append(payloads, []byte("$COMMIT@"+strconv.Itoa(len(payloads)-1)+"$"))
}

// TestSnapshotSpansMatchOneLoop: a snapshot loads to the same state — each
// history to the same samples and the same capacity — and the same replay
// position, or fails with the same error, at GOMAXPROCS 1, where the one
// loop takes every record, and at 2 and 4, where the samples are walked as
// spans. The rows are the ways a span can fail or be fooled: damage inside
// a span, a cut, a length past the end, a wrong count, frame-like bytes past
// the commit that a split lands in, a run of an image a span does not own,
// a catalog record among the samples, the legacy shape's firing and query
// records. The intact snapshot, and one with escaped values inside spans,
// must really be split: two spans at GOMAXPROCS 2 and four at 4, each
// starting at an image boundary, with no fallback to the one loop.
func TestSnapshotSpansMatchOneLoop(t *testing.T) {
	intact := spanSnapshot(t, plainValue)
	escaped := spanSnapshot(t, func(i, k int) string {
		if k%40 == 17 {
			return "h@t#" + strconv.Itoa(i) + "%$"
		}
		return plainValue(i, k)
	})
	last := len(intact) - 1
	firstSample := 0
	for string(intact[firstSample][:3]) != "$S@" {
		firstSample++
	}
	// insert returns intact with the payloads p inserted before record i
	// and the commit count redone.
	insert := func(i int, p ...[]byte) [][]byte {
		out := append(append(append([][]byte{}, intact[:i]...), p...), intact[i:last]...)
		return withCommit(out)
	}
	// runStart is the index of image i's first sample record.
	runStart := func(i int) int { return firstSample + i*spanRuns }

	images := map[string][]byte{
		"intact":                            frames(intact...),
		"escaped values in spans":           frames(escaped...),
		"wrong commit count":                frames(append(append([][]byte{}, intact[:last]...), []byte("$COMMIT@7$"))...),
		"a catalog record between two runs": frames(insert(runStart(spanImages/4), Image("img-zz", 5).Payload())...),
		"a catalog record in the last span": frames(insert(runStart(spanImages-3), Image("img-zz", 5).Payload(), Sample(9, "img-zz", "z").Payload())...),
		"legacy shape":                      frames(insert(last, Firing(12, "al#arm").Payload(), Query(13, "s3", "status_q", "o$k", 1, 4, 2).Payload())...),
	}
	// A sample of img-01 in the middle of the runs of img-16, img-32 and
	// img-48: some span after the first meets an image below its own.
	var aba [][]byte
	for i, p := range intact[:last] {
		if (i-firstSample)%(spanImages/4*spanRuns) == spanRuns/2 && i > firstSample+spanRuns {
			aba = append(aba, Sample(9, spanImage(1), "stray").Payload())
		}
		aba = append(aba, p)
	}
	images["image runs a, b, a across a span boundary"] = frames(withCommit(aba)...)
	whole := frames(intact...)
	spans := splitSpans(whole, len(frames(intact[:firstSample]...)), 4)
	if len(spans) != 4 {
		t.Fatalf("the intact snapshot splits into %d spans at 4, want 4", len(spans))
	}
	for k, sp := range spans {
		flip := append([]byte{}, whole...)
		flip[(sp.start+sp.end)/2] ^= 0x20
		images[fmt.Sprintf("a flipped byte in span %d of 4", k)] = flip
	}
	images["a cut mid-span"] = whole[:(spans[1].start+spans[1].end)/2]
	long := append([]byte{}, whole...)
	binary.LittleEndian.PutUint32(long[spans[2].start:], uint32(len(long)))
	images["a length past the end"] = long
	// Past the commit: samples of two images taking turns, more bytes than
	// the snapshot itself, so a split target lands among them and finds an
	// image boundary there.
	tail := append([]byte{}, whole...)
	for len(tail) < 3*len(whole) {
		tail = append(tail, frames(Sample(1, spanImage(10), "x").Payload(), Sample(1, spanImage(20), "y").Payload())...)
	}
	images["frame-like bytes past the commit"] = tail

	for _, name := range sortedKeys(images) {
		image := images[name]
		want, wantPos, wantErr := loadAt(t, image, 1)
		t.Logf("%s: one loop err %v", name, wantErr)
		for _, procs := range []int{2, 4} {
			st, pos, err := loadAt(t, image, procs)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("%s at GOMAXPROCS %d: err %v, one loop %v", name, procs, err, wantErr)
				continue
			}
			if err != nil {
				continue
			}
			if d := st.Diff(want); d != "" || pos != wantPos {
				t.Errorf("%s at GOMAXPROCS %d: %s (position %+v vs %+v)", name, procs, d, pos, wantPos)
			}
			for n, img := range want.Images {
				if c := cap(st.Images[n].Samples); c != cap(img.Samples) {
					t.Errorf("%s at GOMAXPROCS %d: image %q history capacity %d, one loop %d", name, procs, n, c, cap(img.Samples))
				}
			}
		}
	}

	for _, name := range []string{"intact", "escaped values in spans", "a catalog record in the last span", "legacy shape"} {
		image := images[name]
		bounds := imageBoundaries(image)
		for _, procs := range []int{2, 4} {
			_, _, spans, err := walkSnapshot(image, newReader(), procs)
			if err != nil || len(spans) != procs {
				t.Errorf("%s: walked as %d spans at %d processors (err %v), want %d", name, len(spans), procs, err, procs)
				continue
			}
			for _, sp := range spans {
				if !bounds[sp.start] {
					t.Errorf("%s at %d processors: a span starts at offset %d, not an image boundary", name, procs, sp.start)
				}
			}
		}
	}
}
