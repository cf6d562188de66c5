package log

import (
	"testing"
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
