package workload

import (
	"bytes"
	"testing"
)

// One seed fixes every stream byte for byte; another seed, or another
// client of the same seed, gives a different stream.
func TestStreamsAreSeeded(t *testing.T) {
	for _, w := range Names {
		a, b := Dump(w, 7, 0, 2000), Dump(w, 7, 0, 2000)
		if len(a) == 0 {
			t.Fatalf("%s: empty stream", w)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w)
		}
		if bytes.Equal(a, Dump(w, 8, 0, 2000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w)
		}
		if bytes.Equal(a, Dump(w, 7, 1, 2000)) {
			t.Errorf("%s: clients 0 and 1 of seed 7 gave the same stream", w)
		}
	}
}

// Every seed ends the preload with exactly HotSensors hot sensors, so the
// hot_set_q answer has the same size on every run.
func TestPreloadHotSetSize(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		p := NewPreload(seed)
		hot := 0
		for _, v := range p.Final {
			if v > Limit {
				hot++
			}
		}
		if hot != HotSensors || len(p.Hot) != HotSensors {
			t.Fatalf("seed %d: %d hot finals, %d hot names, want %d", seed, hot, len(p.Hot), HotSensors)
		}
	}
}
