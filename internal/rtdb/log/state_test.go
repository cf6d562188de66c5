package log

import (
	"testing"

	"rtc/internal/rtdb"
)

// TestDiffNamesEachField: Diff compares each field of the state itself, the
// samples once, and a difference in any one of them — the counters, an
// invariant, an image's period or one of its samples, a derived object's
// sources, an object present on one side only — is reported, whichever
// state it is called on. Equal states built apart diff to "".
func TestDiffNamesEachField(t *testing.T) {
	base := func() *State { return reference(workload(20)) }
	if d := base().Diff(base()); d != "" {
		t.Fatalf("equal states: Diff = %q", d)
	}
	for _, tc := range []struct {
		name   string
		change func(st *State)
	}{
		{"Events", func(st *State) { st.Events++ }},
		{"LastAt", func(st *State) { st.LastAt++ }},
		{"invariant value", func(st *State) { st.Invariants["limit"] = "23" }},
		{"extra invariant", func(st *State) { st.Invariants["floor"] = "1" }},
		{"image period", func(st *State) { st.Images["temp"].Period++ }},
		{"missing image", func(st *State) { delete(st.Images, "press") }},
		{"sample value", func(st *State) { st.Images["temp"].Samples[7].Value = "x" }},
		{"sample time", func(st *State) { st.Images["press"].Samples[2].At++ }},
		{"extra sample", func(st *State) {
			img := st.Images["temp"]
			img.Samples = append(img.Samples, rtdb.Sample{At: st.LastAt, Value: "v"})
		}},
		{"derived sources", func(st *State) { st.Derived["status"].Sources = []string{"temp"} }},
		{"missing derived", func(st *State) { delete(st.Derived, "status") }},
		{"extra derived", func(st *State) { st.Derived["alarm"] = &DerivedState{Sources: []string{"press"}} }},
	} {
		changed := base()
		tc.change(changed)
		if d := base().Diff(changed); d == "" {
			t.Errorf("%s: Diff(changed) = \"\"", tc.name)
		}
		if d := changed.Diff(base()); d == "" {
			t.Errorf("%s: changed.Diff(base) = \"\"", tc.name)
		}
	}
}
