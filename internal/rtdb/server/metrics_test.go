package server

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// booksClose fails t with every book m leaves open; who names m.
func booksClose(t *testing.T, who string, m MetricsSnapshot) {
	t.Helper()
	if _, err := Audit(who+": ", Books(), m.Pairs()); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsFieldCoverage: each counter is declared once, as a tagged field
// of its block, and Rows derives the snapshot copy, the reply rows and the
// cross-shard sum from the tags. What is left to check is that a layout that
// would drop or double a counter is refused when it is built, and that Add
// sums every counter except the gauges tagged max — the clock, cascade
// depth and fsync max. netserve's TestMetricsRowTable pins the row names.
func TestMetricsFieldCoverage(t *testing.T) {
	type untagged struct{ A atomic.Uint64 }
	type twice struct {
		A atomic.Uint64 `metric:"a"`
		B atomic.Uint64 `metric:"a"`
	}
	type one struct {
		A atomic.Uint64 `metric:"a"`
	}
	type snapAB struct{ A, B uint64 }
	for name, build := range map[string]func(){
		"untagged counter":        func() { NewRows((*struct{ A uint64 })(nil), (*untagged)(nil)) },
		"row named twice":         func() { NewRows((*snapAB)(nil), (*twice)(nil)) },
		"snapshot field unloaded": func() { NewRows((*snapAB)(nil), (*one)(nil)) },
		"counter with no field":   func() { NewRows((*struct{ B uint64 })(nil), (*one)(nil)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewRows did not panic", name)
				}
			}()
			build()
		}()
	}

	fill := func(base uint64) MetricsSnapshot {
		var s MetricsSnapshot
		v := reflect.ValueOf(&s).Elem()
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).SetUint(base + uint64(i)*7%11)
		}
		return s
	}
	a, b := fill(1000), fill(1005)
	sum := a
	sum.Add(b)
	av, bv, sv := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		want := av.Field(i).Uint() + bv.Field(i).Uint()
		switch name {
		case "Chronon", "CascadeDepthMax", "FsyncMaxNanos":
			want = max(av.Field(i).Uint(), bv.Field(i).Uint())
		}
		if got := sv.Field(i).Uint(); got != want {
			t.Errorf("Add: %s = %d, want %d", name, got, want)
		}
	}
}
