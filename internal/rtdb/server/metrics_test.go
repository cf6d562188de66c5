package server

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// TestMetricsFieldCoverage keeps the counter list, which exists five times
// (Metrics, MetricsSnapshot, Snapshot, Pairs, accumulate), from losing a
// member unnoticed: a counter added to one copy and not the others fails
// here instead of silently missing from a metrics reply or from rtdbd's
// cross-shard conservation line.
func TestMetricsFieldCoverage(t *testing.T) {
	// A distinct value per field, so a copy from the wrong field shows too.
	fill := func(base uint64) *Metrics {
		m := new(Metrics)
		mv := reflect.ValueOf(m).Elem()
		for i := 0; i < mv.NumField(); i++ {
			mv.Field(i).Addr().Interface().(*atomic.Uint64).Store(base + uint64(i))
		}
		return m
	}
	m := fill(1000)
	snap := m.Snapshot()
	sv, mv := reflect.ValueOf(snap), reflect.ValueOf(m).Elem()
	if sv.NumField() != mv.NumField() {
		t.Fatalf("MetricsSnapshot has %d fields, Metrics %d", sv.NumField(), mv.NumField())
	}
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		src := mv.FieldByName(name)
		if !src.IsValid() {
			t.Errorf("MetricsSnapshot.%s has no Metrics counter", name)
			continue
		}
		if got, want := sv.Field(i).Uint(), src.Addr().Interface().(*atomic.Uint64).Load(); got != want {
			t.Errorf("Snapshot().%s = %d, want the counter's %d", name, got, want)
		}
	}

	// Pairs: one row per field, every field's (distinct) value on a row.
	pairs, rows := snap.Pairs(), map[uint64]string{}
	for _, p := range pairs {
		if prev, dup := rows[p.Value]; dup {
			t.Errorf("Pairs rows %q and %q carry the same field", prev, p.Name)
		}
		rows[p.Value] = p.Name
	}
	if len(pairs) != sv.NumField() {
		t.Errorf("Pairs has %d rows for %d fields", len(pairs), sv.NumField())
	}
	for i := 0; i < sv.NumField(); i++ {
		if _, ok := rows[sv.Field(i).Uint()]; !ok {
			t.Errorf("Pairs has no row for %s", sv.Type().Field(i).Name)
		}
	}

	// accumulate: counters add, the two gauges take the max, Chronon is the
	// caller's to set.
	other := fill(5000).Snapshot()
	sum := snap
	sum.accumulate(other)
	ov, av := reflect.ValueOf(other), reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		a, b := sv.Field(i).Uint(), ov.Field(i).Uint()
		want := a + b
		switch name {
		case "Chronon":
			want = a
		case "CascadeDepthMax", "FsyncMaxNanos":
			want = max(a, b)
		}
		if got := av.Field(i).Uint(); got != want {
			t.Errorf("accumulate: %s = %d, want %d (from %d and %d)", name, got, want, a, b)
		}
	}
}
