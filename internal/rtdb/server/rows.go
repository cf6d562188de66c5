package server

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"rtc/internal/rtwire"
)

// Rows is the row layout of a snapshot type. A counter is declared once, as
// a field of the block that keeps it, with its metrics-reply row name in a
// `metric` struct tag and `agg:"max"` on a gauge that shards and listeners
// combine by max instead of summing; Rows derives snapshots, reply rows and
// sums from the tags, so nothing else lists the counters. Rows run block by
// block in declaration order. The snapshot holds each counter under its
// field name, as a uint64 (or is itself the block); the methods take
// pointers to it.
//
// Rows is not generic on purpose: with Go 1.24, a snapshot that another
// package's inlined Snapshot call loads through a generic method moves to
// the heap, and rtbench snapshots inside timed ops (TestSnapshotAllocs).
type Rows struct{ cols []column }

// column is one row: its block, and its counter's field there and in the
// snapshot.
type column struct {
	row        string
	max        bool
	block      reflect.Type
	src, field int
}

var atomicType = reflect.TypeFor[atomic.Uint64]()

// NewRows lays snapshot's type out over blocks, each given, like snapshot,
// as a nil pointer of its type. A layout that could drop or double a
// counter — an untagged atomic counter, a tagged one the snapshot lacks, a
// row name used twice, a snapshot field no block loads — panics, so a bad
// declaration fails at package init.
func NewRows(snapshot any, blocks ...any) *Rows {
	st, r := reflect.TypeOf(snapshot).Elem(), &Rows{}
	seen := map[string]bool{} // row names and snapshot fields
	for _, block := range blocks {
		bt := reflect.TypeOf(block)
		for i := 0; i < bt.Elem().NumField(); i++ {
			f := bt.Elem().Field(i)
			row, tagged := f.Tag.Lookup("metric")
			if !tagged && f.Type != atomicType {
				continue
			}
			dst, ok := st.FieldByName(f.Name)
			if !tagged || !ok || seen[row] || seen[f.Name] {
				panic(fmt.Sprintf("server: counter %s.%s has no row of its own in %s", bt.Elem(), f.Name, st))
			}
			seen[row], seen[f.Name] = true, true
			r.cols = append(r.cols, column{row, f.Tag.Get("agg") == "max", bt, i, dst.Index[0]})
		}
	}
	if len(r.cols) != st.NumField() {
		panic(fmt.Sprintf("server: %s has %d fields for %d counters", st, st.NumField(), len(r.cols)))
	}
	return r
}

// counter reads a plain or atomic counter field.
func counter(f reflect.Value) uint64 {
	if a, ok := f.Addr().Interface().(*atomic.Uint64); ok {
		return a.Load()
	}
	return f.Uint()
}

// Load copies block's counters into their fields of the snapshot dst.
func (r *Rows) Load(dst, block any) {
	bv, out := reflect.ValueOf(block), reflect.ValueOf(dst).Elem()
	bt, src := bv.Type(), bv.Elem()
	for _, c := range r.cols {
		if c.block == bt {
			out.Field(c.field).SetUint(counter(src.Field(c.src)))
		}
	}
}

// Append appends the snapshot s as named rows, in row order.
func (r *Rows) Append(dst []rtwire.MetricPair, s any) []rtwire.MetricPair {
	v := reflect.ValueOf(s).Elem()
	for _, c := range r.cols {
		dst = append(dst, rtwire.MetricPair{Name: c.row, Value: counter(v.Field(c.field))})
	}
	return dst
}

// Add folds the snapshot from into into: counters add, the gauges tagged
// max take the max.
func (r *Rows) Add(into, from any) {
	iv, fv := reflect.ValueOf(into).Elem(), reflect.ValueOf(from).Elem()
	for _, c := range r.cols {
		f, v := iv.Field(c.field), fv.Field(c.field).Uint()
		if c.max {
			v = max(v, f.Uint())
		} else {
			v += f.Uint()
		}
		f.SetUint(v)
	}
}
