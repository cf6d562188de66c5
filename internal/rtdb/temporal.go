package rtdb

import (
	"sort"
	"strconv"
	"strings"

	"rtc/internal/relational"
	"rtc/internal/timeseq"
)

// This file implements the temporal-database aspects §5.1.2 summarizes:
// "the database appears as a sequence of states or snapshots indexed by
// some time domain" — represented efficiently, as the section recommends,
// by a single relation with tuple-level timestamps ("timestamps may be
// placed at attribute or tuple level … typically unions of intervals over
// the temporal domain"). Time is linear and discrete, the model of choice
// for real-time databases.

// HistoricalTuple is a tuple with its valid-time lifespan.
type HistoricalTuple struct {
	Tuple relational.Tuple
	Valid Lifespan
}

// HistoricalRelation is a relation whose tuples carry lifespans. The
// sequence-of-snapshots view I_t is recovered by SnapshotAt.
//
// Two backings exist. The general form stores explicit rows with lifespans
// and supports arbitrary Insert/Terminate. The timeline form — built by
// NewTimelineRelation — captures an image object's append-only sample
// history by slice header: sample i is valid from its own timestamp to just
// before the next sample's, and the last sample runs to the horizon. Point
// lookups binary-search the samples (SampleAt) instead of scanning rows,
// and capturing a timeline is O(1) regardless of history length.
// Mutating a timeline relation first thaws it into explicit rows.
type HistoricalRelation struct {
	Schema relational.Schema
	rows   []HistoricalTuple
	// index maps tupleKey → rows offset; maintained by Insert so repeated
	// inserts stay O(1) instead of rescanning every row.
	index map[string]int

	// Timeline backing (nil samples and empty object mean rows-backed).
	object  string
	samples []Sample
	horizon timeseq.Time
}

// NewHistoricalRelation creates an empty historical relation.
func NewHistoricalRelation(s relational.Schema) *HistoricalRelation {
	return &HistoricalRelation{Schema: s}
}

// NewTimelineRelation captures an image-style sample history as a
// (Object, Value) historical relation without materializing rows: the
// samples slice is shared, not copied, so the capture is O(1). Samples must
// be in non-decreasing timestamp order (append-only histories are); a later
// sample at the same instant shadows the earlier one. The last sample's
// validity runs to horizon.
func NewTimelineRelation(object string, samples []Sample, horizon timeseq.Time) *HistoricalRelation {
	return &HistoricalRelation{
		Schema: relational.Schema{
			Name:  object,
			Attrs: []relational.Attribute{"Object", "Value"},
		},
		object:  object,
		samples: samples,
		horizon: horizon,
	}
}

// timeline reports whether the relation is timeline-backed.
func (h *HistoricalRelation) timeline() bool { return h.samples != nil || h.object != "" }

// valueAt is the timeline point lookup: the value current at t, bounded by
// the relation's horizon.
func (h *HistoricalRelation) valueAt(t timeseq.Time) (Value, bool) {
	s, ok := SampleAt(h.samples, t, h.horizon)
	return s.Value, ok
}

// tupleKey renders a tuple as a collision-free map key (length-prefixed so
// field boundaries cannot be forged by crafted values).
func tupleKey(t relational.Tuple) string {
	var b strings.Builder
	for _, v := range t {
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	return b.String()
}

// thaw materializes a timeline backing into explicit rows so the mutating
// API keeps working on relations captured from live images.
func (h *HistoricalRelation) thaw() {
	if !h.timeline() {
		return
	}
	h.rows = h.materializeRows()
	h.object, h.samples = "", nil
	h.index = nil
}

// materializeRows converts the timeline into the equivalent explicit rows:
// one (Object, Value) tuple per distinct value run, lifespans unioned per
// tuple — the same structure the eager per-sample Insert loop used to build.
func (h *HistoricalRelation) materializeRows() []HistoricalTuple {
	var (
		rows []HistoricalTuple
		idx  = make(map[string]int, 8)
	)
	for i, s := range h.samples {
		end := h.horizon
		if i+1 < len(h.samples) {
			end = h.samples[i+1].At - 1
		}
		if end < s.At {
			continue
		}
		span := NewLifespan(Interval{s.At, end})
		if j, ok := idx[s.Value]; ok {
			rows[j].Valid = rows[j].Valid.Union(span)
			continue
		}
		idx[s.Value] = len(rows)
		rows = append(rows, HistoricalTuple{
			Tuple: relational.Tuple{h.object, s.Value},
			Valid: span,
		})
	}
	return rows
}

// Insert records a tuple valid over the given lifespan. Re-inserting an
// existing tuple unions the lifespans (set semantics per instant).
func (h *HistoricalRelation) Insert(t relational.Tuple, valid Lifespan) error {
	if len(t) != h.Schema.Arity() {
		return errArity(h.Schema, t)
	}
	h.thaw()
	if h.index == nil {
		h.index = make(map[string]int, len(h.rows)+1)
		for i := range h.rows {
			h.index[tupleKey(h.rows[i].Tuple)] = i
		}
	}
	key := tupleKey(t)
	if i, ok := h.index[key]; ok {
		h.rows[i].Valid = h.rows[i].Valid.Union(valid)
		return nil
	}
	cp := make(relational.Tuple, len(t))
	copy(cp, t)
	h.index[key] = len(h.rows)
	h.rows = append(h.rows, HistoricalTuple{Tuple: cp, Valid: valid})
	return nil
}

func errArity(s relational.Schema, t relational.Tuple) error {
	r := relational.NewRelation(s)
	return r.Insert(t) // reuse the relational arity error
}

// Terminate ends a tuple's validity at time t (exclusive): its lifespan is
// intersected with [0, t−1]. A tuple never valid is removed.
func (h *HistoricalRelation) Terminate(t relational.Tuple, at timeseq.Time) {
	h.thaw()
	var upTo Lifespan
	if at > 0 {
		upTo = NewLifespan(Interval{0, at - 1})
	}
	out := h.rows[:0]
	for _, row := range h.rows {
		if row.Tuple.Equal(t) {
			row.Valid = row.Valid.Intersect(upTo)
			if len(row.Valid) == 0 {
				continue
			}
		}
		out = append(out, row)
	}
	h.rows = out
	if h.index != nil {
		// Offsets shifted; rebuild.
		h.index = make(map[string]int, len(h.rows))
		for i := range h.rows {
			h.index[tupleKey(h.rows[i].Tuple)] = i
		}
	}
}

// HoldsAt is the predicate R(u, t) of §5.1.2: tuple u is in the relation at
// time t.
func (h *HistoricalRelation) HoldsAt(u relational.Tuple, t timeseq.Time) bool {
	if h.timeline() {
		if len(u) != 2 || u[0] != h.object {
			return false
		}
		v, ok := h.valueAt(t)
		return ok && v == u[1]
	}
	if h.index != nil {
		if i, ok := h.index[tupleKey(u)]; ok {
			return h.rows[i].Valid.Contains(t)
		}
		return false
	}
	for _, row := range h.rows {
		if row.Tuple.Equal(u) {
			return row.Valid.Contains(t)
		}
	}
	return false
}

// SnapshotAt materializes the instance I_t.
func (h *HistoricalRelation) SnapshotAt(t timeseq.Time) *relational.Relation {
	r := relational.NewRelation(h.Schema)
	if h.timeline() {
		if v, ok := h.valueAt(t); ok {
			_ = r.Insert(relational.Tuple{h.object, v})
		}
		return r
	}
	for _, row := range h.rows {
		if row.Valid.Contains(t) {
			_ = r.Insert(row.Tuple)
		}
	}
	return r
}

// Rows returns the historical tuples. For a timeline-backed relation the
// rows are materialized fresh on every call (the backing itself stays
// shared and immutable, so concurrent readers of a published snapshot never
// race); callers on hot paths should prefer the point lookups.
func (h *HistoricalRelation) Rows() []HistoricalTuple {
	if h.timeline() {
		return h.materializeRows()
	}
	return h.rows
}

// AppendChangePoints appends every instant at which the snapshot differs
// from the preceding instant — the boundaries of the sequence-of-states
// view — to dst and returns it, sorted ascending and deduplicated. Passing
// a reused scratch slice (dst[:0]) makes repeated calls allocation-free.
func (h *HistoricalRelation) AppendChangePoints(dst []timeseq.Time) []timeseq.Time {
	if h.timeline() {
		// Boundaries are where the current value changes: the first
		// effective sample, every value flip, and the instant after the
		// horizon. Samples shadowed by a same-instant successor and
		// same-value runs (whose adjacent lifespans would have merged in
		// row form) contribute nothing.
		first := true
		var prev Value
		for i, s := range h.samples {
			if i+1 < len(h.samples) && h.samples[i+1].At == s.At {
				continue // shadowed by a later sample at the same instant
			}
			if first || s.Value != prev {
				dst = append(dst, s.At)
			}
			first, prev = false, s.Value
		}
		if !first && h.horizon != timeseq.Infinity {
			dst = append(dst, h.horizon+1)
		}
		return dst
	}
	base := len(dst)
	for _, row := range h.rows {
		for _, iv := range row.Valid {
			dst = append(dst, iv.Lo)
			if iv.Hi != timeseq.Infinity {
				dst = append(dst, iv.Hi+1)
			}
		}
	}
	tail := dst[base:]
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
	// Dedupe in place.
	out := tail[:0]
	for i, t := range tail {
		if i == 0 || t != tail[i-1] {
			out = append(out, t)
		}
	}
	return dst[:base+len(out)]
}

// ChangePoints returns every instant at which the snapshot differs from the
// preceding instant. The result is sorted and bounded by the stored
// lifespans.
func (h *HistoricalRelation) ChangePoints() []timeseq.Time {
	return h.AppendChangePoints(nil)
}

// HistoricalDatabase is a database of historical relations plus a
// snapshot-indexed evaluation of ordinary relational queries — the temporal
// extension of the §5.1.1 query model.
type HistoricalDatabase struct {
	rels map[string]*HistoricalRelation
}

// NewHistoricalDatabase creates an empty instance.
func NewHistoricalDatabase() *HistoricalDatabase {
	return &HistoricalDatabase{rels: map[string]*HistoricalRelation{}}
}

// Add registers a historical relation.
func (db *HistoricalDatabase) Add(h *HistoricalRelation) {
	db.rels[h.Schema.Name] = h
}

// Relation looks up a historical relation.
func (db *HistoricalDatabase) Relation(name string) (*HistoricalRelation, bool) {
	h, ok := db.rels[name]
	return h, ok
}

// ValueAsOf returns the (Object, Value) relation's value at time t.
// Timeline-backed relations binary-search their samples; row-backed ones
// fall back to a scan.
func (db *HistoricalDatabase) ValueAsOf(name string, t timeseq.Time) (Value, bool) {
	h, ok := db.rels[name]
	if !ok {
		return "", false
	}
	if h.timeline() {
		return h.valueAt(t)
	}
	for _, row := range h.rows {
		if len(row.Tuple) == 2 && row.Tuple[0] == name && row.Valid.Contains(t) {
			return row.Tuple[1], true
		}
	}
	return "", false
}

// SnapshotAt materializes the whole database instance I_t.
func (db *HistoricalDatabase) SnapshotAt(t timeseq.Time) *relational.Database {
	out := relational.NewDatabase()
	for _, h := range db.rels {
		out.Add(h.SnapshotAt(t))
	}
	return out
}

// QueryAt evaluates an ordinary relational query against the snapshot at
// time t — "one could simply add a second argument to R and write R(u, t)".
func (db *HistoricalDatabase) QueryAt(q relational.Query, t timeseq.Time) (*relational.Relation, error) {
	return q.Eval(db.SnapshotAt(t))
}

// QueryDuring evaluates q at every change point within [lo, hi] and returns
// the union of the answers together with the lifespan during which each
// answer tuple was in the result — a simple valid-time query semantics.
func (db *HistoricalDatabase) QueryDuring(q relational.Query, lo, hi timeseq.Time) (*HistoricalRelation, error) {
	// Collect candidate evaluation points: lo plus every change point of
	// every stored relation inside (lo, hi]. One scratch buffer serves all
	// relations.
	points := []timeseq.Time{lo}
	var scratch []timeseq.Time
	for _, h := range db.rels {
		scratch = h.AppendChangePoints(scratch[:0])
		for _, cp := range scratch {
			if cp > lo && cp <= hi {
				points = append(points, cp)
			}
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	out := NewHistoricalRelation(q.Sort())
	for i, p := range points {
		if i > 0 && points[i-1] == p {
			continue
		}
		end := hi
		for _, np := range points[i+1:] {
			if np != p {
				end = np - 1
				break
			}
		}
		res, err := q.Eval(db.SnapshotAt(p))
		if err != nil {
			return nil, err
		}
		for _, u := range res.Tuples() {
			if err := out.Insert(u, NewLifespan(Interval{p, end})); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
