package log

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sort"

	"rtc/internal/encoding"
	"rtc/internal/rtdb"
	"rtc/internal/timeseq"
)

// State is what the log folds its records into: the database catalog, each
// image's sample history, the largest timestamp and the event count. Rule
// firings and query issues are counted but not kept — their records live in
// the segments, which ReadFrom serves byte for byte. Two states built from
// the same event sequence — one live, one by crash recovery — compare
// deep-equal; that is the recovery invariant the tests pin down, with the
// segments' payloads for the records the state only counts.
type State struct {
	Invariants map[string]string
	Images     map[string]*ImageState
	Derived    map[string]*DerivedState
	LastAt     timeseq.Time // largest timestamp applied
	Events     uint64       // number of events applied
}

// ImageState is the recovered history of one image object.
type ImageState struct {
	Period  timeseq.Time
	Samples []rtdb.Sample
}

// add appends one sample to the history: what applying a sample record
// does to its image, and all it does.
func (img *ImageState) add(at timeseq.Time, value string) {
	img.Samples = append(img.Samples, rtdb.Sample{At: at, Value: value})
}

// DerivedState is the recovered definition of one derived object. The
// derivation function itself is code, not data; like the acceptor's
// DeriveRegistry it is re-bound by name after recovery.
type DerivedState struct {
	Sources []string
}

// NewState returns an empty state.
func NewState() *State {
	return &State{
		Invariants: map[string]string{},
		Images:     map[string]*ImageState{},
		Derived:    map[string]*DerivedState{},
	}
}

// check validates an event against the current state without mutating it.
// It is the one validator: the log calls it before writing a frame, so that
// everything Apply could reject is caught while the disk is still
// untouched, and Apply calls it before apply.
func (st *State) check(e Event) error {
	switch e.Kind {
	case KindInvariant, KindDerived, KindFiring:
		return nil
	case KindImage:
		if len(e.Args) != 1 {
			return fmt.Errorf("log: image record for %q needs a period", e.Name)
		}
		_, err := encoding.ParseUint(e.Args[0])
		return err
	case KindSample:
		if _, ok := st.Images[e.Name]; !ok {
			return fmt.Errorf("log: sample for unregistered image %q", e.Name)
		}
		return nil
	case KindQuery:
		if len(e.Args) != 4 {
			return fmt.Errorf("log: query record for %q needs 4 args", e.Name)
		}
		for _, a := range e.Args[1:] {
			if _, err := encoding.ParseUint(a); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("log: unknown event kind %v", e.Kind)
	}
}

// Apply validates one event and integrates it.
func (st *State) Apply(e Event) error {
	if err := st.check(e); err != nil {
		return err
	}
	st.apply(e)
	return nil
}

// apply integrates one event check has passed, so it cannot fail. A firing
// or a query moves only the counters.
func (st *State) apply(e Event) {
	switch e.Kind {
	case KindInvariant:
		st.Invariants[e.Name] = e.Value
	case KindImage:
		if _, ok := st.Images[e.Name]; !ok {
			p, _ := encoding.ParseUint(e.Args[0])
			st.Images[e.Name] = &ImageState{Period: timeseq.Time(p)}
		}
	case KindDerived:
		st.Derived[e.Name] = &DerivedState{Sources: append([]string{}, e.Args...)}
	case KindSample:
		st.Images[e.Name].add(e.At, e.Value)
	}
	if e.At > st.LastAt {
		st.LastAt = e.At
	}
	st.Events++
}

// sortedKeys returns a catalog map's names sorted, for deterministic walks.
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// visit walks the state as a deterministic event sequence — the catalog,
// then each image's samples; replaying the sequence into an empty state and
// restoring the counters from the snapshot header rebuilds an equal one. It
// is the snapshot payload, streamed: a snapshot encodes each event as it is
// visited, so the history is never materialized a second time.
func (st *State) visit(emit func(Event)) {
	for _, n := range sortedKeys(st.Invariants) {
		emit(Invariant(n, st.Invariants[n]))
	}
	names := sortedKeys(st.Images)
	for _, n := range names {
		emit(Image(n, st.Images[n].Period))
	}
	for _, n := range sortedKeys(st.Derived) {
		emit(Derived(n, st.Derived[n].Sources...))
	}
	for _, n := range names {
		for _, s := range st.Images[n].Samples {
			emit(Sample(s.At, n, s.Value))
		}
	}
}

// Diff returns a description of the first divergence between two states,
// or "" when they are deep-equal. The torture harness uses it to turn a
// failed recovery invariant into an actionable message instead of a bare
// deep-equal failure. Every field is compared by hand, each sample once;
// the deep-equal catch-all that follows runs on copies without the sample
// histories, so a field added to State or ImageState later is still caught
// without a second walk of every sample.
func (st *State) Diff(other *State) string {
	if other == nil {
		return "other state is nil"
	}
	if st.Events != other.Events {
		return fmt.Sprintf("Events %d vs %d", st.Events, other.Events)
	}
	if st.LastAt != other.LastAt {
		return fmt.Sprintf("LastAt %d vs %d", st.LastAt, other.LastAt)
	}
	for n, v := range st.Invariants {
		if ov, ok := other.Invariants[n]; !ok || ov != v {
			return fmt.Sprintf("invariant %q: %q vs %q (present=%v)", n, v, ov, ok)
		}
	}
	if len(st.Invariants) != len(other.Invariants) {
		return fmt.Sprintf("invariant count %d vs %d", len(st.Invariants), len(other.Invariants))
	}
	for _, n := range sortedKeys(st.Images) {
		a, b := st.Images[n], other.Images[n]
		if b == nil {
			return fmt.Sprintf("image %q missing", n)
		}
		if a.Period != b.Period {
			return fmt.Sprintf("image %q period %d vs %d", n, a.Period, b.Period)
		}
		if len(a.Samples) != len(b.Samples) {
			return fmt.Sprintf("image %q sample count %d vs %d", n, len(a.Samples), len(b.Samples))
		}
		for i := range a.Samples {
			if a.Samples[i] != b.Samples[i] {
				return fmt.Sprintf("image %q sample %d: %+v vs %+v", n, i, a.Samples[i], b.Samples[i])
			}
		}
	}
	if len(st.Images) != len(other.Images) {
		return fmt.Sprintf("image count %d vs %d", len(st.Images), len(other.Images))
	}
	for _, n := range sortedKeys(st.Derived) {
		a, b := st.Derived[n], other.Derived[n]
		if b == nil {
			return fmt.Sprintf("derived %q missing", n)
		}
		if !slices.Equal(a.Sources, b.Sources) {
			return fmt.Sprintf("derived %q sources %q vs %q", n, a.Sources, b.Sources)
		}
	}
	if len(st.Derived) != len(other.Derived) {
		return fmt.Sprintf("derived count %d vs %d", len(st.Derived), len(other.Derived))
	}
	if !reflect.DeepEqual(st.withoutSamples(), other.withoutSamples()) {
		return "states differ outside the compared fields"
	}
	return ""
}

// withoutSamples is a shallow copy of the state whose images hold no
// samples: what Diff's catch-all compares once the histories are done. The
// image copies share one allocation.
func (st *State) withoutSamples() State {
	out := *st
	out.Images = make(map[string]*ImageState, len(st.Images))
	imgs := make([]ImageState, 0, len(st.Images))
	for n, img := range st.Images {
		imgs = append(imgs, *img)
		imgs[len(imgs)-1].Samples = nil
		out.Images[n] = &imgs[len(imgs)-1]
	}
	return out
}

// Rebuild is the one way a recovered state becomes a live database — server
// recovery calls it, for a primary, a follower and a follower's resync. It
// installs the catalog — invariants, served-mode images (nil Read: nothing is
// scheduled), and derived objects re-bound through the registry, exactly as
// the acceptor's DeriveRegistry re-binds enc(D) — adopts each image's
// history whole, copy-on-append (ImageObject.InstallHistory), and leaves the
// clock at the state's last timestamp. The database and the state then share
// each history's recovered samples: the state appends past their end and the
// database's first append reallocates, so neither sees the other's samples,
// and neither may rewrite a sample once appended.
//
// Installing a history is indistinguishable from re-injecting its samples
// one by one at their original times as long as nothing can observe the
// injections: no rule listens on a recovered image, no event is waiting on
// the scheduler, and no recovered image already holds samples the replay
// would have appended to. Rebuild refuses a database where any of the three
// fails, before touching it. Install rules afterwards.
func (st *State) Rebuild(db *rtdb.DB, reg rtdb.DeriveRegistry) error {
	sched := db.Scheduler()
	if n := sched.Pending(); n > 0 {
		return fmt.Errorf("log: rebuild into a database with %d scheduled events", n)
	}
	names := sortedKeys(st.Images)
	for _, n := range names {
		if db.Listens("sample:" + n) {
			return fmt.Errorf("log: rebuild under a rule on image %q: install rules after recovery", n)
		}
		if o, ok := db.Image(n); ok && len(o.History()) > 0 {
			return fmt.Errorf("log: rebuild over image %q, which already holds %d samples", n, len(o.History()))
		}
	}
	for _, n := range names {
		img := &rtdb.ImageObject{Name: n, Period: st.Images[n].Period}
		// The server only ever logs an image's samples on a monotone clock,
		// so InstallHistory takes the history as it is; one that refuses it
		// as out of time order gets the order a replay at the original
		// times would have built.
		if h := st.Images[n].Samples; img.InstallHistory(h) != nil {
			if err := img.InstallHistory(timeOrdered(h)); err != nil {
				return err
			}
		}
		db.AddImage(img)
	}
	for _, n := range sortedKeys(st.Invariants) {
		db.AddInvariant(n, st.Invariants[n])
	}
	for _, n := range sortedKeys(st.Derived) {
		fn, ok := reg[n]
		if !ok {
			return fmt.Errorf("log: no derivation registered for %q", n)
		}
		db.AddDerived(&rtdb.DerivedObject{Name: n, Sources: st.Derived[n].Sources, Derive: fn})
	}
	sched.RunUntil(st.LastAt)
	return nil
}

// timeOrdered returns a copy of the samples stably sorted by time: (time,
// position) order.
func timeOrdered(samples []rtdb.Sample) []rtdb.Sample {
	samples = slices.Clone(samples)
	slices.SortStableFunc(samples, func(a, b rtdb.Sample) int { return cmp.Compare(a.At, b.At) })
	return samples
}

// Historical converts the recovered sample histories into the §5.1.2
// temporal view: one valid-time relation (Object, Value) per image, each
// sample's lifespan running to the next sample (or now). It is the log's
// side of what a server's published snapshots serve, and the oracle the
// as-of tests hold them to.
func (st *State) Historical(now timeseq.Time) *rtdb.HistoricalDatabase {
	out := rtdb.NewHistoricalDatabase()
	for _, n := range sortedKeys(st.Images) {
		// Timeline capture: shares the sample slice, O(1) per image instead
		// of O(n²) row inserts.
		out.Add(rtdb.NewTimelineRelation(n, st.Images[n].Samples, now))
	}
	return out
}
