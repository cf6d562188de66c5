package log

import (
	"container/heap"
	"fmt"
	"reflect"
	"sort"
	"strconv"

	"rtc/internal/encoding"
	"rtc/internal/rtdb"
	"rtc/internal/timeseq"
)

// State is the in-memory image of the log: the database catalog plus the
// timed history replay reconstructs. Two states built from the same event
// sequence — one live, one by crash recovery — compare deep-equal; that is
// the recovery invariant the tests pin down.
type State struct {
	Invariants map[string]string
	Images     map[string]*ImageState
	Derived    map[string]*DerivedState
	Firings    []string     // "time:rule", mirroring rtdb.DB.FiringLog
	Queries    []QueryIssue // every admitted query issue, in log order
	LastAt     timeseq.Time // largest timestamp applied
	Events     uint64       // number of events applied
}

// ImageState is the recovered history of one image object.
type ImageState struct {
	Period  timeseq.Time
	Samples []rtdb.Sample
}

// DerivedState is the recovered definition of one derived object. The
// derivation function itself is code, not data; like the acceptor's
// DeriveRegistry it is re-bound by name after recovery.
type DerivedState struct {
	Sources []string
}

// QueryIssue is one recovered query issue with its deadline envelope.
type QueryIssue struct {
	At        timeseq.Time
	Session   string
	Query     string
	Candidate string
	Kind      uint64
	Deadline  timeseq.Time
	MinUseful uint64
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
// The log calls it before writing a frame so that everything Apply could
// reject is caught while the disk is still untouched — after check passes,
// Apply cannot fail.
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

// Apply integrates one event.
func (st *State) Apply(e Event) error {
	switch e.Kind {
	case KindInvariant:
		st.Invariants[e.Name] = e.Value
	case KindImage:
		if len(e.Args) != 1 {
			return fmt.Errorf("log: image record for %q needs a period", e.Name)
		}
		p, err := encoding.ParseUint(e.Args[0])
		if err != nil {
			return err
		}
		if _, ok := st.Images[e.Name]; !ok {
			st.Images[e.Name] = &ImageState{Period: timeseq.Time(p)}
		}
	case KindDerived:
		st.Derived[e.Name] = &DerivedState{Sources: append([]string{}, e.Args...)}
	case KindSample:
		img, ok := st.Images[e.Name]
		if !ok {
			return fmt.Errorf("log: sample for unregistered image %q", e.Name)
		}
		img.Samples = append(img.Samples, rtdb.Sample{At: e.At, Value: e.Value})
	case KindFiring:
		st.Firings = append(st.Firings, strconv.FormatUint(uint64(e.At), 10)+":"+e.Name)
	case KindQuery:
		if len(e.Args) != 4 {
			return fmt.Errorf("log: query record for %q needs 4 args", e.Name)
		}
		kind, err := encoding.ParseUint(e.Args[1])
		if err != nil {
			return err
		}
		dead, err := encoding.ParseUint(e.Args[2])
		if err != nil {
			return err
		}
		min, err := encoding.ParseUint(e.Args[3])
		if err != nil {
			return err
		}
		st.Queries = append(st.Queries, QueryIssue{
			At: e.At, Session: e.Args[0], Query: e.Name, Candidate: e.Value,
			Kind: kind, Deadline: timeseq.Time(dead), MinUseful: min,
		})
	default:
		return fmt.Errorf("log: unknown event kind %v", e.Kind)
	}
	if e.At > st.LastAt {
		st.LastAt = e.At
	}
	st.Events++
	return nil
}

// imageNames returns the image names sorted, for deterministic dumps.
func (st *State) imageNames() []string {
	names := make([]string, 0, len(st.Images))
	for n := range st.Images {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// visit walks the state as a deterministic event sequence; replaying the
// sequence into an empty state rebuilds an equal one. It is the snapshot
// payload, streamed: a snapshot encodes each event as it is visited, so the
// history is never materialized a second time.
func (st *State) visit(emit func(Event)) {
	invs := make([]string, 0, len(st.Invariants))
	for n := range st.Invariants {
		invs = append(invs, n)
	}
	sort.Strings(invs)
	for _, n := range invs {
		emit(Invariant(n, st.Invariants[n]))
	}
	names := st.imageNames()
	for _, n := range names {
		emit(Image(n, st.Images[n].Period))
	}
	ders := make([]string, 0, len(st.Derived))
	for n := range st.Derived {
		ders = append(ders, n)
	}
	sort.Strings(ders)
	for _, n := range ders {
		emit(Derived(n, st.Derived[n].Sources...))
	}
	for _, n := range names {
		for _, s := range st.Images[n].Samples {
			emit(Sample(s.At, n, s.Value))
		}
	}
	for _, f := range st.Firings {
		at, rule, ok := splitFiring(f)
		if !ok {
			continue
		}
		emit(Firing(at, rule))
	}
	for _, q := range st.Queries {
		emit(Query(q.At, q.Session, q.Query, q.Candidate, q.Kind, uint64(q.Deadline), q.MinUseful))
	}
}

// dump collects visit's sequence — the payload of a full-state resync.
func (st *State) dump() []Event {
	var out []Event
	st.visit(func(e Event) { out = append(out, e) })
	return out
}

func splitFiring(s string) (timeseq.Time, string, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			at, err := encoding.ParseUint(s[:i])
			if err != nil {
				return 0, "", false
			}
			return timeseq.Time(at), s[i+1:], true
		}
	}
	return 0, "", false
}

// Diff returns a description of the first divergence between two states,
// or "" when they are deep-equal. The torture harness uses it to turn a
// failed recovery invariant into an actionable message instead of a bare
// deep-equal failure.
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
	for _, n := range st.imageNames() {
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
	if len(st.Firings) != len(other.Firings) {
		return fmt.Sprintf("firing count %d vs %d", len(st.Firings), len(other.Firings))
	}
	for i := range st.Firings {
		if st.Firings[i] != other.Firings[i] {
			return fmt.Sprintf("firing %d: %q vs %q", i, st.Firings[i], other.Firings[i])
		}
	}
	if len(st.Queries) != len(other.Queries) {
		return fmt.Sprintf("query count %d vs %d", len(st.Queries), len(other.Queries))
	}
	for i := range st.Queries {
		if st.Queries[i] != other.Queries[i] {
			return fmt.Sprintf("query %d: %+v vs %+v", i, st.Queries[i], other.Queries[i])
		}
	}
	if !reflect.DeepEqual(st, other) {
		return "states differ outside the compared fields"
	}
	return ""
}

// Build instantiates a live rtdb.DB from the recovered catalog: invariants,
// served-mode images (nil Read — samples are injected, not scheduled), and
// derived objects re-bound through the registry, exactly as the acceptor's
// DeriveRegistry re-binds enc(D). Sample histories are re-injected through
// the scheduler so in-DB state matches a reference run; each image's
// history is sized here for that replay, so a rebuild allocates it once and
// leaves no trail of outgrown copies for the collector.
func (st *State) Build(db *rtdb.DB, reg rtdb.DeriveRegistry) error {
	for _, n := range st.imageNames() {
		img := &rtdb.ImageObject{Name: n, Period: st.Images[n].Period}
		img.Grow(len(st.Images[n].Samples))
		db.AddImage(img)
	}
	invs := make([]string, 0, len(st.Invariants))
	for n := range st.Invariants {
		invs = append(invs, n)
	}
	sort.Strings(invs)
	for _, n := range invs {
		db.AddInvariant(n, st.Invariants[n])
	}
	ders := make([]string, 0, len(st.Derived))
	for n := range st.Derived {
		ders = append(ders, n)
	}
	sort.Strings(ders)
	for _, n := range ders {
		fn, ok := reg[n]
		if !ok {
			return fmt.Errorf("log: no derivation registered for %q", n)
		}
		db.AddDerived(&rtdb.DerivedObject{Name: n, Sources: st.Derived[n].Sources, Derive: fn})
	}
	return nil
}

// Rebuild is the one way a recovered state becomes a live database — server
// recovery and the replica's standby mirror both call it: the catalog via
// Build, every sample re-injected at its original time, and the clock left
// at the state's last timestamp. Install rules afterwards, so that replayed
// samples do not re-fire them.
func (st *State) Rebuild(db *rtdb.DB, reg rtdb.DeriveRegistry) error {
	if err := st.Build(db, reg); err != nil {
		return err
	}
	if err := st.replaySamples(db); err != nil {
		return err
	}
	db.Scheduler().RunUntil(st.LastAt)
	return nil
}

// replaySamples re-injects the sample histories in (time, image, position)
// order, advancing the virtual clock so every sample lands at its original
// time. Each image's history is already in log order, which is time order,
// so the global order is a k-way merge of the histories as they stand: a
// heap of one cursor per image keyed by (head time, image name) yields
// exactly the sequence a sort of all samples by (time, image, position)
// would, without copying or comparing the samples themselves.
func (st *State) replaySamples(db *rtdb.DB) error {
	h := make(replayHeap, 0, len(st.Images))
	for name, img := range st.Images {
		if len(img.Samples) > 0 {
			h = append(h, replayCursor{image: name, rest: timeOrdered(img.Samples)})
		}
	}
	heap.Init(&h)
	sched := db.Scheduler()
	for len(h) > 0 {
		c := &h[0]
		sched.RunUntil(c.rest[0].At)
		if err := db.InjectSample(c.image, c.rest[0].Value); err != nil {
			return err
		}
		if c.rest = c.rest[1:]; len(c.rest) == 0 {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return nil
}

// timeOrdered returns the samples in (time, position) order. The server
// only ever logs an image's samples on a monotone clock, so this is the
// slice itself; a log written some other way gets a stably sorted copy, and
// the merge stays equal to the sort it replaced on every input.
func timeOrdered(samples []rtdb.Sample) []rtdb.Sample {
	byTime := func(i, j int) bool { return samples[i].At < samples[j].At }
	if sort.SliceIsSorted(samples, byTime) {
		return samples
	}
	samples = append([]rtdb.Sample(nil), samples...)
	sort.SliceStable(samples, byTime)
	return samples
}

// replayCursor is the unreplayed rest of one image's history.
type replayCursor struct {
	image string
	rest  []rtdb.Sample
}

// replayHeap orders cursors by (head sample time, image name).
type replayHeap []replayCursor

func (h replayHeap) Len() int { return len(h) }
func (h replayHeap) Less(i, j int) bool {
	if a, b := h[i].rest[0].At, h[j].rest[0].At; a != b {
		return a < b
	}
	return h[i].image < h[j].image
}
func (h replayHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *replayHeap) Push(x any)   { *h = append(*h, x.(replayCursor)) }
func (h *replayHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// Historical converts the recovered sample histories into the §5.1.2
// temporal view: one valid-time relation (Object, Value) per image, each
// sample's lifespan running to the next sample (or now). This is the
// structure as-of reads are served from.
func (st *State) Historical(now timeseq.Time) *rtdb.HistoricalDatabase {
	out := rtdb.NewHistoricalDatabase()
	for _, n := range st.imageNames() {
		// Timeline capture: shares the sample slice, O(1) per image instead
		// of O(n²) row inserts — a standby republishing its query mirror on
		// every applied batch must not slow down as the history grows.
		out.Add(rtdb.NewTimelineRelation(n, st.Images[n].Samples, now))
	}
	out.SetHorizon(now)
	return out
}
