package rtdb

import (
	"fmt"
	"sort"

	"rtc/internal/timeseq"
	"rtc/internal/vtime"
)

// Value is the value of a data object (a string, as in the relational
// substrate).
type Value = string

// Sample is one archival snapshot of an image object: the value read from
// the external environment and its sampling (valid) time. §5.1.2 assumes
// valid and transaction time coincide (immediate firing on image updates).
type Sample struct {
	At    timeseq.Time
	Value Value
}

// ImageObject is an object "containing information obtained directly from
// the external environment", sampled every Period chronons. Archival
// variants are kept so that different snapshots at different points in time
// are available (the I_1, …, I_{n-1} of the instance definition).
type ImageObject struct {
	Name   string
	Period timeseq.Time
	// Read produces the external value at a sampling instant — the
	// simulated physical world.
	Read func(t timeseq.Time) Value

	history []Sample
	// sampleKind is the precomputed "sample:<name>" event kind, so the hot
	// injection path does not rebuild the string per sample.
	sampleKind string
}

// Latest returns the most recent sample, if any.
func (o *ImageObject) Latest() (Sample, bool) {
	if len(o.history) == 0 {
		return Sample{}, false
	}
	return o.history[len(o.history)-1], true
}

// At returns the sample that was current at time t (the archival lookup).
func (o *ImageObject) At(t timeseq.Time) (Sample, bool) {
	return SampleAt(o.history, t, timeseq.Infinity)
}

// SampleAt is the one archival lookup over a time-ordered history: the last
// sample with At ≤ t, so a later sample at the same instant shadows an
// earlier one, and nothing for t past horizon. It binary-searches and
// allocates nothing.
func SampleAt(h []Sample, t, horizon timeseq.Time) (Sample, bool) {
	i := sort.Search(len(h), func(i int) bool { return h[i].At > t })
	if i == 0 || t > horizon {
		return Sample{}, false
	}
	return h[i-1], true
}

// History returns all archival samples, oldest first.
func (o *ImageObject) History() []Sample { return o.history }

// InstallHistory adopts a recovered, time-ordered history into an image that
// holds none yet, in place of one InjectSample per sample. It enforces
// InjectSample's rule in one pass: no sample precedes the one before it.
// Install before AddImage, which drops the database's cached view.
//
// The image keeps h's elements, not a copy, with its capacity clipped to its
// length: the image's first append reallocates, and an owner that keeps
// appending to h writes only past that length. Neither writes an element
// the other can see, as long as both treat appended samples as immutable.
func (o *ImageObject) InstallHistory(h []Sample) error {
	if len(o.history) > 0 {
		return fmt.Errorf("rtdb: image %q already holds %d samples", o.Name, len(o.history))
	}
	for i := 1; i < len(h); i++ {
		if h[i].At < h[i-1].At {
			return fmt.Errorf("rtdb: sample for %q at %d precedes last sample at %d", o.Name, h[i].At, h[i-1].At)
		}
	}
	o.history = h[:len(h):len(h)]
	return nil
}

// DerivedObject is "computed from a set of image objects and possibly other
// objects"; its timestamp is the oldest valid time of the objects used to
// derive it.
type DerivedObject struct {
	Name    string
	Sources []string
	// Derive computes the value from the named sources' current values.
	Derive func(src map[string]Value) Value

	value Value
	// stamp is the oldest valid time among the sources at derivation.
	stamp timeseq.Time
	valid bool
}

// Current returns the derived value and its timestamp.
func (o *DerivedObject) Current() (Value, timeseq.Time, bool) {
	return o.value, o.stamp, o.valid
}

// FiringMode selects when a triggered rule runs (§5.1.2, active databases).
type FiringMode int

const (
	// Immediate: the rule fires as soon as its event and condition hold.
	Immediate FiringMode = iota
	// Deferred: rule invocation is delayed until the end of the current
	// chronon (the quiescent state in the absence of further rules).
	Deferred
	// Concurrent: the action is spawned as a separate scheduler event,
	// running after the triggering transaction but within the same chronon
	// ordering discipline.
	Concurrent
)

// String implements fmt.Stringer.
func (m FiringMode) String() string {
	switch m {
	case Immediate:
		return "immediate"
	case Deferred:
		return "deferred"
	default:
		return "concurrent"
	}
}

// Event is an occurrence a rule can react to: an external phenomenon or an
// internal change. Attributes are passed to the rule ("events may have
// attributes that are passed to the system").
type Event struct {
	Kind string
	At   timeseq.Time
	Attr map[string]Value
}

// Rule is "on event if condition then action" with a firing mode.
type Rule struct {
	Name string
	On   string // event kind
	Mode FiringMode
	If   func(db *DB, e Event) bool
	Then func(db *DB, e Event)
}

// Scheduler priorities within one chronon: samples happen first, then
// rule cascades, then deferred rules at the quiescent point.
const (
	prioSample     = 0
	prioConcurrent = 5
	prioDeferred   = 9
)

// DB is a live real-time database instance
// B = (I_1, …, I_n, D, V) driven by a virtual-time scheduler.
type DB struct {
	sched      *vtime.Scheduler
	images     map[string]*ImageObject
	derived    map[string]*DerivedObject
	invariants map[string]Value
	rules      []Rule
	// listeners counts rules per event kind; raising an event no rule
	// listens to can then skip building the event entirely.
	listeners map[string]int
	// view is the cached ViewNow result. A sample updates its image's
	// history in it; registering an object drops it.
	view *View

	deferred      []func()
	deferredArmed bool
	// fired holds the rule firings not yet taken by ClearFirings.
	fired           []Firing
	cascadeDepthCap int
	raiseDepth      int
	maxCascade      int
}

// New creates an empty database bound to a scheduler.
func New(s *vtime.Scheduler) *DB {
	return &DB{
		sched:           s,
		images:          make(map[string]*ImageObject),
		derived:         make(map[string]*DerivedObject),
		invariants:      make(map[string]Value),
		listeners:       make(map[string]int),
		cascadeDepthCap: 64,
	}
}

// Scheduler exposes the underlying clock.
func (db *DB) Scheduler() *vtime.Scheduler { return db.sched }

// Now returns the current virtual time.
func (db *DB) Now() timeseq.Time { return db.sched.Now() }

// AddInvariant registers an invariant object ("a value that is constant
// with time"). Its timestamp is always the current time, per §5.1.2.
func (db *DB) AddInvariant(name string, v Value) {
	db.invariants[name] = v
	db.view = nil
}

// Invariant looks up an invariant object.
func (db *DB) Invariant(name string) (Value, bool) {
	v, ok := db.invariants[name]
	return v, ok
}

// AddImage registers an image object and schedules its periodic sampling
// starting at time 0 (or now, if the clock already advanced). Each sampling
// generates an event "sample:<name>" that the rule engine handles.
//
// An image with a nil Read function is registered in served mode: no
// sampling is scheduled, and its history grows only through InjectSample —
// the shape a server needs when external clients, not a simulated world,
// provide the samples.
func (db *DB) AddImage(o *ImageObject) {
	o.sampleKind = "sample:" + o.Name
	db.images[o.Name] = o
	db.view = nil
	if o.Read == nil {
		return
	}
	start := db.sched.Now()
	db.sched.Every(start, o.Period, prioSample, func() {
		t := db.sched.Now()
		v := o.Read(t)
		db.appendSample(o, Sample{At: t, Value: v})
		db.raiseSample(o, t, v)
	})
}

// appendSample extends an image's history and the cached view's copy of
// its slice header.
func (db *DB) appendSample(o *ImageObject, s Sample) {
	o.history = append(o.history, s)
	if db.view != nil {
		db.view.Samples[o.Name] = o.history
	}
}

// raiseSample raises the "sample:<name>" event for a fresh sample — unless
// no rule listens for it, in which case the event (and its attribute map)
// is never built. Rules observe identical behavior either way: an event
// with no matching rule is a no-op in the engine.
func (db *DB) raiseSample(o *ImageObject, t timeseq.Time, v Value) {
	if !db.Listens(o.sampleKind) {
		return
	}
	db.Raise(Event{Kind: o.sampleKind, At: t, Attr: map[string]Value{"value": v}})
}

// InjectSample records an externally supplied sample for the named image at
// the current virtual time and raises the same "sample:<name>" event a
// scheduled sampling would, so active rules fire identically whether the
// value came from a Read function or from a client session.
func (db *DB) InjectSample(name string, v Value) error {
	o, ok := db.images[name]
	if !ok {
		return fmt.Errorf("rtdb: unknown image object %q", name)
	}
	t := db.sched.Now()
	if n := len(o.history); n > 0 && o.history[n-1].At > t {
		return fmt.Errorf("rtdb: sample for %q at %d precedes last sample at %d", name, t, o.history[n-1].At)
	}
	db.appendSample(o, Sample{At: t, Value: v})
	db.raiseSample(o, t, v)
	return nil
}

// Image looks up an image object.
func (db *DB) Image(name string) (*ImageObject, bool) {
	o, ok := db.images[name]
	return o, ok
}

// AddDerived registers a derived object. Recomputation is wired by the
// caller through rules (typically: on sample of any source, rederive) or by
// calling Rederive explicitly; §5.1.2 notes one may, e.g., impose immediate
// firing for image updates but deferred firing for derived objects.
func (db *DB) AddDerived(o *DerivedObject) {
	db.derived[o.Name] = o
	db.view = nil
}

// Derived looks up a derived object.
func (db *DB) Derived(name string) (*DerivedObject, bool) {
	o, ok := db.derived[name]
	return o, ok
}

// Rederive recomputes a derived object from the current source values; the
// timestamp becomes the oldest source valid time.
func (db *DB) Rederive(name string) error {
	o, ok := db.derived[name]
	if !ok {
		return fmt.Errorf("rtdb: unknown derived object %q", name)
	}
	src := make(map[string]Value, len(o.Sources))
	oldest := timeseq.Infinity
	for _, s := range o.Sources {
		if img, ok := db.images[s]; ok {
			smp, has := img.Latest()
			if !has {
				return fmt.Errorf("rtdb: source %q has no sample yet", s)
			}
			src[s] = smp.Value
			if smp.At < oldest {
				oldest = smp.At
			}
			continue
		}
		if v, ok := db.invariants[s]; ok {
			src[s] = v
			// Invariant timestamps are "always the current time".
			if db.Now() < oldest {
				oldest = db.Now()
			}
			continue
		}
		if d, ok := db.derived[s]; ok && d.valid {
			src[s] = d.value
			if d.stamp < oldest {
				oldest = d.stamp
			}
			continue
		}
		return fmt.Errorf("rtdb: unknown source %q for derived %q", s, name)
	}
	o.value = o.Derive(src)
	o.stamp = oldest
	o.valid = true
	return nil
}

// AddRule registers a rule.
func (db *DB) AddRule(r Rule) {
	db.rules = append(db.rules, r)
	db.listeners[r.On]++
}

// Listens reports whether any rule reacts to events of the given kind.
func (db *DB) Listens(kind string) bool { return db.listeners[kind] > 0 }

// Raise delivers an event to the rule engine under the firing-mode
// semantics. Immediate rules run inline (and may cascade, bounded by the
// cascade cap); concurrent rules are scheduled as separate events in the
// same chronon; deferred rules run at the chronon's quiescent point.
func (db *DB) Raise(e Event) {
	db.raise(e, db.raiseDepth)
}

func (db *DB) raise(e Event, depth int) {
	if depth > db.cascadeDepthCap {
		panic(fmt.Sprintf("rtdb: rule cascade deeper than %d (non-terminating rule set?)", db.cascadeDepthCap))
	}
	if depth > db.maxCascade {
		db.maxCascade = depth
	}
	for i := range db.rules {
		r := db.rules[i]
		if r.On != e.Kind {
			continue
		}
		switch r.Mode {
		case Immediate:
			if r.If == nil || r.If(db, e) {
				db.logFiring(r.Name)
				db.runAction(r, e, depth)
			}
		case Concurrent:
			db.sched.At(db.Now(), prioConcurrent, func() {
				if r.If == nil || r.If(db, e) {
					db.logFiring(r.Name)
					db.runAction(r, e, depth)
				}
			})
		case Deferred:
			db.deferred = append(db.deferred, func() {
				// Deferred rules evaluate their condition against the
				// final (quiescent) state.
				if r.If == nil || r.If(db, e) {
					db.logFiring(r.Name)
					db.runAction(r, e, depth)
				}
			})
			if !db.deferredArmed {
				db.deferredArmed = true
				db.sched.At(db.Now(), prioDeferred, db.flushDeferred)
			}
		}
	}
}

// Firing is one recorded rule firing.
type Firing struct {
	At   timeseq.Time
	Rule string
}

// logFiring records a firing of rule at the current time.
func (db *DB) logFiring(rule string) {
	db.fired = append(db.fired, Firing{At: db.Now(), Rule: rule})
}

func (db *DB) runAction(r Rule, e Event, depth int) {
	// Actions may raise further events; thread the cascade depth through a
	// temporary override of Raise.
	prev := db.raiseDepth
	db.raiseDepth = depth + 1
	r.Then(db, e)
	db.raiseDepth = prev
}

func (db *DB) flushDeferred() {
	db.deferredArmed = false
	pending := db.deferred
	db.deferred = nil
	for _, f := range pending {
		f()
	}
}

// Firings returns the rule firings recorded since the last ClearFirings,
// oldest first. The slice is valid until the next firing or ClearFirings.
func (db *DB) Firings() []Firing { return db.fired }

// ClearFirings forgets the recorded firings, keeping the log's capacity:
// a server that has logged them elsewhere holds none of them here.
func (db *DB) ClearFirings() {
	clear(db.fired)
	db.fired = db.fired[:0]
}

// CascadeDepthMax returns the deepest rule cascade observed so far — an
// observability hook for the serving layer's metrics block.
func (db *DB) CascadeDepthMax() int { return db.maxCascade }

// ViewNow assembles the §5.1.3 View of the database's current state. The
// maps and histories are shared, not copied: the view is a read-only window
// onto the database, and it is cached. A sample overwrites its image's
// history in the view's Samples map and Now advances on each call; only
// registering an image, a derived object or an invariant builds it anew.
// A holder must therefore finish with a view before the database is next
// mutated, which is exactly the lifetime a query evaluation inside a
// serializing apply loop has. Samples between queries then cost no map
// builds.
func (db *DB) ViewNow() *View {
	if db.view == nil {
		samples := make(map[string][]Sample, len(db.images))
		for n, o := range db.images {
			samples[n] = o.history
		}
		derived := make(map[string]*DerivedObject, len(db.derived))
		for n, d := range db.derived {
			derived[n] = d
		}
		db.view = &View{Invariants: db.invariants, Samples: samples, Derived: derived}
	}
	db.view.Now = db.Now()
	return db.view
}
