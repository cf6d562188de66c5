package rtdb

import (
	"fmt"
	"sort"
	"strings"

	"rtc/internal/deadline"
	"rtc/internal/encoding"
	"rtc/internal/timeseq"
	"rtc/internal/word"
)

// This file implements §5.1.3: real-time database instances and queries as
// timed ω-words, the recognition languages (9) and (10) of Definition 5.1,
// and Lemma 5.1.
//
// Encodings use the record machinery of internal/encoding (the paper
// assumes suitable enc and enc_q functions with disjoint codomains and
// leaves their construction open).

// Spec describes a real-time database instance B = (I…, D, V) by its
// generators: the invariant values, the derived-object definitions, and the
// image objects with their sampling periods and external-world read
// functions. A Spec plays the role of B in the language definitions; a live
// DB is its operational counterpart.
type Spec struct {
	Invariants map[string]Value
	Derived    []*DerivedObject
	Images     []*ImageObject
}

// Build instantiates a live DB from the spec on the given scheduler.
func (sp Spec) Build(db *DB) {
	for name, v := range sp.Invariants {
		db.AddInvariant(name, v)
	}
	for _, d := range sp.Derived {
		db.AddDerived(&DerivedObject{Name: d.Name, Sources: d.Sources, Derive: d.Derive})
	}
	for _, o := range sp.Images {
		db.AddImage(&ImageObject{Name: o.Name, Period: o.Period, Read: o.Read})
	}
}

// DB0Word builds db_0: the invariant and derived objects, all specified at
// time 0 ("the sets of both invariant and derived objects are specified at
// time 0").
func (sp Spec) DB0Word() word.Finite {
	var syms []word.Symbol
	names := make([]string, 0, len(sp.Invariants))
	for n := range sp.Invariants {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		syms = append(syms, encoding.Record("V", n, sp.Invariants[n])...)
	}
	for _, d := range sp.Derived {
		fields := append([]string{"D", d.Name}, d.Sources...)
		syms = append(syms, encoding.Record(fields...)...)
	}
	out := make(word.Finite, len(syms))
	for i, s := range syms {
		out[i] = word.TimedSym{Sym: s, At: 0}
	}
	return out
}

// DBkWord builds db_k for one image object: "each t_k time units a new
// value for o_k is provided", i.e. the record enc(o_k(t_i)) at time i·t_k.
func DBkWord(o *ImageObject) word.Word {
	i := uint64(0)
	var pending word.Finite
	return word.Sequential(func() word.TimedSym {
		for len(pending) == 0 {
			t := timeseq.Time(i) * o.Period
			for _, s := range encoding.Record("I", o.Name, o.Read(t)) {
				pending = append(pending, word.TimedSym{Sym: s, At: t})
			}
			i++
		}
		e := pending[0]
		pending = pending[1:]
		return e
	})
}

// DBWord builds db_B = db_0 · db_1 · … · db_r under Definition 3.5's
// concatenation (equation (6)).
func (sp Spec) DBWord() word.Word {
	ws := []word.Word{sp.DB0Word()}
	for _, o := range sp.Images {
		ws = append(ws, DBkWord(o))
	}
	return word.ConcatAll(ws...)
}

// QuerySpec describes one real-time query instance: the query name (its
// enc_q is the name, resolved against a Catalog), the issue time t, the
// candidate tuple s, and the deadline class exactly as in §4.1 (no
// deadline, firm, or soft with usefulness u, imposed at relative time t_d).
type QuerySpec struct {
	Query     string
	Issue     timeseq.Time
	Candidate Value
	Kind      deadline.Kind
	Deadline  timeseq.Time // relative: the absolute deadline is Issue+Deadline
	MinUseful uint64
	U         deadline.Usefulness // over absolute time (case Soft)
}

// Marker symbols are subscripted by issue time — the w_x, d_x of the
// paper's periodic construction, which keep the markers of overlapping
// query words distinguishable after concatenation.
func wMarker(t timeseq.Time) word.Symbol { return word.Symbol(fmt.Sprintf("w@%d", t)) }
func dMarker(t timeseq.Time) word.Symbol { return word.Symbol(fmt.Sprintf("d@%d", t)) }

// markerIssue parses a marker back into its kind and issue time.
func markerIssue(s word.Symbol) (kind byte, issue timeseq.Time, ok bool) {
	str := string(s)
	if len(str) < 3 || str[1] != '@' || (str[0] != 'w' && str[0] != 'd') {
		return 0, 0, false
	}
	var v uint64
	for _, c := range str[2:] {
		if c < '0' || c > '9' {
			return 0, 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return str[0], timeseq.Time(v), true
}

// AqWord builds aq_[q,s,t] per §5.1.3: at time t the (optional) minimum
// usefulness, the candidate tuple, and the query arrive; then w_q markers
// every chronon until the (absolute) deadline; after it, pairs
// (d_q, usefulness).
func (qs QuerySpec) AqWord() word.Word {
	var header word.Finite
	add := func(s word.Symbol) {
		header = append(header, word.TimedSym{Sym: s, At: qs.Issue})
	}
	if qs.Kind != deadline.None {
		add(encoding.Num(qs.MinUseful))
	}
	for _, s := range encoding.Record("s", qs.Candidate) {
		add(s)
	}
	for _, s := range encoding.Record("q", qs.Query) {
		add(s)
	}
	h := uint64(len(header))
	absDead := qs.Issue + qs.Deadline

	useAfter := func(t timeseq.Time) uint64 {
		if qs.Kind == deadline.Soft && qs.U != nil {
			return qs.U(t)
		}
		return 0
	}
	return word.Gen{F: func(i uint64) word.TimedSym {
		if i < h {
			return header[i]
		}
		k := i - h
		t := qs.Issue + timeseq.Time(k+1)
		if qs.Kind == deadline.None || t < absDead {
			return word.TimedSym{Sym: wMarker(qs.Issue), At: t}
		}
		j := k - uint64(absDead-qs.Issue-1)
		at := absDead + timeseq.Time(j/2)
		if j%2 == 0 {
			return word.TimedSym{Sym: dMarker(qs.Issue), At: at}
		}
		return word.TimedSym{Sym: encoding.Num(useAfter(at)), At: at}
	}}
}

// PeriodicSpec describes a periodic query: first issued at Issue, then
// re-issued every Period chronons, with Candidates(i) the tuple tested at
// the i-th invocation (0-indexed).
type PeriodicSpec struct {
	Query      string
	Issue      timeseq.Time
	Period     timeseq.Time
	Candidates func(i uint64) Value
	Kind       deadline.Kind
	Deadline   timeseq.Time
	MinUseful  uint64
	U          deadline.Usefulness
}

// Invocation returns the aperiodic spec of the i-th invocation.
func (ps PeriodicSpec) Invocation(i uint64) QuerySpec {
	return QuerySpec{
		Query:     ps.Query,
		Issue:     ps.Issue + timeseq.Time(i)*ps.Period,
		Candidate: ps.Candidates(i),
		Kind:      ps.Kind,
		Deadline:  ps.Deadline,
		MinUseful: ps.MinUseful,
		U:         ps.U,
	}
}

// PqWord builds pq_[q,s,t,tp] = aq_[q,s1,t]·aq_[q,s2,t+tp]·…, the infinite
// concatenation of §5.1.3. Lemma 5.1 guarantees the result is well behaved;
// operationally that is exactly the MergeMany requirement (stream start
// times non-decreasing and unbounded).
func (ps PeriodicSpec) PqWord() word.Word {
	return word.MergeMany(func(k uint64) word.Word {
		return ps.Invocation(k).AqWord()
	})
}

// Lemma51Bound returns, per Lemma 5.1, an index k′ such that τ_{k′} ≥ k in
// the given word, by linear scan (the lemma asserts finiteness; the scan is
// its constructive witness). The second result is false if the scan budget
// is exhausted first — which for a well-behaved word cannot happen — or if a
// finite word (the lemma's hypotheses admit finite time sequences) ends
// before any element reaches time k.
func Lemma51Bound(w word.Word, k timeseq.Time, budget uint64) (uint64, bool) {
	limit := budget
	if l := w.Length(); !l.Omega && l.N < limit {
		limit = l.N
	}
	for i := uint64(0); i < limit; i++ {
		if w.At(i).At >= k {
			return i, true
		}
	}
	return 0, false
}

// Catalog maps query names (the codomain of enc_q) to their semantics: a
// query evaluates against a View of the database state and returns its
// answer set.
type Catalog map[string]func(v *View) []Value

// View is the database state visible at a point in time: invariants, the
// sampled history of every image object, and the derived-object registry
// for recomputation.
type View struct {
	Now        timeseq.Time
	Invariants map[string]Value
	Samples    map[string][]Sample
	Derived    map[string]*DerivedObject
}

// Latest returns the most recent sample of an image at or before Now.
// Histories are append-only and timestamp-ordered: a serving-time view's Now
// is at or past the newest sample, which is answered without a search, and
// an as-of view binary-searches — the query path must not degrade as the
// history grows.
func (v *View) Latest(name string) (Sample, bool) {
	h := v.Samples[name]
	if n := len(h); n > 0 && h[n-1].At <= v.Now {
		return h[n-1], true
	}
	lo, hi := 0, len(h)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h[mid].At <= v.Now {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return Sample{}, false
	}
	return h[lo-1], true
}

// DeriveNow recomputes a derived object against the view.
func (v *View) DeriveNow(name string) (Value, bool) {
	d, ok := v.Derived[name]
	if !ok {
		return "", false
	}
	src := make(map[string]Value, len(d.Sources))
	for _, s := range d.Sources {
		if smp, ok := v.Latest(s); ok {
			src[s] = smp.Value
			continue
		}
		if val, ok := v.Invariants[s]; ok {
			src[s] = val
			continue
		}
		if val, ok := v.DeriveNow(s); ok {
			src[s] = val
			continue
		}
		return "", false
	}
	return d.Derive(src), true
}

// ViewAt builds the ground-truth view of a spec at time t (every sample the
// external world would have produced by then).
func (sp Spec) ViewAt(t timeseq.Time) *View {
	v := &View{
		Now:        t,
		Invariants: map[string]Value{},
		Samples:    map[string][]Sample{},
		Derived:    map[string]*DerivedObject{},
	}
	for n, val := range sp.Invariants {
		v.Invariants[n] = val
	}
	for _, d := range sp.Derived {
		v.Derived[d.Name] = d
	}
	for _, o := range sp.Images {
		for i := uint64(0); ; i++ {
			at := timeseq.Time(i) * o.Period
			if at > t {
				break
			}
			v.Samples[o.Name] = append(v.Samples[o.Name], Sample{At: at, Value: o.Read(at)})
		}
	}
	return v
}

// MemberAq is the ground truth of language (9): s ∈ q(B) with the query
// evaluated on the database state at the issue time.
func (sp Spec) MemberAq(cat Catalog, qs QuerySpec) bool {
	q, ok := cat[qs.Query]
	if !ok {
		return false
	}
	answers := q(sp.ViewAt(qs.Issue))
	for _, a := range answers {
		if a == qs.Candidate {
			return true
		}
	}
	return false
}

// MemberPq is the ground truth of language (10) restricted to the first n
// invocations: every tested tuple belongs to the corresponding answer
// ("the specification … require[s] that all the queries be served").
func (sp Spec) MemberPq(cat Catalog, ps PeriodicSpec, n uint64) bool {
	for i := uint64(0); i < n; i++ {
		if !sp.MemberAq(cat, ps.Invocation(i)) {
			return false
		}
	}
	return true
}

// describe renders a query spec for diagnostics.
func (qs QuerySpec) String() string {
	parts := []string{fmt.Sprintf("q=%s@%d s=%q", qs.Query, qs.Issue, qs.Candidate)}
	if qs.Kind != deadline.None {
		parts = append(parts, fmt.Sprintf("%v t_d=%d min=%d", qs.Kind, qs.Deadline, qs.MinUseful))
	}
	return strings.Join(parts, " ")
}
