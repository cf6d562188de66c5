// Package deadline implements §4.1 of the paper: computing with deadlines.
//
// An instance of a problem Π falls into one of three classes — (i) no
// deadline, (ii) a firm deadline at t_d, (iii) a soft deadline at t_d with a
// usefulness function u — and each instance is encoded as a timed ω-word
// whose structure makes the deadline observable on the input tape: a
// proposed output and the input arrive at time 0, the symbol w arrives every
// chronon until the deadline, and after the deadline each chronon brings the
// pair (d, current usefulness). The acceptor is the two-process P_w / P_m
// machine of the paper, realized on the core.Machine runtime.
package deadline

import (
	"fmt"

	"rtc/internal/core"
	"rtc/internal/encoding"
	"rtc/internal/timeseq"
	"rtc/internal/word"
)

// Kind classifies the deadline of an instance.
type Kind int

const (
	// None: class (i) — no deadline is imposed.
	None Kind = iota
	// Firm: class (ii) — results after t_d are useless (usefulness 0).
	Firm
	// Soft: class (iii) — usefulness decays according to U after t_d.
	Soft
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Firm:
		return "firm"
	default:
		return "soft"
	}
}

// Usefulness is the decay function u : [t_d, ∞) → ℕ ∩ [0, Max] of a soft
// deadline; it must be non-increasing.
type Usefulness func(t timeseq.Time) uint64

// Hyperbolic returns the paper's example usefulness: max before the
// deadline, then max/(t−t_d) after it ("u(t) = max × 1/(t−20)").
func Hyperbolic(max uint64, td timeseq.Time) Usefulness {
	return func(t timeseq.Time) uint64 {
		if t <= td {
			return max
		}
		return max / uint64(t-td)
	}
}

// Linear returns a linear decay: max at the deadline, reaching 0 after span
// chronons.
func Linear(max uint64, td timeseq.Time, span timeseq.Time) Usefulness {
	return func(t timeseq.Time) uint64 {
		if t <= td {
			return max
		}
		el := uint64(t - td)
		if el >= uint64(span) {
			return 0
		}
		return max - max*el/uint64(span)
	}
}

// Envelope is the §4.1 discipline in the form the serving stack carries it:
// the deadline class, t_d relative to the instant the request was issued,
// the minimum acceptable usefulness, and the decay over relative time since
// that instant. Aperiodic queries, periodic registrations, subscription ticks
// (primary and standby) and the wire's expired-on-arrival test all judge a
// completion with these two methods; Acceptor is the formal reference they
// are checked against (TestEnvelopeAgreesWithAcceptor).
type Envelope struct {
	Kind      Kind
	Deadline  timeseq.Time
	MinUseful uint64
	U         Usefulness
}

// Score judges a completion rel chronons after issue: late reports the
// deadline passed, and useful is the usefulness at completion.
func (e Envelope) Score(rel timeseq.Time) (useful uint64, late bool) {
	if e.Kind == None {
		return 0, false
	}
	late = rel >= e.Deadline
	switch {
	case !late:
		// Before the deadline usefulness is maximal; report MinUseful so
		// the admission test "useful ≥ MinUseful" is trivially met.
		useful = e.MinUseful
	case e.Kind == Soft && e.U != nil:
		useful = e.U(rel)
	default:
		useful = 0 // firm: equation (2), useless after t_d
	}
	return useful, late
}

// Admissible reports whether a completion that Score judged (useful, late)
// meets the discipline — P_m's comparison: a late completion survives only
// when a minimum usefulness is declared and the decay still clears it. It
// takes the score so that a caller that wants both asks the decay once;
// e.Admissible(e.Score(rel)) is the test alone. Usefulness is non-increasing,
// so an evaluation that would finish inadmissibly can be skipped unevaluated
// (admission control).
func (e Envelope) Admissible(useful uint64, late bool) bool {
	return !late || (e.MinUseful > 0 && useful >= e.MinUseful)
}

// Special input symbols of the §4.1 word construction.
const (
	// W arrives every chronon while the deadline has not passed.
	W = word.Symbol("w")
	// D arrives (paired with the current usefulness) once the deadline has
	// passed.
	D = word.Symbol("d")
	// Sep separates the proposed output from the instance input at time 0.
	// (The paper omits delimiters for clarity and notes they are easily
	// added; we add them so the acceptor can parse the word.)
	Sep = word.Symbol("|")
)

// Instance is one instance of Π together with its deadline class.
type Instance struct {
	// Input is the instance input ι.
	Input []word.Symbol
	// Proposed is the output o carried by the word; the word is in L(Π)
	// iff an algorithm for Π can produce exactly this output under the
	// instance's timing constraints.
	Proposed []word.Symbol
	// Kind selects the construction case.
	Kind Kind
	// Deadline is t_d (cases Firm and Soft).
	Deadline timeseq.Time
	// MinUseful is the minimum acceptable usefulness announced at the
	// start of the word (σ_1 ∈ ℕ ∩ (0, max], cases Firm and Soft).
	MinUseful uint64
	// U is the usefulness decay (case Soft). Firm instances implicitly use
	// the constant 0 after the deadline, per equation (2).
	U Usefulness
}

// Word builds the timed ω-word of §4.1 for the instance.
//
// Deviation from the paper's letter: the index arithmetic below equation (2)
// contains a typo (τ_i = i_0 + ⌊(i−i_0)/2⌋ would make time jump from t_d to
// i_0); we implement the evident intent τ_i = t_d + ⌊(i−i_0)/2⌋, i.e. after
// the deadline each chronon delivers the pair (d, usefulness).
func (inst Instance) Word() word.Word {
	m := uint64(len(inst.Proposed))
	n := uint64(len(inst.Input))
	header := make(word.Finite, 0, m+n+3)
	add := func(s word.Symbol) {
		header = append(header, word.TimedSym{Sym: s, At: 0})
	}
	if inst.Kind != None {
		add(encoding.Num(inst.MinUseful))
	}
	for _, s := range inst.Proposed {
		add(s)
	}
	add(Sep)
	for _, s := range inst.Input {
		add(s)
	}
	add(Sep)
	h := uint64(len(header))

	useAfter := func(t timeseq.Time) uint64 {
		if inst.Kind == Soft && inst.U != nil {
			return inst.U(t)
		}
		return 0 // firm: equation (2), usefulness 0 forever
	}

	return word.Gen{F: func(i uint64) word.TimedSym {
		if i < h {
			return header[i]
		}
		k := i - h // 0-based index past the header
		switch inst.Kind {
		case None:
			return word.TimedSym{Sym: W, At: timeseq.Time(k + 1)}
		default:
			t := timeseq.Time(k + 1)
			if t < inst.Deadline {
				return word.TimedSym{Sym: W, At: t}
			}
			// Past (or at) the deadline: pairs (d, usefulness), one pair
			// per chronon starting at t_d.
			j := k - (uint64(inst.Deadline) - 1) // 0-based index into the pair region
			at := inst.Deadline + timeseq.Time(j/2)
			if j%2 == 0 {
				return word.TimedSym{Sym: D, At: at}
			}
			return word.TimedSym{Sym: encoding.Num(useAfter(at)), At: at}
		}
	}}
}

// Solver abstracts an algorithm for Π with an explicit cost model, playing
// the role of P_w. Implementations may inspect the proposed solution to
// model the paper's nondeterministic choice among multiple valid solutions
// ("P_w nondeterministically chooses that solution that matches the
// proposed solution, if such a solution exists").
type Solver interface {
	// Start receives the instance input and the proposed solution at time 0.
	Start(input, proposed []word.Symbol)
	// Tick performs one chronon of work. Once the computation is complete
	// it returns (solution, true); further calls keep returning the same.
	Tick() (solution []word.Symbol, done bool)
}

// FuncSolver is a Solver computing Solve(input) after Cost chronons.
type FuncSolver struct {
	// Cost maps input length to the number of chronons P_w needs.
	Cost func(n int) uint64
	// Solve computes the solution (called once, on completion).
	Solve func(input []word.Symbol) []word.Symbol

	input    []word.Symbol
	remain   uint64
	solution []word.Symbol
	done     bool
}

// Start implements Solver.
func (s *FuncSolver) Start(input, proposed []word.Symbol) {
	s.input = input
	s.remain = s.Cost(len(input))
	s.done = false
	s.solution = nil
}

// Tick implements Solver.
func (s *FuncSolver) Tick() ([]word.Symbol, bool) {
	if s.done {
		return s.solution, true
	}
	if s.remain > 0 {
		s.remain--
	}
	if s.remain == 0 {
		s.solution = s.Solve(s.input)
		s.done = true
	}
	return s.solution, s.done
}

// Acceptor is the two-process acceptor of §4.1 as a core.Program: P_w is the
// Solver, P_m the monitor comparing the computed solution against the
// proposed one under the word's timing discipline.
type Acceptor struct {
	core.Control
	Solver Solver

	parsed    bool
	minUseful uint64
	hasMin    bool
	proposed  []word.Symbol
	curUseful uint64 // latest usefulness received (valid when pastDeadline)
	pastDead  bool
	finishAt  timeseq.Time
	finished  bool
	solution  []word.Symbol
}

// NewAcceptor wraps a solver for Π.
func NewAcceptor(s Solver) *Acceptor { return &Acceptor{Solver: s} }

// Tick implements core.Program.
func (a *Acceptor) Tick(t *core.Tick) {
	defer a.Drive(t)
	// Time 0: parse header (minUseful? proposed | input |) and start P_w.
	if !a.parsed {
		if t.Now != 0 || len(t.New) == 0 {
			// Malformed instance word: nothing arrived at time 0.
			a.RejectForever()
			return
		}
		syms := t.New.Syms()
		idx := 0
		if v, ok := encoding.AsNum(syms[0]); ok {
			a.minUseful = v
			a.hasMin = true
			idx = 1
		}
		var input []word.Symbol
		section := 0
		for _, s := range syms[idx:] {
			if s == Sep {
				section++
				continue
			}
			switch section {
			case 0:
				a.proposed = append(a.proposed, s)
			case 1:
				input = append(input, s)
			}
		}
		if section != 2 {
			a.RejectForever()
			return
		}
		a.Solver.Start(input, a.proposed)
		a.parsed = true
	}
	// Monitor the deadline markers. Markers appear from time 1 on; the
	// time-0 arrivals are the header, whose payload alphabet may reuse the
	// letters w and d.
	markers := t.New
	if t.Now == 0 {
		markers = nil
	}
	for _, e := range markers {
		switch {
		case e.Sym == D:
			a.pastDead = true
		case e.Sym == W:
			// still before the deadline
		default:
			if v, ok := encoding.AsNum(e.Sym); ok && a.pastDead {
				a.curUseful = v
			}
		}
	}
	if a.Decided() {
		return
	}
	// One chronon of P_w work.
	sol, done := a.Solver.Tick()
	if done && !a.finished {
		a.finished = true
		a.finishAt = t.Now
		a.solution = sol
		a.decide()
	}
}

// decide implements P_m's comparison at the moment P_w terminates.
func (a *Acceptor) decide() {
	match := symsEqual(a.solution, a.proposed)
	if !a.pastDead {
		// Current symbol is w (or we are still at time 0): within the
		// deadline — accept iff the solutions match.
		if match {
			a.AcceptForever()
		} else {
			a.RejectForever()
		}
		return
	}
	// Deadline passed: usefulness must still be acceptable.
	if !a.hasMin || a.curUseful < a.minUseful || a.minUseful == 0 {
		a.RejectForever()
		return
	}
	if match {
		a.AcceptForever()
	} else {
		a.RejectForever()
	}
}

// FinishedAt returns when P_w completed (valid once finished).
func (a *Acceptor) FinishedAt() (timeseq.Time, bool) { return a.finishAt, a.finished }

func symsEqual(a, b []word.Symbol) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Accepts runs the full pipeline: build the instance word, run the acceptor
// on a fresh machine, and classify. horizon bounds the observation.
func Accepts(inst Instance, solver Solver, horizon uint64) core.Result {
	m := core.NewMachine(NewAcceptor(solver), inst.Word())
	return core.RunForVerdict(m, horizon)
}

// Validate performs basic sanity checks on an instance.
func (inst Instance) Validate() error {
	if inst.Kind != None {
		if inst.Deadline == 0 {
			return fmt.Errorf("deadline: %s instance needs a positive deadline", inst.Kind)
		}
		if inst.MinUseful == 0 {
			return fmt.Errorf("deadline: %s instance needs MinUseful ≥ 1 (σ_1 ∈ (0, max])", inst.Kind)
		}
	}
	if inst.Kind == Soft && inst.U == nil {
		return fmt.Errorf("deadline: soft instance needs a usefulness function")
	}
	return nil
}

// FuncSolverWithProposed is a Solver whose Choose hook sees both the input
// and the proposed solution — the shape needed for problems with several
// valid solutions, where the paper's P_w "nondeterministically chooses that
// solution that matches the proposed solution, if such a solution exists".
type FuncSolverWithProposed struct {
	// Cost maps input length to chronons of work.
	Cost func(n int) uint64
	// Choose computes the solution, preferring the proposed one when it is
	// valid for the instance.
	Choose func(input, proposed []word.Symbol) []word.Symbol

	input    []word.Symbol
	proposed []word.Symbol
	remain   uint64
	solution []word.Symbol
	done     bool
}

// Start implements Solver.
func (s *FuncSolverWithProposed) Start(input, proposed []word.Symbol) {
	s.input = input
	s.proposed = proposed
	s.remain = s.Cost(len(input))
	s.done = false
	s.solution = nil
}

// Tick implements Solver.
func (s *FuncSolverWithProposed) Tick() ([]word.Symbol, bool) {
	if s.done {
		return s.solution, true
	}
	if s.remain > 0 {
		s.remain--
	}
	if s.remain == 0 {
		s.solution = s.Choose(s.input, s.proposed)
		s.done = true
	}
	return s.solution, s.done
}
