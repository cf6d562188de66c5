package deadline

import (
	"testing"

	"rtc/internal/automata"
	"rtc/internal/core"
	"rtc/internal/timeseq"
	"rtc/internal/word"
)

// sortSolver solves the toy problem Π = "sort the input symbols" with a
// configurable per-symbol cost.
func sortSolver(costPerSym uint64) *FuncSolver {
	return &FuncSolver{
		Cost: func(n int) uint64 {
			c := costPerSym * uint64(n)
			if c == 0 {
				c = 1
			}
			return c
		},
		Solve: func(in []word.Symbol) []word.Symbol {
			out := append([]word.Symbol{}, in...)
			for i := 1; i < len(out); i++ {
				for j := i; j > 0 && out[j] < out[j-1]; j-- {
					out[j], out[j-1] = out[j-1], out[j]
				}
			}
			return out
		},
	}
}

func inst(kind Kind, input, proposed string, td timeseq.Time, min uint64, u Usefulness) Instance {
	return Instance{
		Input:     automata.Syms(input),
		Proposed:  automata.Syms(proposed),
		Kind:      kind,
		Deadline:  td,
		MinUseful: min,
		U:         u,
	}
}

func TestWordShapeNoDeadline(t *testing.T) {
	i := inst(None, "ba", "ab", 0, 0, nil)
	w := i.Word()
	p := word.Prefix(w, 10)
	// Header at time 0: a b | b a |, then w's at 1,2,3,...
	if p[0].Sym != "a" || p[0].At != 0 {
		t.Fatalf("prefix = %v", p)
	}
	seps := 0
	for _, e := range p {
		if e.Sym == Sep {
			seps++
		}
	}
	if seps != 2 {
		t.Fatalf("separators = %d, prefix %v", seps, p)
	}
	if p[6].Sym != W || p[6].At != 1 || p[7].At != 2 {
		t.Fatalf("w region wrong: %v", p)
	}
	if !word.WellBehavedWithin(w, 64) {
		t.Error("instance word should look well behaved")
	}
}

func TestWordShapeFirm(t *testing.T) {
	i := inst(Firm, "x", "x", 3, 2, nil)
	w := i.Word()
	p := word.Prefix(w, 12)
	// Header: #2 x | x |  (5 symbols at time 0), then w at 1, w at 2,
	// then pairs (d,#0) at 3, 4, …
	if v, ok := encAsNum(p[0].Sym); !ok || v != 2 {
		t.Fatalf("first symbol = %v", p[0])
	}
	if p[5].Sym != W || p[5].At != 1 || p[6].Sym != W || p[6].At != 2 {
		t.Fatalf("w region: %v", p)
	}
	if p[7].Sym != D || p[7].At != 3 {
		t.Fatalf("first d: %v", p)
	}
	if v, ok := encAsNum(p[8].Sym); !ok || v != 0 || p[8].At != 3 {
		t.Fatalf("usefulness after firm deadline: %v", p[8])
	}
	if p[9].Sym != D || p[9].At != 4 {
		t.Fatalf("pair cadence: %v", p)
	}
}

func TestWordShapeSoft(t *testing.T) {
	u := Hyperbolic(10, 4)
	i := inst(Soft, "x", "x", 4, 3, u)
	p := word.Prefix(i.Word(), 14)
	// Pairs start at t_d = 4; usefulness floor(10/(t-4)) for t > 4, and
	// u(4) = 10 at the boundary.
	var uAt = map[timeseq.Time]uint64{}
	for k := 0; k+1 < len(p); k++ {
		if p[k].Sym == D {
			if v, ok := encAsNum(p[k+1].Sym); ok {
				uAt[p[k].At] = v
			}
		}
	}
	if uAt[4] != 10 {
		t.Errorf("u(4) = %d, want 10", uAt[4])
	}
	if uAt[5] != 10 {
		t.Errorf("u(5) = %d, want 10 (10/(5-4))", uAt[5])
	}
	if uAt[6] != 5 {
		t.Errorf("u(6) = %d, want 5", uAt[6])
	}
}

func encAsNum(s word.Symbol) (uint64, bool) {
	if len(s) > 1 && s[0] == '#' {
		var v uint64
		for _, c := range s[1:] {
			if c < '0' || c > '9' {
				return 0, false
			}
			v = v*10 + uint64(c-'0')
		}
		return v, true
	}
	return 0, false
}

func TestNoDeadlineAcceptsCorrectOutput(t *testing.T) {
	i := inst(None, "cba", "abc", 0, 0, nil)
	res := Accepts(i, sortSolver(5), 200)
	if res.Verdict != core.AcceptProven {
		t.Fatalf("verdict = %v", res.Verdict)
	}
}

func TestNoDeadlineRejectsWrongOutput(t *testing.T) {
	i := inst(None, "cba", "acb", 0, 0, nil)
	res := Accepts(i, sortSolver(5), 200)
	if res.Verdict != core.RejectProven {
		t.Fatalf("verdict = %v", res.Verdict)
	}
}

// Firm deadline: accept iff P_w completes strictly before t_d (at t_d the
// current symbol is already d and usefulness is 0).
func TestFirmDeadlineBoundary(t *testing.T) {
	// Cost 2·3 = 6 ticks: finishes at tick 5 (started at tick 0).
	solve := func() Solver { return sortSolver(2) }
	late := inst(Firm, "cba", "abc", 5, 1, nil)
	if res := Accepts(late, solve(), 300); res.Verdict != core.RejectProven {
		t.Fatalf("deadline 5 (finish at 5): verdict = %v, want reject", res.Verdict)
	}
	tight := inst(Firm, "cba", "abc", 6, 1, nil)
	if res := Accepts(tight, solve(), 300); res.Verdict != core.AcceptProven {
		t.Fatalf("deadline 6 (finish at 5): verdict = %v, want accept", res.Verdict)
	}
}

// Sweep: for a fixed workload the verdict flips from reject to accept
// exactly once as the deadline grows — the defining monotonicity of firm
// deadlines.
func TestFirmDeadlineMonotone(t *testing.T) {
	finish := timeseq.Time(2 * 4) // cost 2 per symbol, 4 symbols → tick 7... computed below
	_ = finish
	var verdicts []bool
	for td := timeseq.Time(1); td <= 16; td++ {
		i := inst(Firm, "dcba", "abcd", td, 1, nil)
		res := Accepts(i, sortSolver(2), 300)
		verdicts = append(verdicts, res.Verdict.Accepted())
	}
	flips := 0
	for k := 1; k < len(verdicts); k++ {
		if verdicts[k] != verdicts[k-1] {
			flips++
		}
	}
	if flips != 1 || verdicts[0] || !verdicts[len(verdicts)-1] {
		t.Fatalf("verdict sweep = %v, want single reject→accept flip", verdicts)
	}
}

// Soft deadline: finishing after t_d is fine while u(t) ≥ MinUseful.
func TestSoftDeadlineUsefulness(t *testing.T) {
	u := Hyperbolic(10, 4)
	// Cost 8 ticks on 4 symbols (cost 2/sym): finishes at tick 7; u(7) =
	// 10/3 = 3.
	ok := inst(Soft, "dcba", "abcd", 4, 3, u)
	if res := Accepts(ok, sortSolver(2), 300); res.Verdict != core.AcceptProven {
		t.Fatalf("min 3, u(finish)=3: verdict = %v, want accept", res.Verdict)
	}
	strict := inst(Soft, "dcba", "abcd", 4, 4, u)
	if res := Accepts(strict, sortSolver(2), 300); res.Verdict != core.RejectProven {
		t.Fatalf("min 4, u(finish)=3: verdict = %v, want reject", res.Verdict)
	}
	wrong := inst(Soft, "dcba", "abdc", 4, 3, u)
	if res := Accepts(wrong, sortSolver(2), 300); res.Verdict != core.RejectProven {
		t.Fatalf("wrong output: verdict = %v, want reject", res.Verdict)
	}
}

func TestLinearUsefulness(t *testing.T) {
	u := Linear(100, 10, 50)
	cases := []struct {
		t    timeseq.Time
		want uint64
	}{
		{0, 100}, {10, 100}, {35, 50}, {60, 0}, {1000, 0},
	}
	for _, c := range cases {
		if got := u(c.t); got != c.want {
			t.Errorf("Linear(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := inst(None, "a", "a", 0, 0, nil).Validate(); err != nil {
		t.Errorf("no-deadline instance invalid: %v", err)
	}
	if err := inst(Firm, "a", "a", 0, 1, nil).Validate(); err == nil {
		t.Error("zero deadline accepted")
	}
	if err := inst(Firm, "a", "a", 5, 0, nil).Validate(); err == nil {
		t.Error("zero MinUseful accepted")
	}
	if err := inst(Soft, "a", "a", 5, 1, nil).Validate(); err == nil {
		t.Error("soft instance without U accepted")
	}
	if err := inst(Soft, "a", "a", 5, 1, Hyperbolic(5, 5)).Validate(); err != nil {
		t.Errorf("valid soft instance rejected: %v", err)
	}
}

func TestFinishedAt(t *testing.T) {
	a := NewAcceptor(sortSolver(1))
	i := inst(None, "ba", "ab", 0, 0, nil)
	m := core.NewMachine(a, i.Word())
	core.RunForVerdict(m, 100)
	at, ok := a.FinishedAt()
	if !ok || at != 1 {
		t.Errorf("FinishedAt = (%d,%v), want (1,true): cost 2 from tick 0", at, ok)
	}
}

func TestMalformedWordRejected(t *testing.T) {
	// Nothing arrives at time 0.
	w := word.MustLasso(nil, word.Finite{{Sym: W, At: 1}}, 1)
	m := core.NewMachine(NewAcceptor(sortSolver(1)), w)
	if res := core.RunForVerdict(m, 50); res.Verdict != core.RejectProven {
		t.Fatalf("malformed word verdict = %v", res.Verdict)
	}
}

// §4.1's footnote: when Π has several valid solutions, "P_w
// nondeterministically chooses that solution that matches the proposed
// solution, if such a solution exists". Π here is "output any one input
// symbol": every input symbol is a valid answer, and the solver picks the
// proposed one when it is valid.
func TestNondeterministicSolutionChoice(t *testing.T) {
	anySymbol := func() Solver {
		return &FuncSolverWithProposed{
			Cost: func(n int) uint64 { return uint64(n) },
			Choose: func(input, proposed []word.Symbol) []word.Symbol {
				if len(proposed) == 1 {
					for _, s := range input {
						if s == proposed[0] {
							return proposed // the matching valid solution exists
						}
					}
				}
				return input[:1] // arbitrary valid solution otherwise
			},
		}
	}
	// "y" is a valid answer: the acceptor must accept.
	ok := Instance{Input: automata.Syms("xyz"), Proposed: automata.Syms("y")}
	if res := Accepts(ok, anySymbol(), 100); res.Verdict != core.AcceptProven {
		t.Fatalf("valid proposed solution rejected: %v", res.Verdict)
	}
	// "q" is not among the valid answers: reject.
	bad := Instance{Input: automata.Syms("xyz"), Proposed: automata.Syms("q")}
	if res := Accepts(bad, anySymbol(), 100); res.Verdict != core.RejectProven {
		t.Fatalf("invalid proposed solution accepted: %v", res.Verdict)
	}
}

// TestEnvelopeAgreesWithAcceptor is where the serving predicate meets the
// formal one: over both deadline classes, every deadline, solver cost,
// minimum usefulness and decay in a small box, the §4.1 acceptor accepts the
// word carrying the right answer exactly when Envelope.Admissible admits the
// completion. The two count a computation's length from different ends —
// P_w's first chronon of work happens at time 0, so a cost-c solver
// terminates at chronon c−1, while the server charges a completion
// now+EvalCost — hence rel = c−1: the one-chronon offset is pinned here and
// in DESIGN §2's substitution table.
func TestEnvelopeAgreesWithAcceptor(t *testing.T) {
	decays := []struct {
		name string
		u    func(td timeseq.Time) Usefulness
	}{
		{"hyperbolic", func(td timeseq.Time) Usefulness { return Hyperbolic(6, td) }},
		{"linear", func(td timeseq.Time) Usefulness { return Linear(6, td, 4) }},
	}
	for _, kind := range []Kind{Firm, Soft} {
		for _, decay := range decays {
			for td := timeseq.Time(1); td <= 6; td++ {
				for cost := uint64(1); cost <= 10; cost++ {
					for min := uint64(1); min <= 3; min++ {
						u := decay.u(td)
						solver := sortSolver(0)
						solver.Cost = func(int) uint64 { return cost }
						formal := Accepts(inst(kind, "ba", "ab", td, min, u), solver, 64).Verdict.Accepted()
						env := Envelope{Kind: kind, Deadline: td, MinUseful: min, U: u}
						if serving := env.Admissible(env.Score(timeseq.Time(cost - 1))); formal != serving {
							t.Errorf("%s %s t_d=%d cost=%d min=%d: acceptor %v, Admissible(Score(%d)) %v",
								kind, decay.name, td, cost, min, formal, cost-1, serving)
						}
					}
				}
			}
		}
	}
}
