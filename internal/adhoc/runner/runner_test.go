package runner

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"rtc/internal/adhoc"
	"rtc/internal/timeseq"
)

// buildScenario returns a small flooding scenario with a seed-dependent
// topology and workload, isolated per call.
func buildScenario(name string, seed int64) Scenario {
	return Scenario{
		Name:    name,
		Horizon: 150,
		Build: func() *adhoc.Network {
			nodes := make([]*adhoc.Node, 12)
			for i := range nodes {
				nodes[i] = &adhoc.Node{
					ID:    i + 1,
					Mob:   adhoc.NewWaypoint(seed*100+int64(i), 100, 100, 1.5, 30),
					Range: 45,
					Proto: &adhoc.Flooding{},
				}
			}
			net := adhoc.NewNetwork(nodes)
			for id := uint64(1); id <= 8; id++ {
				net.Inject(adhoc.Message{
					ID: id, Src: int(id)%12 + 1, Dst: int(id*5)%12 + 1,
					At: timeseq.Time(10 + id*10), Payload: "b",
				})
			}
			return net
		},
	}
}

// panicProto panics inside OnTick on its trigger chronon.
type panicProto struct{ at timeseq.Time }

func (p *panicProto) Init(*adhoc.API) {}
func (p *panicProto) OnTick(a *adhoc.API) {
	if a.Now() >= p.at {
		panic("deliberate protocol failure")
	}
}
func (p *panicProto) OnPacket(*adhoc.API, *adhoc.Packet)  {}
func (p *panicProto) Originate(*adhoc.API, adhoc.Message) {}

// TestGridBackedMatrix drives the parallel runner over grid-backed
// networks under -race (the CI race step selects tests by the TestGrid
// prefix): every worker builds, steps, and summarizes its own Network, so
// any accidental sharing of cache or grid state across scenarios would
// trip the detector here.
func TestGridBackedMatrix(t *testing.T) {
	scenarios := make([]Scenario, 8)
	for i := range scenarios {
		scenarios[i] = buildScenario(fmt.Sprintf("cell-%d", i), int64(i+1))
	}
	results := Run(scenarios, runtime.NumCPU())
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("scenario %d failed: %v", i, r.Err)
		}
		if r.Index != i || r.Name != scenarios[i].Name {
			t.Fatalf("result %d misplaced: index %d name %q", i, r.Index, r.Name)
		}
		if r.Net == nil || r.Net.Metrics().Sent == 0 {
			t.Fatalf("scenario %d: no traffic simulated", i)
		}
	}
}

// TestRunnerDeterministicOrder demands bit-identical summaries from a
// serial run and two parallel runs: the pool must affect scheduling only,
// never results or their order.
func TestRunnerDeterministicOrder(t *testing.T) {
	mk := func() []Scenario {
		scenarios := make([]Scenario, 6)
		for i := range scenarios {
			scenarios[i] = buildScenario(fmt.Sprintf("cell-%d", i), int64(i+1))
		}
		return scenarios
	}
	summaries := func(results []Result) []adhoc.Summary {
		out := make([]adhoc.Summary, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("scenario %q failed: %v", r.Name, r.Err)
			}
			out[i] = r.Summary
		}
		return out
	}
	serial := summaries(Run(mk(), 1))
	par1 := summaries(Run(mk(), 4))
	par2 := summaries(Run(mk(), 4))
	if !reflect.DeepEqual(serial, par1) || !reflect.DeepEqual(par1, par2) {
		t.Fatalf("runs diverge:\n serial: %v\n par1:   %v\n par2:   %v", serial, par1, par2)
	}
}

// TestRunnerPanicIsolation plants a deliberately panicking protocol in the
// middle of a matrix: its scenario must report a PanicError while every
// other scenario completes normally.
func TestRunnerPanicIsolation(t *testing.T) {
	scenarios := []Scenario{
		buildScenario("ok-0", 1),
		{
			Name:    "boom",
			Horizon: 100,
			Build: func() *adhoc.Network {
				return adhoc.NewNetwork([]*adhoc.Node{
					{ID: 1, Mob: adhoc.Static{X: 0, Y: 0}, Range: 10, Proto: &panicProto{at: 5}},
					{ID: 2, Mob: adhoc.Static{X: 5, Y: 0}, Range: 10, Proto: &adhoc.Flooding{}},
				})
			},
		},
		buildScenario("ok-2", 2),
	}
	results := Run(scenarios, 3)
	if results[1].Err == nil {
		t.Fatal("panicking scenario reported no error")
	}
	var pe *PanicError
	if !errors.As(results[1].Err, &pe) {
		t.Fatalf("want PanicError, got %T: %v", results[1].Err, results[1].Err)
	}
	if pe.Scenario != "boom" {
		t.Fatalf("PanicError names %q, want \"boom\"", pe.Scenario)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("healthy scenario %q poisoned by neighbor's panic: %v", results[i].Name, results[i].Err)
		}
		if results[i].Net == nil {
			t.Fatalf("healthy scenario %q missing its network", results[i].Name)
		}
	}
	board := Leaderboard(results)
	if len(board) != 2 {
		t.Fatalf("leaderboard has %d entries, want 2 (panicked cell excluded)", len(board))
	}
}

// TestRunnerPostError routes a Post-hook failure into the cell's Result
// without disturbing its Net or Summary.
func TestRunnerPostError(t *testing.T) {
	wantErr := errors.New("route validation failed")
	s := buildScenario("cell", 1)
	s.Post = func(*adhoc.Network) error { return wantErr }
	results := Run([]Scenario{s}, 1)
	if !errors.Is(results[0].Err, wantErr) {
		t.Fatalf("Post error not propagated: %v", results[0].Err)
	}
	if results[0].Net == nil {
		t.Fatal("Post error must not discard the completed network")
	}
}

// TestRunnerEmptyAndOversubscribed covers the edges: an empty matrix and
// more workers than scenarios.
func TestRunnerEmptyAndOversubscribed(t *testing.T) {
	if got := Run(nil, 4); len(got) != 0 {
		t.Fatalf("empty matrix returned %d results", len(got))
	}
	results := Run([]Scenario{buildScenario("only", 1)}, 64)
	if len(results) != 1 || results[0].Err != nil {
		t.Fatalf("oversubscribed run failed: %+v", results)
	}
}
