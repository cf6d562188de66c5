package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"rtc/bench/workload"
)

// benchmarkJSON is the part of ../../BENCHMARK.json the smoke test pins.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metric                `json:"end_to_end"`
	PerLayer  []metric                `json:"per_layer"`
}

func declared(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyRun runs one workload in tiny mode and returns the exit code and the
// result line.
func tinyRun(t *testing.T, name string, trace int, wrong bool) (int, output) {
	t.Helper()
	var stdout bytes.Buffer
	code := run(options{
		workload: name, seed: 7, seconds: 1, trace: trace,
		out: t.TempDir(), tiny: true, wrong: wrong,
	}, &stdout)
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res output
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("%s trace=%d: last line is not a result: %v\n%s", name, trace, err, stdout.String())
	}
	return code, res
}

// Every workload runs, untraced and traced, passes its gates, and prints
// exactly the metrics BENCHMARK.json declares, with the declared units.
func TestSmoke(t *testing.T) {
	decl := declared(t)
	if len(decl.Workloads) != len(workload.Names) {
		t.Fatalf("BENCHMARK.json declares %d workloads, rtbench has %d", len(decl.Workloads), len(workload.Names))
	}
	for i, name := range workload.Names {
		if decl.Workloads[i].Name != name {
			t.Errorf("BENCHMARK.json workload %d is %q, rtbench has %q", i, decl.Workloads[i].Name, name)
		}
		for trace, want := range [][]metric{decl.EndToEnd, decl.PerLayer} {
			code, res := tinyRun(t, name, trace, false)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: exit %d, result %+v", name, trace, code, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: printed %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%d: declared metric %s not printed", name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%d: %s printed in %q, declared in %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// The tables in main.go and BENCHMARK.json are the same table.
func TestDeclarationsMatch(t *testing.T) {
	decl := declared(t)
	for _, c := range []struct {
		what       string
		code, json []metric
	}{{"end_to_end", endToEndMetrics, decl.EndToEnd}, {"per_layer", perLayerMetrics, decl.PerLayer}} {
		if len(c.code) != len(c.json) {
			t.Errorf("%s: main.go has %d metrics, BENCHMARK.json %d", c.what, len(c.code), len(c.json))
			continue
		}
		for i := range c.code {
			if c.code[i] != c.json[i] {
				t.Errorf("%s[%d]: main.go %+v, BENCHMARK.json %+v", c.what, i, c.code[i], c.json[i])
			}
		}
	}
}

// A wrong expected answer fails the run on every workload.
func TestWrongAnswerFails(t *testing.T) {
	for _, name := range workload.Names {
		if code, res := tinyRun(t, name, 0, true); code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: exit %d, result %+v; want a failed run", name, code, res)
		}
	}
}

// spread follows Python's statistics.quantiles(v, n=4): for 1..10 the
// quartiles are 2.75, 5.5 and 8.25.
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
