package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"rtc/internal/stats"
	"sort"
	"strconv"

	"rtc/bench/workload"
)

// runAA is the A/A check: 2N invocations of every workload of the same
// binary, each on its own seed, alternately assigned to set A and set B and
// interleaved over the workloads so that both sets see the same weather. It
// prints, per workload and end-to-end metric, both medians, how much worse B
// is than A, each set's spread (interquartile range over median, Python's
// statistics.quantiles(n=4)) and the bound. It fails when a gap exceeds half
// its bound or a spread a third of it: then the benchmark, not the code,
// needs work.
func runAA(o options, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtbench:", err)
		return 2
	}
	// values[workload][metric][set] is the list of a set's readings.
	values := map[string]map[string][2][]float64{}
	for round := 0; round < 2*o.aa; round++ {
		for wi, name := range workload.Names {
			seed := o.seed + uint64(round*len(workload.Names)+wi)
			args := []string{
				"--workload", name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(o.seconds), "--trace", "0", "--out", o.out,
			}
			if o.tiny {
				args = append(args, "--tiny")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "rtbench: aa round %d %s: %v\n%s", round, name, err, stdout)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res output
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "rtbench: aa round %d %s: bad result line %q (%v)\n", round, name, lines[len(lines)-1], err)
				return 1
			}
			if values[name] == nil {
				values[name] = map[string][2][]float64{}
			}
			for metric, r := range res.Metrics {
				sets := values[name][metric]
				sets[round%2] = append(sets[round%2], r.Value)
				values[name][metric] = sets
			}
			fmt.Fprintf(os.Stderr, "aa: round %d/%d set %c %s seed %d: %.1f ops/s, p50 %.1f us\n", round+1, 2*o.aa, 'A'+round%2, name, seed,
				res.Metrics["ops_per_s"].Value, res.Metrics["op_us_p50"].Value)
		}
	}

	bad := 0
	fmt.Fprintf(stdout, "| workload | metric | median A | median B | B worse by | spread A | spread B | bound |\n")
	fmt.Fprintf(stdout, "|---|---|---:|---:|---:|---:|---:|---:|\n")
	for _, name := range workload.Names {
		for _, m := range endToEndMetrics {
			sets := values[name][m.Name]
			a, b := stats.Median(sets[0]), stats.Median(sets[1])
			gap := (b - a) / a
			if m.Better == "higher" {
				gap = -gap
			}
			sa, sb := spread(sets[0]), spread(sets[1])
			flag := ""
			if gap > m.Bound/2 || (m.Name != "setup_s" && max(sa, sb) > m.Bound/3) {
				flag = " !"
				bad++
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4g | %.4g | %+.2f%% | %.2f%% | %.2f%% | %.1f%%%s |\n",
				name, m.Name, a, b, 100*gap, 100*sa, 100*sb, 100*m.Bound, flag)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "\n%d rows marked !: gap above half the bound, or spread above a third of it\n", bad)
		return 1
	}
	return 0
}

// spread is the distance between the first and third quartile as a share of
// the median, with quartiles as Python's statistics.quantiles(v, n=4)
// computes them (the exclusive method).
func spread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / stats.Median(s)
}
