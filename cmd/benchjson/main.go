// Command benchjson converts `go test -bench` text output into a JSON
// summary keyed by benchmark name, recording ns/op plus B/op and
// allocs/op when the run used -benchmem. It reads stdin and writes the
// JSON document to the file named by -o (stdout when omitted):
//
//	go test -bench=. -benchmem . | go run ./cmd/benchjson -o BENCH_adhoc.json
//
// The output is deterministic (benchmarks sorted by name) so committed
// snapshots diff cleanly between runs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark result line.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

// note rides in every document so that nobody reads a snapshot as evidence
// for a performance claim.
const note = "go test -bench microbenchmarks of single code paths on one machine; performance claims are gated by rtbench (BENCHMARK.json, bench/README.md), not by this file"

// Doc is the emitted document.
type Doc struct {
	Note       string  `json:"note"`
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	Pkg        string  `json:"pkg,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	doc := parse(bufio.NewScanner(os.Stdin))
	sort.Slice(doc.Benchmarks, func(i, j int) bool {
		return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name
	})
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
}

// parse consumes go test -bench output. Result lines look like
//
//	BenchmarkName-8   1234   5678 ns/op   910 B/op   11 allocs/op
//
// where the -8 GOMAXPROCS suffix and the memory columns are optional.
func parse(sc *bufio.Scanner) Doc {
	doc := Doc{Note: note, Benchmarks: []Entry{}}
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			// Multi-package runs emit one pkg: header each; keep them all.
			p := strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			if doc.Pkg == "" {
				doc.Pkg = p
			} else if !strings.Contains(doc.Pkg, p) {
				doc.Pkg += ", " + p
			}
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || f[3] != "ns/op" {
			continue
		}
		e := Entry{Name: trimProcs(f[0])}
		var err error
		if e.Iterations, err = strconv.ParseInt(f[1], 10, 64); err != nil {
			continue
		}
		if e.NsPerOp, err = strconv.ParseFloat(f[2], 64); err != nil {
			continue
		}
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseInt(f[i], 10, 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "B/op":
				e.BytesPerOp = &v
			case "allocs/op":
				e.AllocsPerOp = &v
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, e)
	}
	return doc
}

// trimProcs drops the trailing -N GOMAXPROCS suffix from a benchmark name
// while keeping sub-benchmark paths (Name/sub=1-8 → Name/sub=1).
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
