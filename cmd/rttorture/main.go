// Command rttorture runs the scenario table of internal/rtdb/torture
// against the rtdbd WAL, server and wire: for every seed, every row the
// -mode flag selects.
//
// Every fault point is reproducible: a failing sweep prints one command
// (rttorture -mode M -seed S -at K -events N, plus every other flag the run
// read) that replays exactly that workload, fault, and crash
// materialization. With -corpus DIR the
// post-crash segment images of failing points are exported as seed inputs
// for the log package's FuzzSegmentRecovery corpus, and the malformed
// byte streams the partition sweep's network faults left behind are
// exported as seeds for rtwire's FuzzFrameDecode corpus — whether or not
// the sweep failed (a stream the codec survived is still a seed).
//
// Usage:
//
//	rttorture -mode all -seeds 3 -events 90        # full sweep
//	rttorture -mode crash -seed 2 -at 41 -events 40  # replay one failure
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"rtc/internal/rtdb/torture"
)

func main() {
	// The table of scenarios is the mode list: help text, the unknown-mode
	// check and the dispatch below all read it.
	run := torture.Modes()
	names := make([]string, len(run))
	for i, m := range run {
		names[i] = string(m)
	}
	list := "all|" + strings.Join(names, "|")

	var cfg torture.Config
	cfg.RegisterFlags(flag.CommandLine)
	var (
		mode    = flag.String("mode", "all", "fault family: "+list)
		seeds   = flag.Int("seeds", 1, "number of consecutive seeds to sweep")
		corpus  = flag.String("corpus", "", "directory to export failing crash images as fuzz corpus seeds")
		verbose = flag.Bool("v", false, "per-sweep progress lines")
	)
	flag.Parse()

	if *verbose {
		cfg.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	}
	if *mode != "all" {
		if !slices.Contains(names, *mode) {
			fmt.Fprintf(os.Stderr, "rttorture: unknown -mode %q (want %s)\n", *mode, list)
			os.Exit(2)
		}
		run = []torture.Mode{torture.Mode(*mode)}
	}

	total := &torture.Report{}
	first := cfg.Seed
	for i := 0; i < *seeds; i++ {
		cfg.Seed = first + uint64(i)
		for _, m := range run {
			total.Merge(cfg.Sweep(m))
		}
	}

	fmt.Printf("torture: mode=%s seeds=%d..%d events=%d points=%d recoveries=%d failures=%d\n",
		*mode, first, first+uint64(*seeds)-1, cfg.Events, total.Points, total.Recoveries, len(total.Failures))
	if *corpus != "" {
		n, err := exportCorpus(*corpus, total)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rttorture: corpus export: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "rttorture: exported %d corpus seeds to %s\n", n, *corpus)
		}
	}
	if total.Ok() {
		return
	}
	for _, f := range total.Failures {
		fmt.Fprintf(os.Stderr, "%s\n", f.String())
	}
	os.Exit(1)
}

// exportCorpus writes the sweep's fuzz-seed material in the Go fuzzing
// corpus file format: each failing fault point's post-crash segment
// images (seeds for FuzzSegmentRecovery — drop into
// internal/rtdb/log/testdata/fuzz/FuzzSegmentRecovery), and each
// malformed byte stream the network faults produced (seeds for
// FuzzFrameDecode — drop the rtwire-frame-* files into
// internal/rtwire/testdata/fuzz/FuzzFrameDecode).
func exportCorpus(dir string, rep *torture.Report) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	n := 0
	write := func(file string, body []byte) error {
		seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", body)
		if err := os.WriteFile(filepath.Join(dir, file), []byte(seed), 0o644); err != nil {
			return err
		}
		n++
		return nil
	}
	for _, f := range rep.Failures {
		for name, img := range f.Segments {
			if err := write(fmt.Sprintf("%s-seed%d-at%d-%s", f.Mode, f.Config.Seed, f.Config.At, name), img); err != nil {
				return n, err
			}
		}
	}
	for key, stream := range rep.Streams {
		if err := write("rtwire-frame-"+key, stream); err != nil {
			return n, err
		}
	}
	return n, nil
}
