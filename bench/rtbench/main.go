// Command rtbench is the repeatable benchmark of the rtdbd serving stack:
// client → rtwire → netserve → server → sub → log, built in one process and
// driven over loopback TCP from seeded inputs. See ../README.md.
//
//	rtbench --workload wire_query --seed 1 --seconds 12 --trace 0
//
// prints the end-to-end metrics of one workload; --trace 1 prints the
// per-layer metrics and writes the spans to <out>/trace.jsonl; --aa N runs
// the whole benchmark 2N times and compares the two halves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"rtc/bench/workload"
)

// metric declares one reported number. BENCHMARK.json carries the same
// table; the smoke test keeps the two equal.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the baseline median it may worsen by
}

var endToEndMetrics = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"op_us_p50", "us", "lower", 0.25},
	{"op_us_p95", "us", "lower", 0.25},
	{"on_time_share", "share", "higher", 0.01},
	{"ok_share", "share", "higher", 0.001},
	{"cpu_ms_per_kop", "ms/kop", "lower", 0.25},
	{"allocs_per_op", "allocs/op", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.15},
}

// A per-layer metric a workload does not exercise reads 0 on that workload.
var perLayerMetrics = []metric{
	{Name: "netserve.floor_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "netserve.wire_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "netserve.push_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "netserve.frames_per_op", Unit: "frames/op", Better: "lower"},
	{Name: "netserve.bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "netserve.write_drops", Unit: "count", Better: "lower"},
	{Name: "netserve.backpressure_frames", Unit: "count", Better: "lower"},
	{Name: "client.redials", Unit: "count", Better: "lower"},
	{Name: "rtwire.encode_ns_per_frame", Unit: "ns/frame", Better: "lower"},
	{Name: "rtwire.decode_ns_per_frame", Unit: "ns/frame", Better: "lower"},
	{Name: "rtwire.codec_allocs_per_frame", Unit: "allocs/frame", Better: "lower"},
	{Name: "server.query_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.query_allocs_per_op", Unit: "allocs/op", Better: "lower"},
	{Name: "server.sample_ns_per_op", Unit: "ns/sample", Better: "lower"},
	{Name: "server.queue_rejects", Unit: "count", Better: "lower"},
	{Name: "server.deadline_miss", Unit: "count", Better: "lower"},
	{Name: "server.admission_skip", Unit: "count", Better: "lower"},
	{Name: "server.rebuild_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "log.append_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "log.commit_us_per_batch", Unit: "us/batch", Better: "lower"},
	{Name: "log.bytes_per_event", Unit: "B/event", Better: "lower"},
	{Name: "log.write_amp", Unit: "B/B", Better: "lower"},
	{Name: "log.fsyncs_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "log.fsync_us_mean", Unit: "us", Better: "lower"},
	{Name: "log.group_batch_mean", Unit: "events/commit", Better: "higher"},
	{Name: "log.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "log.open_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "sub.round_us_p50", Unit: "us", Better: "lower"},
	{Name: "sub.allocs_per_push", Unit: "allocs/push", Better: "lower"},
	{Name: "sub.queue_putpop_ns", Unit: "ns", Better: "lower"},
	{Name: "sub.push_dropped", Unit: "count", Better: "lower"},
	{Name: "sub.push_expired", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// output is the last line of standard output.
type output struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	tiny     bool
	wrong    bool
	aa       int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("one of %v", workload.Names))
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 12, "seconds of timed windows")
	flag.IntVar(&o.trace, "trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for scratch files and trace.jsonl")
	flag.BoolVar(&o.tiny, "tiny", false, "smoke-test sizes: every number is meaningless, every check still runs")
	flag.BoolVar(&o.wrong, "wrong-answer", false, "expect a wrong answer on purpose, to show that the run then fails")
	flag.IntVar(&o.aa, "aa", 0, "A/A mode: run every workload 2N times on fresh seeds and compare the two halves")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "rtbench: unexpected argument", flag.Arg(0))
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout))
}

// run is the whole command; stdout receives the report, whose last line is
// the result object.
func run(o options, stdout io.Writer) int {
	if o.aa > 0 {
		return runAA(o, stdout)
	}
	sp, known := specs[o.workload]
	if !known || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(os.Stderr, "rtbench: need --workload NAME --seed N --seconds S>=1 --trace 0|1, NAME one of %v\n", workload.Names)
		return 2
	}
	dir, err := scratch(o.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	defer guard(dir, 3*(2*time.Duration(o.seconds)*time.Second+20*time.Second))()

	e := env{seed: o.seed, dir: dir, loaders: loaderCount(), sz: full(), wrong: o.wrong}
	if o.tiny {
		e.sz = tiny()
	}
	if e.cal, err = newCalibrator(e.loaders, e.sz.calScale, dir); err != nil {
		fmt.Fprintln(os.Stderr, "rtbench:", err)
		return 2
	}
	defer e.cal.close()
	passes, windows := sp.plan(o.seconds)
	if o.trace == 1 {
		// One untraced and one traced pass share a third of the windows each.
		passes, windows = 2, max(1, passes*windows/3)
	}
	fmt.Fprintf(stdout, "# rtbench %s seed=%d seconds=%d trace=%d gomaxprocs=%d loaders=%d passes=%d windows/pass=%d go=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), e.loaders, passes, windows, runtime.Version())
	fmt.Fprintf(stdout, "# wal: wal_fs=disk Sync=true GroupWindow=%v SnapshotEvery=%d under %s\n", groupWindow, snapshotEvery, dir)

	var (
		s    *summary
		vals map[string]float64
		decl []metric
	)
	if o.trace == 1 {
		decl = perLayerMetrics
		s, vals, err = traced(stdout, o.workload, e, windows, filepath.Join(o.out, "trace.jsonl"))
	} else {
		decl = endToEndMetrics
		s = &summary{}
		for p := 0; p < passes && err == nil; p++ {
			err = s.pass(o.workload, e, windows, nil, nil)
		}
		if err == nil {
			vals = s.endToEnd()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtbench:", err)
		return 1
	}
	s.diagnostics(stdout, o.workload)
	for _, g := range s.failed {
		fmt.Fprintf(stdout, "# FAILED gate: %s\n", g)
	}

	res := output{
		Correct:   s.badOps() == 0,
		Attempted: s.ops + s.warmOps,
		Failed:    min(s.badOps(), s.ops+s.warmOps),
		Metrics:   map[string]reported{},
	}
	for _, m := range decl {
		fmt.Fprintf(stdout, "%-32s %16.4f %s\n", m.Name, vals[m.Name], m.Unit)
		res.Metrics[m.Name] = reported{Value: vals[m.Name], Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// traced is the --trace 1 run: one pass with tracing off for the baseline,
// one pass with spans on, then the traced workload's layer replays. It
// returns the traced pass's summary and the per-layer metrics.
func traced(stdout io.Writer, name string, e env, windows int, path string) (*summary, map[string]float64, error) {
	base := &summary{}
	if err := base.pass(name, e, windows, nil, nil); err != nil {
		return nil, nil, err
	}
	tr := newTracer(name)
	s := &summary{}
	vals := map[string]float64{}
	err := s.pass(name, e, windows, tr, func(r runner) error { return r.layers(s, base, vals) })
	if err != nil {
		return nil, nil, err
	}
	off, on := base.endToEnd()["ops_per_s"], s.endToEnd()["ops_per_s"]
	vals["trace.overhead_share"] = 1 - on/off
	if err := tr.write(path); err != nil {
		return nil, nil, fmt.Errorf("write trace: %w", err)
	}
	self, count := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "# span %-28s %8d spans  %10.3f ms self  %9.2f us self/span\n", n, count[n], self[n]*1e3, self[n]*1e6/float64(count[n]))
	}
	fmt.Fprintf(stdout, "# trace: %s; untraced %.1f ops/s, traced %.1f ops/s\n", path, off, on)
	s.failed = append(s.failed, base.failed...)
	s.ops, s.ok, s.onTime = s.ops+base.ops, s.ok+base.ok, s.onTime+base.onTime
	s.warmOps, s.warmOkay = s.warmOps+base.warmOps, s.warmOkay+base.warmOkay
	return s, vals, nil
}

// guard makes the abnormal exit paths remove the scratch directory too: a
// signal, and a watchdog that dumps the goroutines when the run takes far
// longer than it should. The returned function disarms it.
func guard(dir string, limit time.Duration) (disarm func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	watchdog := time.NewTimer(min(limit, 170*time.Second))
	go func() {
		select {
		case <-done:
			return
		case s := <-sig:
			fmt.Fprintln(os.Stderr, "rtbench: caught", s)
		case <-watchdog.C:
			fmt.Fprintln(os.Stderr, "rtbench: watchdog: run exceeded its time limit; goroutines:")
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		}
		os.RemoveAll(dir)
		os.Exit(3)
	}()
	return func() {
		signal.Stop(sig)
		watchdog.Stop()
		close(done)
	}
}
