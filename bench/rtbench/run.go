package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"rtc/internal/stats"
	"runtime"
	"time"

	"rtc/bench/workload"
)

// keepShare is the share of windows, fastest first, that timing metrics are
// taken over.
const keepShare = 2.0 / 3

// sizes are the knobs that scale a run. full() is the benchmark; tiny() is
// the smoke test's, small enough to run every workload in a few seconds.
type sizes struct {
	window           time.Duration // wire_query: length of a timed window
	warmQueries      int           // wire_query: warm-up ops per client
	preloadPerSensor int           // wire_query: history per sensor
	batchesPerWindow int           // wire_ingest_wal: fixed work per window
	roundsPerWindow  int           // sub_fanout: fixed work per window
	walEvents        int           // recover_replay: log size
	recoversPerWin   int           // recover_replay: fixed work per window
	replayOps        int           // ops per isolated layer replay
	calScale         int           // divisor of the reference routine's length
}

func full() sizes {
	return sizes{
		window:           time.Second,
		warmQueries:      4096,
		preloadPerSensor: 4096,
		batchesPerWindow: 1024, // 65536 samples: one snapshot cycle
		roundsPerWindow:  800,
		walEvents:        200_000,
		recoversPerWin:   2,
		replayOps:        20_000,
		calScale:         1,
	}
}

func tiny() sizes {
	return sizes{
		window:           40 * time.Millisecond,
		warmQueries:      64,
		preloadPerSensor: 8,
		batchesPerWindow: 8,
		roundsPerWindow:  8,
		walEvents:        2_000,
		recoversPerWin:   1,
		replayOps:        200,
		calScale:         50,
	}
}

// warmShare is the part of a fixed-work window that its warm-up does.
const warmShare = 4

// spec is what the harness knows about a workload before it runs it.
type spec struct {
	make func(env) runner
	// nominal is what one window takes on the reference box, in seconds.
	nominal float64
	// fresh gives every window a fresh stack: the workload's cost per op
	// grows with the work done, so only then do all windows do the same work.
	fresh bool
	// diskShare is the share of the workload's time that waits for fsync; it
	// selects the parts of the reference routine its timings follow.
	diskShare float64
}

var specs = map[string]spec{
	workload.WireQuery: {make: func(e env) runner { return &wireQuery{env: e} }, nominal: 1},
	// A batch's Flush waits for the fsync of its group commit, about a third
	// of the op's time on the reference box (log.commit_us_per_batch over
	// op_us_p50 in a traced run). Over two sets of runs, shares from 0.3 to
	// 0.5 left the least run-to-run spread.
	workload.WireIngestWAL: {make: func(e env) runner { return &wireIngest{env: e} }, nominal: 1.5, fresh: true, diskShare: 0.4},
	workload.SubFanout:     {make: func(e env) runner { return &subFanout{env: e} }, nominal: 1},
	workload.RecoverReplay: {make: func(e env) runner { return &recoverReplay{env: e} }, nominal: 1},
}

// plan spreads the windows that fit into seconds over fresh stacks: one per
// window for a fresh workload, else three, so that set-up is timed three
// times.
func (sp spec) plan(seconds int) (passes, windowsPerPass int) {
	n := max(1, int(math.Round(float64(seconds)/sp.nominal)))
	if sp.fresh {
		return n, 1
	}
	return 3, max(1, int(math.Round(float64(n)/3)))
}

// env is what a workload needs from the invocation.
type env struct {
	seed    uint64
	dir     string // scratch directory of this invocation, removed on exit
	loaders int    // C, the closed-loop client count
	sz      sizes
	cal     *calibrator
	wrong   bool // expect a wrong answer on purpose: the run must then fail
}

// loaderCount is C = min(nproc, 4): every rtdbd caller waits for its reply,
// so the load is a closed loop of a few connections.
func loaderCount() int { return min(runtime.NumCPU(), 4) }

// runner is one workload against one fresh stack.
type runner interface {
	// setup builds the stack and its inputs.
	setup() error
	// loaders is the number of load goroutines, one clientRec each.
	loaders() int
	// window runs one window's ops; warm marks the shorter warm-up window.
	window(recs []*clientRec, warm bool)
	// finish runs the end-of-pass gates, tears everything down and returns
	// the names of the gates that failed.
	finish() []string

	// mark snapshots the layer counters before the traced windows, and
	// layers fills the per-layer metrics after them, stack still up: e2e is
	// the untraced pass of the same invocation.
	mark()
	layers(traced, e2e *summary, m map[string]float64) error
}

// summary is everything measured for one workload in one invocation.
type summary struct {
	windows   []*window
	setups    []float64 // calibrated seconds, one per pass
	rawSetups []float64 // wall seconds, one per pass
	heaps     []float64 // MB, one per pass
	failed    []string  // names of failed gates
	ops       int       // attempted in timed windows
	ok        int
	onTime    int
	warmOps   int // attempted in warm-up windows (checked, not timed)
	warmOkay  int
}

// pass runs set-up → warm-up → windows → heap → gates on a fresh stack and
// folds the outcome into s, with one burst of the reference routine between
// any two of them. tr non-nil records spans in the timed windows.
func (s *summary) pass(name string, e env, windows int, tr *tracer, layers func(r runner) error) error {
	r, disk := specs[name].make(e), specs[name].diskShare
	before, err := e.cal.run(disk > 0)
	if err != nil {
		return err
	}
	// Set-up time runs until the first timed window could start: stack
	// built, inputs loaded, connections dialled, warm-up done.
	t0 := time.Now()
	if err := r.setup(); err != nil {
		r.finish()
		return fmt.Errorf("%s setup: %w", name, err)
	}
	recs := make([]*clientRec, r.loaders())
	for i := range recs {
		recs[i] = &clientRec{lat: make([]int64, 0, 1<<16)}
	}
	warm := measure(recs, func() { r.window(recs, true) })
	setup := time.Since(t0).Seconds()
	s.warmOps += warm.ops()
	s.warmOkay += warm.ok
	after, err := e.cal.run(disk > 0)
	if err != nil {
		r.finish()
		return err
	}
	s.rawSetups = append(s.rawSetups, setup)
	s.setups = append(s.setups, setup/slowdown(before, after, disk))

	if tr != nil {
		r.mark()
		for i, rec := range recs {
			rec.tr = tr.client(i)
		}
	}
	for i := 0; i < windows; i++ {
		before = after
		w := measure(recs, func() { r.window(recs, false) })
		if after, err = e.cal.run(disk > 0); err != nil {
			r.finish()
			return err
		}
		w.slow = slowdown(before, after, disk)
		s.windows = append(s.windows, w)
		s.ops += w.ops()
		s.ok += w.ok
		s.onTime += w.onTime
	}
	s.heaps = append(s.heaps, liveHeapMB())
	if layers != nil {
		if err := layers(r); err != nil {
			r.finish()
			return fmt.Errorf("%s layers: %w", name, err)
		}
	}
	s.failed = append(s.failed, r.finish()...)
	return nil
}

// badOps counts ops that errored, were refused or answered wrong, warm-up
// included, plus one per failed gate: a failed gate is a wrong answer about
// the whole pass.
func (s *summary) badOps() int {
	return s.ops - s.ok + s.warmOps - s.warmOkay + len(s.failed)
}

// endToEnd folds the windows into the nine end-to-end metrics.
func (s *summary) endToEnd() map[string]float64 {
	keep := fastest(s.windows, keepShare)
	all := float64(s.ops + s.warmOps)
	return map[string]float64{
		"setup_s":        stats.Median(s.setups),
		"ops_per_s":      medianOf(keep, (*window).opsPerS),
		"op_us_p50":      medianOf(keep, func(w *window) float64 { return w.pctUs(50) }),
		"op_us_p95":      medianOf(keep, func(w *window) float64 { return w.pctUs(95) }),
		"on_time_share":  float64(s.onTime) / float64(s.ops),
		"ok_share":       math.Max(0, all-float64(s.badOps())) / all,
		"cpu_ms_per_kop": medianOf(keep, (*window).cpuMsPerKop),
		"allocs_per_op":  medianOf(s.windows, (*window).allocsPerOp),
		"live_heap_mb":   stats.Median(s.heaps),
	}
}

// rawP50us is the uncalibrated median op latency: the layer replays are
// timed in wall time too, so self times are differences of like with like.
func (s *summary) rawP50us() float64 {
	return medianOf(fastest(s.windows, keepShare), func(w *window) float64 { return w.pctUs(50) * w.slow })
}

// diagnostics prints what is measured but not gated: the tail, and every
// window with its slowdown, so the raw numbers can be had back.
func (s *summary) diagnostics(out io.Writer, name string) {
	keep := fastest(s.windows, keepShare)
	fmt.Fprintf(out, "# %s: %d windows (%d kept), %d ops, %d not ok, %d late, failed gates %v\n",
		name, len(s.windows), len(keep), s.ops, s.ops-s.ok, s.ok-s.onTime, s.failed)
	fmt.Fprintf(out, "# %s: op_us_p99 %.1f  op_us_max %.1f (not gated)\n", name,
		medianOf(keep, func(w *window) float64 { return w.pctUs(99) }),
		medianOf(keep, func(w *window) float64 { return w.pctUs(100) }))
	fmt.Fprintf(out, "# %s: set-up wall s %.4f, calibrated s %.4f\n", name, s.rawSetups, s.setups)
	for i, w := range s.windows {
		fmt.Fprintf(out, "# %s: window %2d  slowdown %.3f  wall %.3f s  %8.1f ops/s  p50 %9.1f us  p95 %9.1f us  %7.2f cpu ms/kop  %8.2f allocs/op\n",
			name, i, w.slow, w.wall.Seconds(), w.opsPerS(), w.pctUs(50), w.pctUs(95), w.cpuMsPerKop(), w.allocsPerOp())
	}
}

// scratch makes the invocation's scratch directory under out.
func scratch(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, "run-")
}
