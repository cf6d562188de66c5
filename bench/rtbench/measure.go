package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rtc/internal/stats"
)

// clientRec is what one load goroutine records in one window. Each goroutine
// owns its own, so recording takes no lock.
type clientRec struct {
	lat    []int64       // per-op wall latency, ns
	ok     int           // ops answered without error and with the right answer
	onTime int           // ok ops whose §4.1 verdict is a hit and whose latency is within the limit
	tr     *clientTracer // nil with tracing off
}

func (r *clientRec) add(lat time.Duration, ok, onTime bool) {
	r.lat = append(r.lat, int64(lat))
	if ok {
		r.ok++
		if onTime {
			r.onTime++
		}
	}
}

func (r *clientRec) reset() {
	r.lat = r.lat[:0]
	r.ok, r.onTime = 0, 0
}

// window is one timed window of one workload, all clients merged.
type window struct {
	lat     []int64 // sorted
	ok      int
	onTime  int
	wall    time.Duration
	cpu     time.Duration // process user+sys over the window
	mallocs uint64        // heap allocations of the whole process over the window
	slow    float64       // the machine's slowdown over the window, see calibrate.go
}

func (w *window) ops() int { return len(w.lat) }

// The timings are calibrated: divided by the window's slowdown.
func (w *window) opsPerS() float64 { return float64(w.ops()) / w.wall.Seconds() * w.slow }
func (w *window) pctUs(p float64) float64 {
	return float64(percentile(w.lat, p)) / 1e3 / w.slow
}
func (w *window) cpuMsPerKop() float64 {
	return float64(w.cpu) / 1e6 / float64(w.ops()) * 1e3 / w.slow
}
func (w *window) allocsPerOp() float64 { return float64(w.mallocs) / float64(w.ops()) }

// percentile is the nearest-rank percentile of a sorted slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapMB is HeapAlloc after two forced collections: the second one
// frees what the first one's finalizers released.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measure runs one window: collect first so every window starts from the
// same heap state, then time run and fold the clients' records together.
// The caller sets the window's slowdown; 1 means uncalibrated.
func measure(recs []*clientRec, run func()) *window {
	for _, r := range recs {
		r.reset()
	}
	runtime.GC()
	m0, c0, t0 := mallocs(), cpuTime(), time.Now()
	run()
	w := &window{wall: time.Since(t0), cpu: cpuTime() - c0, mallocs: mallocs() - m0, slow: 1}
	for _, r := range recs {
		w.lat = append(w.lat, r.lat...)
		w.ok += r.ok
		w.onTime += r.onTime
	}
	sort.Slice(w.lat, func(i, j int) bool { return w.lat[i] < w.lat[j] })
	return w
}

// fastest returns the share of windows with the highest ops_per_s, at least
// one. Interference the calibration does not follow only ever slows a
// window, so the slow tail says more about the neighbours than about the code.
func fastest(ws []*window, share float64) []*window {
	s := append([]*window(nil), ws...)
	sort.Slice(s, func(i, j int) bool { return s[i].opsPerS() > s[j].opsPerS() })
	return s[:max(1, int(math.Round(share*float64(len(s)))))]
}

func medianOf(ws []*window, f func(*window) float64) float64 {
	v := make([]float64, len(ws))
	for i, w := range ws {
		v[i] = f(w)
	}
	return stats.Median(v)
}
