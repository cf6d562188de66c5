package main

import (
	"fmt"
	"os"
	"path/filepath"
	"rtc/internal/stats"
	"strings"
	"sync"
	"time"

	"rtc/bench/workload"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// wire_ingest_wal: the write path. Op = one durable batch: BatchSamples
// fire-and-forget InjectSample on seeded sensors and values, then the Flush
// ack, which the server sends once the batch is fsynced. The work per window
// is fixed, because the history size is the state: snapshots rewrite it.
const ingestLimit = 20 * time.Millisecond

type wireIngest struct {
	env
	st    *stack
	dir   string
	conns []*client.Client
	ctl   *client.Client
	gens  []*workload.Gen

	sent         uint64 // samples sent, warm-up included
	payloadBytes uint64 // image+value bytes of those samples
	mu           sync.Mutex

	marks wireMarks
	log0  wal.Stats
}

func (w *wireIngest) loaders() int { return w.env.loaders }

func (w *wireIngest) setup() error {
	dir, err := os.MkdirTemp(w.env.dir, "ingest-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.wrong {
		w.sent++
	}
	if w.st, err = newStack(w.env.loaders+1, dir); err != nil {
		return err
	}
	for i := 0; i < w.env.loaders; i++ {
		w.gens = append(w.gens, workload.New(workload.WireIngestWAL, w.seed, i))
	}
	w.conns, w.ctl, err = w.st.dialLoaders("ingest", w.env.loaders)
	return err
}

func (w *wireIngest) window(recs []*clientRec, warm bool) {
	var wg sync.WaitGroup
	per := w.sz.batchesPerWindow / len(recs)
	if warm {
		per = max(1, per/warmShare)
	}
	for i := range recs {
		wg.Add(1)
		go func(c *client.Client, g *workload.Gen, rec *clientRec) {
			defer wg.Done()
			var sent, payload uint64
			for b := 0; b < per; b++ {
				t0 := time.Now()
				ok := true
				for s := 0; s < workload.BatchSamples; s++ {
					sensor, value := g.Sample()
					image, v := workload.SensorName(sensor), workload.Value(value)
					if err := c.InjectSample(image, v); err != nil {
						ok = false
						continue
					}
					sent++
					payload += uint64(len(image) + len(v))
				}
				t1 := time.Now()
				if err := c.Flush(); err != nil {
					ok = false
				}
				t2 := time.Now()
				rec.add(t2.Sub(t0), ok, t2.Sub(t0) <= ingestLimit)
				if rec.tr != nil {
					root := rec.tr.begin("wire_ingest_wal.op", t0)
					rec.tr.add("client.InjectSample x64", root, t0, t1)
					rec.tr.add("client.Flush", root, t1, t2)
					rec.tr.end(root, t2)
				}
			}
			w.mu.Lock()
			w.sent += sent
			w.payloadBytes += payload
			w.mu.Unlock()
		}(w.conns[i], w.gens[i], recs[i])
	}
	wg.Wait()
}

func (w *wireIngest) finish() (failed []string) {
	defer os.RemoveAll(w.dir)
	if w.st == nil {
		return nil
	}
	m := w.st.srv.Metrics.Snapshot()
	if m.SamplesApplied != w.sent {
		failed = append(failed, fmt.Sprintf("samples_applied==sent (%d != %d)", m.SamplesApplied, w.sent))
	}
	if m.SamplesRejected != 0 {
		failed = append(failed, fmt.Sprintf("samples_rejected==0 (%d)", m.SamplesRejected))
	}
	if m.WalErrors != 0 {
		failed = append(failed, fmt.Sprintf("wal_errors==0 (%d)", m.WalErrors))
	}
	var bounced uint64
	for _, c := range w.conns {
		bounced += c.Stats.Backpressure.Load()
	}
	if bounced != 0 {
		failed = append(failed, fmt.Sprintf("client.backpressure==0 (%d)", bounced))
	}
	seq := w.st.log.Seq()
	failed = append(failed, w.st.shutdown()...)
	// Durability: a fresh Open of the directory recovers exactly the events
	// the log had acknowledged.
	l, err := openLog(w.dir, true)
	if err != nil {
		return append(failed, "reopen: "+err.Error())
	}
	if got := l.State().Events; got != seq {
		failed = append(failed, fmt.Sprintf("reopen recovers wal_seq (%d != %d)", got, seq))
	}
	if err := l.Close(); err != nil {
		failed = append(failed, "reopen close: "+err.Error())
	}
	return failed
}

func (w *wireIngest) mark() {
	w.marks.take(w.st)
	w.log0 = w.st.log.Stats()
}

func (w *wireIngest) layers(traced, e2e *summary, m map[string]float64) error {
	ops := float64(traced.ops)
	if err := w.marks.fill(m, w.st, w.ctl, ops, w.sz.replayOps/10); err != nil {
		return err
	}

	// The log's own counters over the traced windows.
	ls := w.st.log.Stats()
	fsyncs := float64(ls.FsyncCount - w.log0.FsyncCount)
	m["log.fsyncs_per_kop"] = fsyncs / ops * 1e3
	if fsyncs > 0 {
		m["log.fsync_us_mean"] = float64(ls.FsyncNanos-w.log0.FsyncNanos) / fsyncs / 1e3
	}
	if gc := float64(ls.GroupCommits - w.log0.GroupCommits); gc > 0 {
		m["log.group_batch_mean"] = float64(ls.GroupedAppends-w.log0.GroupedAppends) / gc
	}

	// Space: everything under the WAL directory, segments and snapshots,
	// against the bytes of user data. Nothing is deleted during a pass, so
	// the bytes present are the bytes written.
	written, err := dirBytes(w.dir, "")
	if err != nil {
		return err
	}
	m["log.write_amp"] = float64(written) / float64(w.payloadBytes)

	// One snapshot of the history as it stands at the end of the pass.
	t0 := time.Now()
	if err := w.st.log.Snapshot(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	m["log.snapshot_ms"] = float64(time.Since(t0).Microseconds()) / 1e3

	// rtwire alone: one batch is BatchSamples Sample frames, a Flush and a Flushed.
	g := workload.New(workload.WireIngestWAL, w.seed, 0)
	var frames []wireMsg
	for b := 0; b < 4; b++ {
		for s := 0; s < workload.BatchSamples; s++ {
			sensor, value := g.Sample()
			frames = append(frames, rtwire.Sample{
				ID: uint64(len(frames) + 1), Image: workload.SensorName(sensor), Value: workload.Value(value),
			})
		}
		frames = append(frames, rtwire.Flush{ID: uint64(len(frames) + 1)}, rtwire.Flushed{ID: uint64(len(frames)), Chronon: 100_000})
	}
	if err := codecReplay(m, frames, w.sz.replayOps); err != nil {
		return err
	}

	if m["server.sample_ns_per_op"], err = sampleReplay(w.env, workload.WireIngestWAL, workload.BatchSamples); err != nil {
		return err
	}
	return logReplay(w.env, m)
}

// dirBytes sums the regular files under dir whose names end in suffix ("" for
// all: segments and snapshots; ".wal" for segments alone).
func dirBytes(dir, suffix string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() && strings.HasSuffix(path, suffix) {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// sampleReplay is the server alone on the write path: batches of per samples
// and a Flush through one session in process, no wire and no WAL. It
// returns ns per sample.
func sampleReplay(e env, name string, per int) (float64, error) {
	srv, err := server.New(serverConfig(1, nil))
	if err != nil {
		return 0, err
	}
	srv.Start()
	defer srv.Stop()
	sess := srv.Session(0)
	g := workload.New(name, e.seed, 0)
	batches := max(1, e.sz.replayOps/per)
	run := func() error {
		for b := 0; b < batches; b++ {
			for s := 0; s < per; s++ {
				image, value := "temp", 0
				if name == workload.SubFanout {
					value = g.Temp()
				} else {
					var sensor int
					sensor, value = g.Sample()
					image = workload.SensorName(sensor)
				}
				if err := sess.InjectSample(image, workload.Value(value)); err != nil {
					return err
				}
			}
			if err := sess.Flush(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := run(); err != nil { // warm-up
		return 0, fmt.Errorf("sample replay: %w", err)
	}
	t0 := time.Now()
	if err := run(); err != nil {
		return 0, fmt.Errorf("sample replay: %w", err)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(batches*per), nil
}

// logReplay is the log alone on the write path, no server: first the sample
// stream appended with Sync off (encode, write, apply), then durable batches
// the way the apply loop issues them under group commit: BatchSamples
// appends, CloseWindow, wait for the last ticket.
func logReplay(e env, m map[string]float64) error {
	g := workload.New(workload.WireIngestWAL, e.seed, 0)
	event := func(at int) wal.Event {
		sensor, value := g.Sample()
		return wal.Sample(timeseq.Time(at), workload.SensorName(sensor), workload.Value(value))
	}
	open := func(sync bool) (*wal.Log, string, error) {
		dir, err := os.MkdirTemp(e.dir, "logreplay-")
		if err != nil {
			return nil, "", err
		}
		l, err := openLog(dir, sync)
		if err != nil {
			os.RemoveAll(dir)
			return nil, "", err
		}
		for i := 0; i < workload.Sensors; i++ {
			if err := l.Append(wal.Image(workload.SensorName(i), 5)); err != nil {
				l.Close()
				os.RemoveAll(dir)
				return nil, "", err
			}
		}
		return l, dir, nil
	}

	l, dir, err := open(false)
	if err != nil {
		return fmt.Errorf("log replay: %w", err)
	}
	defer os.RemoveAll(dir)
	before, err := dirBytes(dir, ".wal")
	if err != nil {
		l.Close()
		return err
	}
	n := e.sz.replayOps
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := l.AppendTicket(event(i+1), false); err != nil {
			l.Close()
			return fmt.Errorf("log replay append: %w", err)
		}
	}
	m["log.append_ns_per_event"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	if err := l.Close(); err != nil {
		return err
	}
	after, err := dirBytes(dir, ".wal")
	if err != nil {
		return err
	}
	m["log.bytes_per_event"] = float64(after-before) / float64(n)

	l, dir2, err := open(true)
	if err != nil {
		return fmt.Errorf("log replay: %w", err)
	}
	defer os.RemoveAll(dir2)
	defer l.Close()
	batches := max(1, n/workload.BatchSamples/4)
	lat := make([]float64, 0, batches)
	at := 0
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		var last *wal.Ticket
		for s := 0; s < workload.BatchSamples; s++ {
			at++
			if last, err = l.AppendTicket(event(at), false); err != nil {
				return fmt.Errorf("log replay append: %w", err)
			}
		}
		l.CloseWindow()
		if err := last.Wait(); err != nil {
			return fmt.Errorf("log replay commit: %w", err)
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["log.commit_us_per_batch"] = stats.Median(lat)
	return nil
}
