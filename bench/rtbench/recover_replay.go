package main

import (
	"fmt"
	"os"
	"time"

	"rtc/bench/workload"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/server"
)

// recover_replay: the restart path, no wire. Set-up writes a multi-segment
// WAL with snapshots through a server, in process, from the ingest
// generator. Op = one recovery: log.Open + server.New + Start + first
// ValueAsOf answered + Stop. The work per window is fixed.
const recoverLimit = 2 * time.Second

type recoverReplay struct {
	env
	dir    string
	ref    *wal.State // the writer's state, what every recovery must rebuild
	events uint64
	final  [workload.Sensors]int // each sensor's last written value, -1 if none
	probe  int                   // sensor the op reads back
	failed []string

	open0, new0 time.Duration // traced windows' time in log.Open and server.New
	recoveries  int
}

func (r *recoverReplay) loaders() int { return 1 }

func (r *recoverReplay) setup() error {
	dir, err := os.MkdirTemp(r.env.dir, "recover-")
	if err != nil {
		return err
	}
	r.dir = dir
	// Sync off: the fixture's durability is not what this workload times.
	l, err := openLog(dir, false)
	if err != nil {
		return err
	}
	srv, err := server.New(serverConfig(1, l))
	if err != nil {
		l.Close()
		return err
	}
	srv.Start()
	sess := srv.Session(0)
	g := workload.New(workload.RecoverReplay, r.seed, 0)
	for i := range r.final {
		r.final[i] = -1
	}
	for n := 1; n <= r.sz.walEvents; n++ {
		sensor, value := g.Sample()
		r.final[sensor] = value
		if err = sess.InjectSample(workload.SensorName(sensor), workload.Value(value)); err != nil {
			break
		}
		if n%(queueDepth/2) == 0 {
			if err = sess.Flush(); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = sess.Flush()
	}
	srv.Stop()
	r.ref, r.events = l.State(), l.Seq()
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	for r.final[r.probe] < 0 && r.probe < workload.Sensors-1 {
		r.probe++
	}
	if r.wrong {
		r.final[r.probe] = (r.final[r.probe] + 1) % (workload.MaxValue + 1)
	}
	return err
}

// recoverOnce is one op. The state comparison runs after the op's clock has
// stopped and before the log is closed.
func (r *recoverReplay) recoverOnce(rec *clientRec) {
	t0 := time.Now()
	l, err := openLog(r.dir, true)
	t1 := time.Now()
	if err != nil {
		r.failed = append(r.failed, "recover open: "+err.Error())
		rec.add(t1.Sub(t0), false, false)
		return
	}
	defer l.Close()
	srv, err := server.New(serverConfig(1, l))
	t2 := time.Now()
	if err != nil {
		r.failed = append(r.failed, "recover new: "+err.Error())
		rec.add(t2.Sub(t0), false, false)
		return
	}
	srv.Start()
	got, found := srv.ValueAsOf(workload.SensorName(r.probe), srv.HistoryHorizon())
	srv.Stop()
	t3 := time.Now()

	ok := found && got == workload.Value(r.final[r.probe])
	if diff := l.State().Diff(r.ref); diff != "" {
		ok = false
		r.failed = append(r.failed, "recovered state differs: "+diff)
	}
	if n := l.Seq(); n != r.events {
		ok = false
		r.failed = append(r.failed, fmt.Sprintf("recovered events (%d != %d)", n, r.events))
	}
	rec.add(t3.Sub(t0), ok, t3.Sub(t0) <= recoverLimit)
	if rec.tr != nil {
		root := rec.tr.begin("recover_replay.op", t0)
		rec.tr.add("log.Open", root, t0, t1)
		rec.tr.add("server.New", root, t1, t2)
		rec.tr.add("server.Start+ValueAsOf+Stop", root, t2, t3)
		rec.tr.end(root, t3)
		r.open0 += t1.Sub(t0)
		r.new0 += t2.Sub(t1)
		r.recoveries++
	}
}

func (r *recoverReplay) window(recs []*clientRec, warm bool) {
	n := r.sz.recoversPerWin
	if warm {
		n = 1
	}
	for i := 0; i < n; i++ {
		r.recoverOnce(recs[0])
	}
}

func (r *recoverReplay) finish() []string {
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
	return r.failed
}

func (r *recoverReplay) mark() {}

func (r *recoverReplay) layers(traced, e2e *summary, m map[string]float64) error {
	if r.recoveries == 0 {
		return fmt.Errorf("no traced recovery")
	}
	n := float64(r.recoveries) * float64(r.events)
	m["log.open_ns_per_event"] = float64(r.open0.Nanoseconds()) / n
	m["server.rebuild_ns_per_event"] = float64(r.new0.Nanoseconds()) / n
	written, err := dirBytes(r.dir, "")
	if err != nil {
		return err
	}
	segments, err := dirBytes(r.dir, ".wal")
	if err != nil {
		return err
	}
	var payload int
	for name, img := range r.ref.Images {
		for _, s := range img.Samples {
			payload += len(name) + len(s.Value)
		}
	}
	m["log.write_amp"] = float64(written) / float64(payload)
	m["log.bytes_per_event"] = float64(segments) / float64(r.events)
	return nil
}
