package main

import (
	"fmt"
	"sort"
	"time"

	"rtc/internal/rtdb/client"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// Helpers the workloads' layers() share. A layer metric a workload does not
// exercise is reported as 0 by the caller; these only fill what they measure.

// wireMarks is what every wire workload's mark and layers share: netserve's
// and the server's counters as they stood before the traced windows.
type wireMarks struct {
	wire netserve.WireSnapshot
	srv  server.MetricsSnapshot
}

func (k *wireMarks) take(st *stack) {
	k.wire = st.ns.Wire.Snapshot()
	k.srv = st.srv.Metrics.Snapshot()
}

// fill turns the counter deltas over the traced windows into per-op rates
// and counts, and adds the floor round trip measured on ctl. The counts are
// exact; the harness's control connection is silent during the windows.
func (k *wireMarks) fill(m map[string]float64, st *stack, ctl *client.Client, ops float64, rtts int) (err error) {
	a, b := k.wire, st.ns.Wire.Snapshot()
	m["netserve.frames_per_op"] = float64(b.FramesIn-a.FramesIn+b.FramesOut-a.FramesOut) / ops
	m["netserve.bytes_per_op"] = float64(b.BytesIn-a.BytesIn+b.BytesOut-a.BytesOut) / ops
	m["netserve.write_drops"] = float64(b.WriteDrops - a.WriteDrops)
	m["netserve.backpressure_frames"] = float64(b.BackpressureFrames - a.BackpressureFrames)

	c, d := k.srv, st.srv.Metrics.Snapshot()
	m["server.queue_rejects"] = float64(d.SamplesRejected - c.SamplesRejected + d.QueriesRejected - c.QueriesRejected)
	m["server.deadline_miss"] = float64(d.DeadlineMiss - c.DeadlineMiss)
	m["server.admission_skip"] = float64(d.AdmissionSkip - c.AdmissionSkip)
	m["sub.push_dropped"] = float64(d.PushDropped - c.PushDropped)
	m["sub.push_expired"] = float64(d.PushExpired - c.PushExpired)

	m["client.redials"] = float64(st.redials())
	m["netserve.floor_rtt_us_p50"], err = floorRTT(ctl, rtts)
	return err
}

// floorRTT is the median round trip of client.AsOf on an idle stack: the
// request crosses client, rtwire and netserve both ways and is answered
// from the published snapshot without entering the apply loop, so it is the
// floor under every blocking wire op.
func floorRTT(c *client.Client, n int) (p50us float64, err error) {
	lat := make([]int64, 0, n)
	for i := 0; i < n+n/10; i++ {
		t0 := time.Now()
		if _, _, _, err := c.AsOf("temp", 0); err != nil {
			return 0, fmt.Errorf("floor rtt: %w", err)
		}
		if i >= n/10 { // the first tenth warms the connection
			lat = append(lat, int64(time.Since(t0)))
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(percentile(lat, 50)) / 1e3, nil
}

// wireMsg is any rtwire message.
type wireMsg interface{ AppendTo(dst []byte) []byte }

// codecReplay times rtwire alone on a workload's frame mix: encode every
// frame into a reused buffer, then frame-check and decode every frame, at
// least n frames each way.
func codecReplay(m map[string]float64, frames []wireMsg, n int) error {
	bufs := make([][]byte, len(frames))
	encode := func() {
		for i, f := range frames {
			bufs[i] = f.AppendTo(bufs[i][:0])
		}
	}
	decode := func() error {
		for _, b := range bufs {
			f, _, err := rtwire.DecodeFrame(b)
			if err != nil {
				return err
			}
			if _, err := rtwire.Decode(f); err != nil {
				return err
			}
		}
		return nil
	}
	encode() // sizes the buffers
	if err := decode(); err != nil {
		return fmt.Errorf("codec replay: %w", err)
	}
	rounds := max(1, n/len(frames))
	total := float64(rounds * len(frames))
	m0 := mallocs()
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		encode()
	}
	t1 := time.Now()
	for r := 0; r < rounds; r++ {
		if err := decode(); err != nil {
			return fmt.Errorf("codec replay: %w", err)
		}
	}
	t2 := time.Now()
	m["rtwire.encode_ns_per_frame"] = float64(t1.Sub(t0).Nanoseconds()) / total
	m["rtwire.decode_ns_per_frame"] = float64(t2.Sub(t1).Nanoseconds()) / total
	m["rtwire.codec_allocs_per_frame"] = float64(mallocs()-m0) / total
	return nil
}
