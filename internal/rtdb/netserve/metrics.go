package netserve

import (
	"sync/atomic"

	"rtc/internal/rtwire"
)

// WireMetrics is the transport-level counter block — the per-connection
// tallies folded into one aggregate as they happen, in the same
// atomics-only style as server.Metrics. The serving-layer conservation
// laws extend over it:
//
//   - every query frame is accounted: QueriesIn (wire) == queries handed
//     to sessions + ExpiredOnArrival, and the session-level law
//     QueriesIn == QueriesAccounted picks up from there;
//   - backpressure is explicit: a rejected submission produces a
//     BackpressureFrames increment and an Err frame, never silence;
//   - connections balance: ConnsAccepted == ConnsClosed + ConnsRefused +
//     live connections.
type WireMetrics struct {
	ConnsAccepted atomic.Uint64
	ConnsRefused  atomic.Uint64 // handshake failed or no free session
	ConnsClosed   atomic.Uint64

	FramesIn  atomic.Uint64
	FramesOut atomic.Uint64
	BytesIn   atomic.Uint64
	BytesOut  atomic.Uint64

	SamplesIn          atomic.Uint64 // sample frames received
	QueriesIn          atomic.Uint64 // query frames received
	AsOfReads          atomic.Uint64 // as-of frames received
	SubsIn             atomic.Uint64 // sub_open/sub_resume frames received
	PushesOut          atomic.Uint64 // push frames queued for delivery
	ExpiredOnArrival   atomic.Uint64 // queries dead on arrival (subset of QueriesIn)
	BackpressureFrames atomic.Uint64 // Err/backpressure frames produced
	WriteDrops         atomic.Uint64 // best-effort frames dropped on full queues
	DecodeErrors       atomic.Uint64 // frames that failed to parse

	HeartbeatsIn   atomic.Uint64 // client heartbeats echoed
	ReplBatchesOut atomic.Uint64 // WalBatch frames streamed to followers
	ReplResyncs    atomic.Uint64 // full-state resyncs forced by compaction

	CorruptFrames      atomic.Uint64 // inbound frames with byte damage (CRC/framing)
	WriteTimeouts      atomic.Uint64 // connections cut on a failed/stalled write
	ReplStallEvictions atomic.Uint64 // followers evicted for acking nothing at a full window
}

// WireSnapshot is a plain copy of the counters at one instant.
type WireSnapshot struct {
	ConnsAccepted, ConnsRefused, ConnsClosed uint64

	FramesIn, FramesOut, BytesIn, BytesOut uint64

	SamplesIn, QueriesIn, AsOfReads      uint64
	SubsIn, PushesOut                    uint64
	ExpiredOnArrival, BackpressureFrames uint64
	WriteDrops, DecodeErrors             uint64

	HeartbeatsIn, ReplBatchesOut uint64
	ReplResyncs                  uint64

	CorruptFrames, WriteTimeouts uint64
	ReplStallEvictions           uint64
}

// Snapshot copies the counters.
func (w *WireMetrics) Snapshot() WireSnapshot {
	return WireSnapshot{
		ConnsAccepted:      w.ConnsAccepted.Load(),
		ConnsRefused:       w.ConnsRefused.Load(),
		ConnsClosed:        w.ConnsClosed.Load(),
		FramesIn:           w.FramesIn.Load(),
		FramesOut:          w.FramesOut.Load(),
		BytesIn:            w.BytesIn.Load(),
		BytesOut:           w.BytesOut.Load(),
		SamplesIn:          w.SamplesIn.Load(),
		QueriesIn:          w.QueriesIn.Load(),
		AsOfReads:          w.AsOfReads.Load(),
		SubsIn:             w.SubsIn.Load(),
		PushesOut:          w.PushesOut.Load(),
		ExpiredOnArrival:   w.ExpiredOnArrival.Load(),
		BackpressureFrames: w.BackpressureFrames.Load(),
		WriteDrops:         w.WriteDrops.Load(),
		DecodeErrors:       w.DecodeErrors.Load(),
		HeartbeatsIn:       w.HeartbeatsIn.Load(),
		ReplBatchesOut:     w.ReplBatchesOut.Load(),
		ReplResyncs:        w.ReplResyncs.Load(),
		CorruptFrames:      w.CorruptFrames.Load(),
		WriteTimeouts:      w.WriteTimeouts.Load(),
		ReplStallEvictions: w.ReplStallEvictions.Load(),
	}
}

// Pairs flattens the snapshot into named counters in display order, with
// the same "net_" prefix the metrics frame uses.
func (w WireSnapshot) Pairs() []rtwire.MetricPair {
	return w.appendPairs(make([]rtwire.MetricPair, 0, wireMetricCount))
}

// wireMetricCount is the number of pairs appendPairs adds (capacity hint).
const wireMetricCount = 22

// appendPairs appends the wire counters as named pairs (prefixed "net_")
// after the server's rows, so the metrics frame carries one flat table.
func (w WireSnapshot) appendPairs(dst []rtwire.MetricPair) []rtwire.MetricPair {
	add := func(name string, v uint64) {
		dst = append(dst, rtwire.MetricPair{Name: "net_" + name, Value: v})
	}
	add("conns_accepted", w.ConnsAccepted)
	add("conns_refused", w.ConnsRefused)
	add("conns_closed", w.ConnsClosed)
	add("frames_in", w.FramesIn)
	add("frames_out", w.FramesOut)
	add("bytes_in", w.BytesIn)
	add("bytes_out", w.BytesOut)
	add("samples_in", w.SamplesIn)
	add("queries_in", w.QueriesIn)
	add("asof_reads", w.AsOfReads)
	add("subs_in", w.SubsIn)
	add("pushes_out", w.PushesOut)
	add("expired_on_arrival", w.ExpiredOnArrival)
	add("backpressure_frames", w.BackpressureFrames)
	add("write_drops", w.WriteDrops)
	add("decode_errors", w.DecodeErrors)
	add("heartbeats_in", w.HeartbeatsIn)
	add("repl_batches_out", w.ReplBatchesOut)
	add("repl_resyncs", w.ReplResyncs)
	add("corrupt_frames", w.CorruptFrames)
	add("write_timeouts", w.WriteTimeouts)
	add("repl_stall_evictions", w.ReplStallEvictions)
	return dst
}
