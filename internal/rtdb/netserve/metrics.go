package netserve

import (
	"sync/atomic"

	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// WireMetrics is the transport-level counter block — the per-connection
// tallies folded into one aggregate as they happen, declared like
// server.Metrics: atomics, each tagged with its metrics-reply row. Its
// book, BOOK-conns (Books), is that every accepted connection was closed or
// refused; a live connection is neither, so it closes once the listener has.
// A query frame is handed to a session, where BOOK-queries counts it, or
// expired on arrival; a rejected submission produces a BackpressureFrames
// increment and an Err frame, never silence.
type WireMetrics struct {
	ConnsAccepted atomic.Uint64 `metric:"net_conns_accepted"`
	ConnsRefused  atomic.Uint64 `metric:"net_conns_refused"` // handshake failed or no free session
	ConnsClosed   atomic.Uint64 `metric:"net_conns_closed"`

	FramesIn  atomic.Uint64 `metric:"net_frames_in"`
	FramesOut atomic.Uint64 `metric:"net_frames_out"`
	BytesIn   atomic.Uint64 `metric:"net_bytes_in"`
	BytesOut  atomic.Uint64 `metric:"net_bytes_out"`

	SamplesIn          atomic.Uint64 `metric:"net_samples_in"`          // sample frames received
	QueriesIn          atomic.Uint64 `metric:"net_queries_in"`          // query frames received
	AsOfReads          atomic.Uint64 `metric:"net_asof_reads"`          // as-of frames received
	SubsIn             atomic.Uint64 `metric:"net_subs_in"`             // sub_open/sub_resume frames received
	PushesOut          atomic.Uint64 `metric:"net_pushes_out"`          // push frames queued for delivery
	ExpiredOnArrival   atomic.Uint64 `metric:"net_expired_on_arrival"`  // queries dead on arrival (subset of QueriesIn)
	BackpressureFrames atomic.Uint64 `metric:"net_backpressure_frames"` // Err/backpressure frames produced
	WriteDrops         atomic.Uint64 `metric:"net_write_drops"`         // best-effort frames dropped on full queues
	DecodeErrors       atomic.Uint64 `metric:"net_decode_errors"`       // frames that failed to parse

	HeartbeatsIn   atomic.Uint64 `metric:"net_heartbeats_in"`    // client heartbeats echoed
	ReplBatchesOut atomic.Uint64 `metric:"net_repl_batches_out"` // WalBatch frames streamed to followers

	CorruptFrames      atomic.Uint64 `metric:"net_corrupt_frames"`       // inbound frames with byte damage (CRC/framing)
	WriteTimeouts      atomic.Uint64 `metric:"net_write_timeouts"`       // connections cut on a failed/stalled write
	ReplStallEvictions atomic.Uint64 `metric:"net_repl_stall_evictions"` // followers evicted for acking nothing at a full window
}

// Books returns the listener's conservation laws, over WireMetrics' rows.
func Books() []server.Book {
	return []server.Book{{ID: "BOOK-conns", Left: []string{"net_conns_accepted"},
		Right: []string{"net_conns_closed", "net_conns_refused"}, Quiescent: true}}
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

	CorruptFrames, WriteTimeouts uint64
	ReplStallEvictions           uint64
}

// wireRows lays the reply's net_ rows out, after the server's.
var wireRows = server.NewRows((*WireSnapshot)(nil), (*WireMetrics)(nil))

// Snapshot copies the counters.
func (w *WireMetrics) Snapshot() WireSnapshot {
	var s WireSnapshot
	wireRows.Load(&s, w)
	return s
}

// Add folds another listener's counters into w.
func (w *WireSnapshot) Add(o WireSnapshot) { wireRows.Add(w, &o) }

// Pairs flattens the snapshot into named rows, in the reply's order.
func (w WireSnapshot) Pairs() []rtwire.MetricPair { return wireRows.Append(nil, &w) }
