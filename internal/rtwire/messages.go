package rtwire

import (
	"fmt"

	"rtc/internal/deadline"
	"rtc/internal/encoding"
	"rtc/internal/timeseq"
)

// DecayID names a usefulness-decay shape on the wire. Closures cannot
// travel; the id plus parameters reconstruct the §4.1 decay server-side.
type DecayID uint8

const (
	// DecayNone: no decay function (firm queries, or soft with implicit 0).
	DecayNone DecayID = iota
	// DecayHyperbolic: the paper's example u(t) = Max before the deadline,
	// Max/(t−t_d) after it.
	DecayHyperbolic
	// DecayLinear: Max at the deadline, reaching 0 after Span chronons.
	DecayLinear
)

// Decay is the wire form of a usefulness-decay function.
type Decay struct {
	ID   DecayID
	Max  uint64
	Span timeseq.Time // DecayLinear only
}

// Func reconstructs the decay as a deadline.Usefulness anchored at the
// client-relative deadline td. It returns nil for DecayNone.
func (d Decay) Func(td timeseq.Time) deadline.Usefulness {
	switch d.ID {
	case DecayHyperbolic:
		return deadline.Hyperbolic(d.Max, td)
	case DecayLinear:
		return deadline.Linear(d.Max, td, d.Span)
	default:
		return nil
	}
}

// ErrCode classifies a KindErr frame.
type ErrCode uint8

const (
	// CodeBackpressure: the session queue was full; a deadline-carrying
	// query is accounted as a miss server-side, never silently dropped.
	CodeBackpressure ErrCode = iota + 1
	// CodeClosed: the server is draining or stopped.
	CodeClosed
	// CodeServerFull: no free session for this connection.
	CodeServerFull
	// CodeBadRequest: the frame did not parse or referenced nothing.
	CodeBadRequest
	// CodeReadOnly: the node is a standby; it refuses writes and firm
	// queries (their freshness cannot be guaranteed behind the primary).
	CodeReadOnly
	// CodeStale: the peer's fencing epoch is behind — a deposed primary or
	// an outdated follower; its frames are rejected.
	CodeStale
)

// String implements fmt.Stringer.
func (c ErrCode) String() string {
	switch c {
	case CodeBackpressure:
		return "backpressure"
	case CodeClosed:
		return "closed"
	case CodeServerFull:
		return "server_full"
	case CodeBadRequest:
		return "bad_request"
	case CodeReadOnly:
		return "read_only"
	case CodeStale:
		return "stale_epoch"
	default:
		return fmt.Sprintf("ErrCode(%d)", uint8(c))
	}
}

// Hello opens a connection.
type Hello struct{ Client string }

// Role names what a node is at handshake time.
type Role uint8

const (
	// RolePrimary accepts writes; its WAL is the replication source.
	RolePrimary Role = iota
	// RoleStandby tails a primary's WAL and serves reads only.
	RoleStandby
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleStandby:
		return "standby"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Welcome acknowledges a Hello. Epoch is the node's fencing epoch: it
// increases on every promotion, so a client that has seen a newer epoch
// rejects a Welcome from a deposed primary. Shards and Shard carry the
// keyspace placement (v4): the deployment's shard count and the answering
// listener's shard index, so the client can verify it dialed the shard
// ShardOf says owns each object. An unsharded server reports Shards=1,
// Shard=0.
type Welcome struct {
	Session uint64
	Chronon timeseq.Time // server chronon at accept
	Epoch   uint64
	Role    Role
	Shards  uint64 // total shards in the deployment (1 = unsharded)
	Shard   uint64 // this listener's shard index in [0, Shards)
}

// Sample is one timed sensor sample.
type Sample struct {
	ID           uint64
	Image, Value string
}

// Query is one aperiodic query with its client-relative deadline envelope.
type Query struct {
	ID               uint64
	Query, Candidate string
	Kind             deadline.Kind
	// Deadline is relative to the client's issue instant.
	Deadline timeseq.Time
	// Elapsed is the chronons the client already consumed between issue
	// and this transmission (queueing, earlier attempts). The server
	// anchors Deadline−Elapsed at the arrival chronon; Elapsed ≥ Deadline
	// on a firm query is "expired on arrival".
	Elapsed   timeseq.Time
	MinUseful uint64
	Decay     Decay
}

// Result answers one Query.
type Result struct {
	ID               uint64
	Answers          []string
	Match            bool
	Useful           uint64
	Missed           bool
	Evaluated        bool
	Issue, Served    timeseq.Time // server chronons
	ExpiredOnArrival bool
}

// AsOf is one temporal read against the published history.
type AsOf struct {
	ID    uint64
	Image string
	At    timeseq.Time
}

// AsOfResult answers one AsOf.
type AsOfResult struct {
	ID      uint64
	OK      bool
	Value   string
	Horizon timeseq.Time
}

// MetricsReq requests a metrics snapshot.
type MetricsReq struct{ ID uint64 }

// MetricPair is one metrics counter.
type MetricPair struct {
	Name  string
	Value uint64
}

// Metrics answers one MetricsReq. Pairs are self-describing name/value
// rows in the server's table order, so new counters never break old
// clients.
type Metrics struct {
	ID    uint64
	Pairs []MetricPair
}

// Map indexes the pairs by name.
func (m Metrics) Map() map[string]uint64 {
	out := make(map[string]uint64, len(m.Pairs))
	for _, p := range m.Pairs {
		out[p.Name] = p.Value
	}
	return out
}

// Flush asks the server to apply everything submitted before it.
type Flush struct{ ID uint64 }

// Flushed answers one Flush.
type Flushed struct {
	ID      uint64
	Chronon timeseq.Time
}

// Err reports a per-request error. ID echoes the failing request (0 for
// connection-level errors).
type Err struct {
	ID   uint64
	Code ErrCode
	Msg  string
}

// Error implements the error interface so Err frames can flow through
// client call sites.
func (e Err) Error() string { return fmt.Sprintf("rtwire: %s: %s", e.Code, e.Msg) }

// Bye announces an orderly close.
type Bye struct{ Reason string }

// Subscribe switches the connection into WAL-follower mode: the primary
// streams every log event with sequence number > AfterSeq.
type Subscribe struct {
	AfterSeq uint64
	Follower string // follower name, for the primary's logs
}

// Snap classifies a WalBatch. Only SnapNone is ever sent: the two state-dump
// values stay in the format (Version 4 encodes and decodes them, and the
// golden fixtures pin them), but no node ships a dump, and a follower
// refuses a batch carrying either one before it touches its log.
const (
	// SnapNone: Events are live WAL events, FirstSeq the first one's seq.
	SnapNone uint8 = iota
	// SnapPart: Events would be one chunk of a state dump. Sent by no node.
	SnapPart
	// SnapFinal: a state dump's terminating frame, SnapSeq/SnapLastAt the
	// sequence and last timestamp the dumped state stands for. Sent by no
	// node.
	SnapFinal
)

// WalBatch carries a contiguous run of WAL events from the primary's log.
// Each entry of Events is one log event's record payload ($f1@f2@…$) as the
// primary framed it — opaque to the wire layer and the replica; the
// follower's log decodes it and frames the same bytes. Epoch fences the
// stream: a follower rejects batches from an epoch older than its newest.
type WalBatch struct {
	Epoch      uint64
	FirstSeq   uint64
	Snap       uint8
	SnapSeq    uint64
	SnapLastAt timeseq.Time
	Events     []string
}

// WalAck acknowledges that the follower durably applied events through
// Seq; it opens the primary's bounded send window.
type WalAck struct{ Seq uint64 }

// Heartbeat is the liveness beacon. On replication links the primary sends
// it when idle (Seq = newest log sequence, so the follower can detect lag
// without traffic); on plain client connections the client sends it when
// idle and the server echoes it.
type Heartbeat struct {
	Epoch   uint64
	Chronon timeseq.Time
	Seq     uint64
}

// PromoteInfo announces a promotion: the sender is now primary at Epoch
// with its log at Seq. A standby broadcasts it to its read clients before
// re-opening as primary.
type PromoteInfo struct {
	Epoch uint64
	Seq   uint64
}

// SubState classifies a SubAck.
type SubState uint8

const (
	// SubAdmitted: the standing query passed §4.1 admission and is live.
	SubAdmitted SubState = iota + 1
	// SubRefused: admission failed (unknown query, impossible deadline,
	// zero period, or a duplicate id on this connection).
	SubRefused
	// SubClosed: the subscription is closed; Cursor is the last assigned.
	SubClosed
)

// String implements fmt.Stringer.
func (s SubState) String() string {
	switch s {
	case SubAdmitted:
		return "admitted"
	case SubRefused:
		return "refused"
	case SubClosed:
		return "closed"
	default:
		return fmt.Sprintf("SubState(%d)", uint8(s))
	}
}

// SubOpen registers a standing periodic query: the server evaluates Query
// every Period chronons and pushes each tick's stamped result. The deadline
// envelope (Kind, Deadline, Elapsed, MinUseful, Decay) is the same
// client-relative contract a Query carries, applied per tick: Deadline is
// relative to each tick's issue instant, and Elapsed shifts it exactly as
// netserve's translation shifts an aperiodic query's.
type SubOpen struct {
	ID        uint64 // client-chosen subscription id, unique per connection
	Query     string
	Period    timeseq.Time
	Kind      deadline.Kind
	Deadline  timeseq.Time
	Elapsed   timeseq.Time
	MinUseful uint64
	Decay     Decay
	// Depth bounds the server-side delivery queue for this subscriber
	// (0: server default). When the queue is full the oldest queued push is
	// dropped and counted, never the newest.
	Depth uint64
}

// SubAck answers a SubOpen, SubResume, or SubCancel. Cursor is the cursor
// base the subscription continues from (0 for a fresh subscription, the
// resumed-after cursor on a SubResume, the last assigned cursor on close).
type SubAck struct {
	ID      uint64
	State   SubState
	Cursor  uint64
	Chronon timeseq.Time
}

// Push carries one tick result of a standing query. Cursor is monotone per
// subscription: every scheduled tick consumes exactly one cursor value,
// whether it was delivered, dropped, or expired. Dropped and Expired are
// cumulative for the current attachment — Dropped counts queued pushes
// discarded by the bounded queue (stamped at send time), Expired counts
// ticks skipped by per-tick admission (stamped at schedule time) — so a
// client can audit delivery: received == Cursor − base − Dropped − Expired.
type Push struct {
	ID        uint64
	Cursor    uint64
	Dropped   uint64
	Expired   uint64
	Useful    uint64
	Missed    bool
	Evaluated bool
	// Degraded marks a push served by a hot standby from replicated state.
	Degraded      bool
	Issue, Served timeseq.Time // server chronons
	Answers       []string
}

// SubCancel closes a standing query.
type SubCancel struct{ ID uint64 }

// SubResume re-registers a standing query after a reconnect or failover on
// whichever node the client landed on. It carries the full SubOpen spec —
// any node can recreate the subscription from the frame alone — plus
// AfterCursor, the newest cursor the client holds: delivery continues at
// AfterCursor+1 with fresh drop/expiry tallies, so cursors stay strictly
// increasing across attachments and no acknowledged tick is replayed.
type SubResume struct {
	ID          uint64
	Query       string
	Period      timeseq.Time
	Kind        deadline.Kind
	Deadline    timeseq.Time
	Elapsed     timeseq.Time
	MinUseful   uint64
	Decay       Decay
	Depth       uint64
	AfterCursor uint64
}

// Every message encodes through an AppendTo method that assembles the
// frame directly into the destination buffer — numeric fields via strconv,
// no intermediate field strings — plus an Encode() convenience that
// allocates a fresh one. The byte output is pinned by the golden
// wire-format fixtures: AppendTo(nil) equals the old field-slice encoding
// for every message.

// envelope appends the per-query deadline envelope that Query, SubOpen and
// SubResume share.
func (b *frameBuilder) envelope(kind deadline.Kind, dead, elapsed timeseq.Time, minUseful uint64, decay Decay) {
	b.Uint(uint64(kind))
	b.time(dead)
	b.time(elapsed)
	b.Uint(minUseful)
	b.Uint(uint64(decay.ID))
	b.Uint(decay.Max)
	b.time(decay.Span)
}

// AppendTo appends the encoded frame to dst.
func (m Hello) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindHello)
	b.Str(m.Client)
	return b.finish()
}

// Encode renders the message as one frame.
func (m Hello) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m Welcome) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindWelcome)
	b.Uint(m.Session)
	b.time(m.Chronon)
	b.Uint(m.Epoch)
	b.Uint(uint64(m.Role))
	b.Uint(m.Shards)
	b.Uint(m.Shard)
	return b.finish()
}

// Encode renders the message as one frame.
func (m Welcome) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m Sample) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindSample)
	b.Uint(m.ID)
	b.Str(m.Image)
	b.Str(m.Value)
	return b.finish()
}

// Encode renders the message as one frame.
func (m Sample) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m Query) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindQuery)
	b.Uint(m.ID)
	b.Str(m.Query)
	b.Str(m.Candidate)
	b.envelope(m.Kind, m.Deadline, m.Elapsed, m.MinUseful, m.Decay)
	return b.finish()
}

// Encode renders the message as one frame.
func (m Query) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m Result) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindResult)
	b.Uint(m.ID)
	b.Bool(m.Match)
	b.Uint(m.Useful)
	b.Bool(m.Missed)
	b.Bool(m.Evaluated)
	b.time(m.Issue)
	b.time(m.Served)
	b.Bool(m.ExpiredOnArrival)
	for _, a := range m.Answers {
		b.Str(a)
	}
	return b.finish()
}

// Encode renders the message as one frame.
func (m Result) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m AsOf) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindAsOf)
	b.Uint(m.ID)
	b.Str(m.Image)
	b.time(m.At)
	return b.finish()
}

// Encode renders the message as one frame.
func (m AsOf) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m AsOfResult) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindAsOfResult)
	b.Uint(m.ID)
	b.Bool(m.OK)
	b.Str(m.Value)
	b.time(m.Horizon)
	return b.finish()
}

// Encode renders the message as one frame.
func (m AsOfResult) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m MetricsReq) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindMetricsReq)
	b.Uint(m.ID)
	return b.finish()
}

// Encode renders the message as one frame.
func (m MetricsReq) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m Metrics) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindMetrics)
	b.Uint(m.ID)
	for _, p := range m.Pairs {
		b.Str(p.Name)
		b.Uint(p.Value)
	}
	return b.finish()
}

// Encode renders the message as one frame.
func (m Metrics) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m Flush) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindFlush)
	b.Uint(m.ID)
	return b.finish()
}

// Encode renders the message as one frame.
func (m Flush) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m Flushed) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindFlushed)
	b.Uint(m.ID)
	b.time(m.Chronon)
	return b.finish()
}

// Encode renders the message as one frame.
func (m Flushed) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m Err) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindErr)
	b.Uint(m.ID)
	b.Uint(uint64(m.Code))
	b.Str(m.Msg)
	return b.finish()
}

// Encode renders the message as one frame.
func (m Err) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m Bye) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindBye)
	b.Str(m.Reason)
	return b.finish()
}

// Encode renders the message as one frame.
func (m Bye) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m Subscribe) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindSubscribe)
	b.Uint(m.AfterSeq)
	b.Str(m.Follower)
	return b.finish()
}

// Encode renders the message as one frame.
func (m Subscribe) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m WalBatch) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindWalBatch)
	b.Uint(m.Epoch)
	b.Uint(m.FirstSeq)
	b.Uint(uint64(m.Snap))
	b.Uint(m.SnapSeq)
	b.time(m.SnapLastAt)
	for _, e := range m.Events {
		b.Str(e)
	}
	return b.finish()
}

// Encode renders the message as one frame.
func (m WalBatch) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m WalAck) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindWalAck)
	b.Uint(m.Seq)
	return b.finish()
}

// Encode renders the message as one frame.
func (m WalAck) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m Heartbeat) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindHeartbeat)
	b.Uint(m.Epoch)
	b.time(m.Chronon)
	b.Uint(m.Seq)
	return b.finish()
}

// Encode renders the message as one frame.
func (m Heartbeat) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m PromoteInfo) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindPromoteInfo)
	b.Uint(m.Epoch)
	b.Uint(m.Seq)
	return b.finish()
}

// Encode renders the message as one frame.
func (m PromoteInfo) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m SubOpen) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindSubOpen)
	b.Uint(m.ID)
	b.Str(m.Query)
	b.time(m.Period)
	b.envelope(m.Kind, m.Deadline, m.Elapsed, m.MinUseful, m.Decay)
	b.Uint(m.Depth)
	return b.finish()
}

// Encode renders the message as one frame.
func (m SubOpen) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m SubAck) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindSubAck)
	b.Uint(m.ID)
	b.Uint(uint64(m.State))
	b.Uint(m.Cursor)
	b.time(m.Chronon)
	return b.finish()
}

// Encode renders the message as one frame.
func (m SubAck) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m Push) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindPush)
	b.pushHead(m.ID, m.Cursor, m.Dropped, m.Expired)
	m.tail(&b.RecordWriter)
	return b.finish()
}

// AppendTail appends the part of m's payload that every member of one tick
// shares: the fields from Useful on, each behind its '@', and the record's
// closing '$'. A writer encodes it once per tick and AppendSpliced splices it
// behind each member's own fields.
func (m Push) AppendTail(dst []byte) []byte {
	// The tail follows the head's last field: its separator leads, and the
	// writer's first field writes none.
	w := encoding.RecordWriter{Buf: append(dst, '@')}
	m.tail(&w)
	return w.End()
}

// tail writes the fields AppendTail covers, without the closing '$'.
func (m *Push) tail(w *encoding.RecordWriter) {
	w.Uint(m.Useful)
	w.Bool(m.Missed)
	w.Bool(m.Evaluated)
	w.Bool(m.Degraded)
	w.Uint(uint64(m.Issue))
	w.Uint(uint64(m.Served))
	for _, a := range m.Answers {
		w.Str(a)
	}
}

// AppendSpliced appends the frame AppendTo would when tail is AppendTail of
// a push equal to m from Useful on: only ID, Cursor, Dropped and Expired are
// encoded from m, and the checksum covers the whole payload.
func (m Push) AppendSpliced(dst, tail []byte) []byte {
	b := beginFrame(dst, KindPush)
	b.pushHead(m.ID, m.Cursor, m.Dropped, m.Expired)
	return sealFrame(append(b.Buf, tail...), b.start, KindPush)
}

// pushHead writes the fields that differ between the members of one tick.
func (b *frameBuilder) pushHead(id, cursor, dropped, expired uint64) {
	b.Uint(id)
	b.Uint(cursor)
	b.Uint(dropped)
	b.Uint(expired)
}

// Encode renders the message as one frame.
func (m Push) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m SubCancel) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindSubCancel)
	b.Uint(m.ID)
	return b.finish()
}

// Encode renders the message as one frame.
func (m SubCancel) Encode() []byte { return m.AppendTo(nil) }

// AppendTo appends the encoded frame to dst.
func (m SubResume) AppendTo(dst []byte) []byte {
	b := beginFrame(dst, KindSubResume)
	b.Uint(m.ID)
	b.Str(m.Query)
	b.time(m.Period)
	b.envelope(m.Kind, m.Deadline, m.Elapsed, m.MinUseful, m.Decay)
	b.Uint(m.Depth)
	b.Uint(m.AfterCursor)
	return b.finish()
}

// Encode renders the message as one frame.
func (m SubResume) Encode() []byte { return m.AppendTo(nil) }
