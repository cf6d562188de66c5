// Package rtwire is the wire protocol of the rtdbd serving subsystem: a
// length-prefixed, CRC32C-framed binary protocol carrying timed samples,
// aperiodic queries under the §4.1 deadline discipline, temporal as-of
// reads, and metrics snapshots between a client and an rtdbd server.
//
// Each connection is one timed word: the client's frames are its timed
// input events, arriving in FIFO order at the server's acceptor, exactly
// like the merged words the paper's machine consumes. Frame payloads reuse
// the enc(·) record idiom of internal/encoding — the byte rendering of the
// $f1@f2@…@fk$ symbol encoding, delimiters outside every payload (§5.1.1) —
// so the escaping discipline that keeps recognition words parseable keeps
// wire frames parseable. Framing adds what a network needs and a tape does
// not: a magic byte, an explicit protocol version, a frame kind, a payload
// length, and a Castagnoli CRC.
//
// Deadlines travel with the query and are client-relative: the wire carries
// the relative deadline plus the chronons the client has already consumed
// (queueing, retries); the server anchors the remainder at the arrival
// chronon. Keeping client-relative and server-absolute time straight this
// way follows the time-modeling survey's advice (PAPERS.md) and makes
// "expired on arrival" a property the server can decide without any clock
// agreement.
package rtwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"

	"rtc/internal/encoding"
	"rtc/internal/timeseq"
)

const (
	// Magic is the first byte of every frame; a misdialed port fails fast.
	Magic byte = 'R'
	// Version is the protocol version carried in every frame header. The
	// golden wire-format tests pin the byte layout of every frame kind to
	// this number: changing an encoding without bumping Version fails the
	// suite, so protocol breaks are deliberate.
	//
	// Version 2 added the replication frames (Subscribe, WalBatch, WalAck,
	// Heartbeat, PromoteInfo) and the fencing epoch + role in Welcome.
	//
	// Version 3 added the standing-query subscription frames (SubOpen,
	// SubAck, Push, SubCancel, SubResume). A v2 decoder rejects every v3
	// frame with ErrVersion before looking at the kind byte, and the CRC
	// covers the version byte, so no frame can be replayed across versions.
	//
	// Version 4 added keyspace sharding placement to Welcome: Shards (the
	// deployment's shard count) and Shard (the answering listener's shard
	// index), so a client computes object placement locally with ShardOf
	// and routes each frame straight to the owning shard. A v3 decoder
	// rejects every v4 frame with ErrVersion, and vice versa.
	Version byte = 4
	// HeaderSize is the fixed frame overhead:
	// | magic 1 | version 1 | kind 1 | len u32 LE | crc32c u32 LE |.
	HeaderSize = 11
	// MaxPayload bounds one frame; longer lengths indicate a corrupt or
	// hostile length prefix and are rejected before any allocation.
	MaxPayload = 1 << 20
)

// Kind tags one frame.
type Kind uint8

const (
	// KindHello opens a connection (client → server).
	KindHello Kind = iota + 1
	// KindWelcome acknowledges a Hello with the session id and the server
	// chronon at accept (server → client).
	KindWelcome
	// KindSample injects one timed sensor sample (client → server). It is
	// fire-and-forget; a full session queue comes back as a KindErr frame
	// with CodeBackpressure.
	KindSample
	// KindQuery issues one aperiodic query with its deadline envelope
	// (client → server).
	KindQuery
	// KindResult answers a KindQuery (server → client).
	KindResult
	// KindAsOf issues a temporal read against the published history
	// (client → server).
	KindAsOf
	// KindAsOfResult answers a KindAsOf (server → client).
	KindAsOfResult
	// KindMetricsReq requests a metrics snapshot (client → server).
	KindMetricsReq
	// KindMetrics answers a KindMetricsReq with name/value pairs
	// (server → client).
	KindMetrics
	// KindFlush asks the server to apply everything this connection
	// submitted before it (client → server).
	KindFlush
	// KindFlushed answers a KindFlush (server → client).
	KindFlushed
	// KindErr reports a per-request error (server → client).
	KindErr
	// KindBye announces an orderly close (either direction).
	KindBye
	// KindSubscribe switches a connection into WAL-follower mode: the
	// server streams every log event after AfterSeq (follower → primary).
	KindSubscribe
	// KindWalBatch carries a contiguous run of WAL events (primary →
	// follower), as the primary framed them.
	KindWalBatch
	// KindWalAck acknowledges application of events through Seq
	// (follower → primary); it opens the primary's send window.
	KindWalAck
	// KindHeartbeat is the liveness beacon a client (a follower too) sends
	// on an idle connection and the server echoes, so a silently dead peer
	// is detected within HeartbeatInterval×3 instead of a call timeout.
	KindHeartbeat
	// KindPromoteInfo announces a promotion (standby → its read clients):
	// the sender is now primary at Epoch, with its log at Seq.
	KindPromoteInfo
	// KindSubOpen registers a standing periodic query: the server evaluates
	// it every Period chronons and pushes stamped results (client → server).
	KindSubOpen
	// KindSubAck answers a KindSubOpen/KindSubResume/KindSubCancel with the
	// subscription's admission state and cursor base (server → client).
	KindSubAck
	// KindPush carries one stamped tick result of a standing query, with the
	// monotone per-subscription cursor and the cumulative drop/expiry
	// counters that let the client audit delivery (server → client).
	KindPush
	// KindSubCancel closes a standing query (client → server).
	KindSubCancel
	// KindSubResume re-registers a standing query after a reconnect or
	// failover, continuing the cursor after AfterCursor (client → server).
	KindSubResume
)

var kindNames = map[Kind]string{
	KindHello: "hello", KindWelcome: "welcome",
	KindSample: "sample", KindQuery: "query", KindResult: "result",
	KindAsOf: "asof", KindAsOfResult: "asof_result",
	KindMetricsReq: "metrics_req", KindMetrics: "metrics",
	KindFlush: "flush", KindFlushed: "flushed",
	KindErr: "err", KindBye: "bye",
	KindSubscribe: "subscribe", KindWalBatch: "wal_batch", KindWalAck: "wal_ack",
	KindHeartbeat: "heartbeat", KindPromoteInfo: "promote_info",
	KindSubOpen: "sub_open", KindSubAck: "sub_ack", KindPush: "push",
	KindSubCancel: "sub_cancel", KindSubResume: "sub_resume",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Decode errors. ReadFrame and DecodeFrame never panic on hostile input;
// they classify the damage instead.
var (
	ErrBadMagic  = errors.New("rtwire: bad magic byte")
	ErrVersion   = errors.New("rtwire: protocol version mismatch")
	ErrBadKind   = errors.New("rtwire: unknown frame kind")
	ErrTooLong   = errors.New("rtwire: frame length exceeds MaxPayload")
	ErrChecksum  = errors.New("rtwire: frame checksum mismatch")
	ErrTruncated = errors.New("rtwire: truncated frame")
	// ErrBadPayload reports a CRC-valid frame whose payload does not parse
	// as the record encoding its kind requires.
	ErrBadPayload = errors.New("rtwire: malformed frame payload")
)

// IsProtocolError reports damage to the frame stream itself — a reader
// that sees one must reset the connection, because frame boundaries are
// lost. I/O errors (timeouts, resets, EOF) are not protocol errors.
func IsProtocolError(err error) bool {
	return IsCorruptFrame(err) || errors.Is(err, ErrTruncated)
}

// IsCorruptFrame reports byte damage inside a delivered frame — flipped
// or desynced bytes that CRC/structure checks caught — as opposed to
// ErrTruncated, which is a connection cut mid-frame, not damage.
func IsCorruptFrame(err error) bool {
	return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrVersion) ||
		errors.Is(err, ErrBadKind) || errors.Is(err, ErrTooLong) ||
		errors.Is(err, ErrChecksum)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcSeeds[k] is the CRC of the two bytes {Version, k}, computed once: every
// frame's checksum continues from its kind's seed.
var crcSeeds = func() (seeds [256]uint32) {
	for k := range seeds {
		seeds[k] = crc32.Checksum([]byte{Version, byte(k)}, crcTable)
	}
	return seeds
}()

// checksum covers the version and kind bytes as well as the payload, so a
// frame cannot be replayed as a different kind or protocol version.
func checksum(kind Kind, payload []byte) uint32 {
	return crc32.Update(crcSeeds[kind], crcTable, payload)
}

// Frame is one decoded frame.
type Frame struct {
	Kind    Kind
	Payload []byte
}

// frameBuilder assembles one record-payload frame in place: the header is
// reserved up front, fields append directly into the destination buffer
// through the shared encoding.RecordWriter (numbers via strconv, never
// through intermediate strings), and finish patches the length and CRC. The
// byte output is the header followed by the rendering of
// encoding.Record(fields...) — the golden wire-format fixtures pin it.
type frameBuilder struct {
	encoding.RecordWriter
	start int
	kind  Kind
}

// beginFrame starts a frame of the given kind appended to dst.
func beginFrame(dst []byte, kind Kind) frameBuilder {
	start := len(dst)
	var hdr [HeaderSize]byte
	dst = append(dst, hdr[:]...)
	return frameBuilder{RecordWriter: encoding.BeginRecord(dst), start: start, kind: kind}
}

// time appends one chronon field.
func (b *frameBuilder) time(v timeseq.Time) { b.Uint(uint64(v)) }

// finish closes the record and fills in the reserved header.
func (b *frameBuilder) finish() []byte {
	return sealFrame(b.End(), b.start, b.kind)
}

// sealFrame fills in the header reserved at buf[start:] over the closed
// record behind it.
func sealFrame(buf []byte, start int, kind Kind) []byte {
	hdr := buf[start:]
	payload := buf[start+HeaderSize:]
	hdr[0] = Magic
	hdr[1] = Version
	hdr[2] = byte(kind)
	binary.LittleEndian.PutUint32(hdr[3:7], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[7:11], checksum(kind, payload))
	return buf
}

// ReadFrame reads one frame from r. io.EOF signals a clean end between
// frames; mid-frame truncation comes back as ErrTruncated. An I/O error
// with no frame bytes consumed (a read timeout between frames, a closed
// socket) is returned as-is so transports can tell liveness failures from
// protocol damage.
func ReadFrame(r io.Reader) (Frame, error) {
	var buf []byte
	return ReadFrameBuf(r, &buf)
}

// ReadFrameBuf is ReadFrame with a caller-owned buffer: *buf is grown as
// needed and the returned Frame's Payload aliases it, valid only until the
// next call. Decoded field strings are copies, so a transport can reuse one
// buffer for every frame on a connection. The header passes through the
// same buffer (a local array would escape through the io.Reader), so once
// *buf fits the largest payload seen, reading a frame allocates nothing —
// TestAllocGates pins it.
func ReadFrameBuf(r io.Reader, buf *[]byte) (Frame, error) {
	if cap(*buf) < HeaderSize {
		*buf = make([]byte, HeaderSize, 256)
	}
	hdr := (*buf)[:HeaderSize]
	if n, err := io.ReadFull(r, hdr); err != nil {
		if n == 0 {
			return Frame{}, err
		}
		return Frame{}, ErrTruncated
	}
	f, err := decodeHeader(hdr)
	if err != nil {
		return Frame{}, err
	}
	// The payload overwrites the header bytes: take what is needed first.
	length := int(binary.LittleEndian.Uint32(hdr[3:7]))
	sum := binary.LittleEndian.Uint32(hdr[7:11])
	if cap(*buf) < length {
		*buf = make([]byte, length)
	}
	f.Payload = (*buf)[:length]
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return Frame{}, ErrTruncated
	}
	if checksum(f.Kind, f.Payload) != sum {
		return Frame{}, ErrChecksum
	}
	return f, nil
}

// SilenceReader bounds a connection's inbound silence per frame, at either
// end of a link. It sits under the connection's bufio.Reader, and the read
// loop calls Next before each frame: the frame's first socket read starts the
// clock, and every read until it is whole shares that deadline, armed once
// per socket read. The owner's work between frames never counts against its
// peer, and bytes trickling in behind a frame that never completes (a length
// corrupted upward) do not hold the link open. Bound 0 passes reads through.
//
// It checks quit and interrupted after arming, never before: Close closes
// quit, and interruptRead closes interrupted, before interrupting the read
// with a deadline of their own, so either this check sees the channel or the
// interrupt lands on the deadline armed here — a re-arm can never overwrite
// it. (Check is that hook, nil for none; netserve's reports its channels.)
type SilenceReader struct {
	Conn  net.Conn
	Bound time.Duration
	Check func() error
	start atomic.Int64 // unix-nano start of the current frame's wait; 0 until its first read
	cut   bool         // the newest read ended at the bound
}

// Next marks a frame boundary: the next socket read starts a fresh clock.
func (r *SilenceReader) Next() { r.start.Store(0) }

// Cut reports whether the newest read ended at the silence bound.
func (r *SilenceReader) Cut() bool { return r.cut }

// Waited is how long the reader has waited for the frame it is reading: zero
// before that frame's first read, or for a nil reader. Safe from any goroutine.
func (r *SilenceReader) Waited() time.Duration {
	if r == nil {
		return 0
	}
	if s := r.start.Load(); s != 0 {
		return time.Since(time.Unix(0, s))
	}
	return 0
}

func (r *SilenceReader) Read(p []byte) (int, error) {
	if r.Bound > 0 {
		start := r.start.Load()
		if start == 0 {
			start = time.Now().UnixNano()
			r.start.Store(start)
		}
		_ = r.Conn.SetReadDeadline(time.Unix(0, start).Add(r.Bound))
		if r.Check != nil {
			if err := r.Check(); err != nil {
				return 0, err
			}
		}
	}
	n, err := r.Conn.Read(p)
	r.cut = errors.Is(err, os.ErrDeadlineExceeded)
	return n, err
}

// DecodeFrame decodes one frame from the front of b, returning the frame
// and the number of bytes consumed. The fuzzers drive it with hostile
// images: malformed length prefixes and truncated frames must classify,
// never panic or over-allocate.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < HeaderSize {
		return Frame{}, 0, ErrTruncated
	}
	f, err := decodeHeader(b)
	if err != nil {
		return Frame{}, 0, err
	}
	length := int(binary.LittleEndian.Uint32(b[3:7]))
	if len(b) < HeaderSize+length {
		return Frame{}, 0, ErrTruncated
	}
	f.Payload = b[HeaderSize : HeaderSize+length]
	if checksum(f.Kind, f.Payload) != binary.LittleEndian.Uint32(b[7:11]) {
		return Frame{}, 0, ErrChecksum
	}
	return f, HeaderSize + length, nil
}

// decodeHeader validates everything the header alone (hdr's first HeaderSize
// bytes) can prove wrong. The kinds are one contiguous range.
func decodeHeader(hdr []byte) (Frame, error) {
	if hdr[0] != Magic {
		return Frame{}, ErrBadMagic
	}
	if hdr[1] != Version {
		return Frame{}, ErrVersion
	}
	kind := Kind(hdr[2])
	if kind < KindHello || kind > KindSubResume {
		return Frame{}, ErrBadKind
	}
	if binary.LittleEndian.Uint32(hdr[3:7]) > MaxPayload {
		return Frame{}, ErrTooLong
	}
	return Frame{Kind: kind}, nil
}
