// Package log is the durability layer of the rtdbd serving subsystem: an
// append-only timed event log (write-ahead log) of the §5.1 database's
// observable history — catalog definitions, sensor samples, rule firings and
// query issues — stored as length-prefixed CRC32-checked binary records,
// with segment rotation, periodic catalog snapshots, and replay-based crash
// recovery that truncates a torn tail and reconstructs identical in-memory
// state.
//
// The record payload reuses the enc(·) idiom of internal/encoding: a record
// is the byte rendering of the $f1@f2@…@fk$ symbol encoding (delimiters
// outside every payload, §5.1.1), so the same escaping discipline that keeps
// recognition words parseable keeps log records parseable. Framing adds
// what a disk needs and a tape does not: an explicit length and a checksum.
// encoding.Record/ParseRecord define those bytes; this package writes and
// reads them in one pass over a byte buffer (AppendEvent, decodeEvent) and
// is fuzzed against the definition (FuzzEventCodecDifferential).
package log

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"rtc/internal/encoding"
	"rtc/internal/timeseq"
)

// Kind tags one log record.
type Kind uint8

const (
	// KindInvariant defines an invariant object (catalog).
	KindInvariant Kind = iota
	// KindImage defines an image object and its sampling period (catalog).
	KindImage
	// KindDerived defines a derived object and its sources (catalog).
	KindDerived
	// KindSample is one sensor sample for an image object.
	KindSample
	// KindFiring is one active-rule firing.
	KindFiring
	// KindQuery is one query issue (aperiodic or one periodic invocation).
	KindQuery
)

// kindTags holds each Kind's one-byte record tag at the Kind's index.
const kindTags = "VIDSFQ"

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindTags) {
		return kindTags[k : k+1]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one entry of the timed event log. Name is the object, rule, or
// query name; Value is the sample value, invariant value, or query
// candidate; Args carries kind-specific extras (a derived object's sources,
// a query's deadline envelope).
type Event struct {
	Kind  Kind
	At    timeseq.Time
	Name  string
	Value string
	Args  []string
}

// Invariant builds a catalog record for an invariant object.
func Invariant(name, value string) Event {
	return Event{Kind: KindInvariant, Name: name, Value: value}
}

// Image builds a catalog record for an image object.
func Image(name string, period timeseq.Time) Event {
	return Event{Kind: KindImage, Name: name, Args: []string{encoding.FieldUint(uint64(period))}}
}

// Derived builds a catalog record for a derived object.
func Derived(name string, sources ...string) Event {
	return Event{Kind: KindDerived, Name: name, Args: sources}
}

// Sample builds a timed sample record.
func Sample(at timeseq.Time, image, value string) Event {
	return Event{Kind: KindSample, At: at, Name: image, Value: value}
}

// Firing builds a timed rule-firing record.
func Firing(at timeseq.Time, rule string) Event {
	return Event{Kind: KindFiring, At: at, Name: rule}
}

// Query builds a timed query-issue record. The args encode the §4.1
// deadline envelope: session, deadline kind, relative deadline, minimum
// usefulness.
func Query(at timeseq.Time, session, query, candidate string, kind, dead, minUseful uint64) Event {
	return Event{Kind: KindQuery, At: at, Name: query, Value: candidate, Args: []string{
		session,
		encoding.FieldUint(kind),
		encoding.FieldUint(dead),
		encoding.FieldUint(minUseful),
	}}
}

// frameHeaderSize is the per-record overhead: payload length and CRC32,
// both little-endian uint32.
const frameHeaderSize = 8

// maxPayload bounds a single record; longer payloads indicate a bug or a
// corrupt length field during replay.
const maxPayload = 1 << 24

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frame is one record under construction inside a caller's buffer: the
// header is reserved first, the record's fields are rendered behind it by
// the shared encoding.RecordWriter, and finish patches length and CRC in —
// | len | crc | String(Record(fields...)) | without the payload ever
// existing on its own.
type frame struct {
	encoding.RecordWriter
	start int
}

func beginFrame(dst []byte) frame {
	start := len(dst)
	var hdr [frameHeaderSize]byte
	return frame{RecordWriter: encoding.BeginRecord(append(dst, hdr[:]...)), start: start}
}

func (f *frame) finish() []byte { return sealFrame(f.End(), f.start) }

// sealFrame patches length and CRC into the header reserved at buf[start:],
// covering everything behind it.
func sealFrame(buf []byte, start int) []byte {
	payload := buf[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// appendFrame frames a payload as shipped, byte for byte.
func appendFrame(dst []byte, payload string) []byte {
	var hdr [frameHeaderSize]byte
	return sealFrame(append(append(dst, hdr[:]...), payload...), len(dst))
}

// AppendEvent appends the framed record | len | crc | payload | of one
// event to dst, the payload's fields being its kind tag, time, name, value
// and args. Into a buffer with room it allocates nothing.
func AppendEvent(dst []byte, e Event) []byte {
	f := beginFrame(dst)
	f.Str(e.Kind.String())
	f.Uint(uint64(e.At))
	f.Str(e.Name)
	f.Str(e.Value)
	for _, a := range e.Args {
		f.Str(a)
	}
	return f.finish()
}

// EncodeEvent frames one event into a fresh buffer.
func EncodeEvent(e Event) []byte { return AppendEvent(nil, e) }

// Payload renders the event as its raw record payload: the bytes the WAL
// frames, minus the frame header.
func (e Event) Payload() []byte { return AppendEvent(nil, e)[frameHeaderSize:] }

// appendControl appends the frame of a non-event record — the snapshot
// header and commit trailer, the epoch file — of the form $TAG@n1@…@nk$.
func appendControl(dst []byte, tag string, vals ...uint64) []byte {
	f := beginFrame(dst)
	f.Str(tag)
	for _, v := range vals {
		f.Uint(v)
	}
	return f.finish()
}

// control inverts appendControl: it reports whether payload is exactly the
// tag followed by len(vals) decimal fields, and fills vals in.
func control(payload []byte, tag string, vals []uint64) bool {
	sc := encoding.Scan(payload)
	raw, escaped, ok := sc.Next()
	if !ok || encoding.FieldString(raw, escaped) != tag {
		return false
	}
	for i := range vals {
		raw, escaped, ok := sc.Next()
		v, err := encoding.ParseUint(encoding.FieldString(raw, escaped))
		if !ok || err != nil {
			return false
		}
		vals[i] = v
	}
	_, _, more := sc.Next()
	return !more && !sc.Bad()
}

// errTorn reports a record that is structurally damaged — short header,
// short payload, impossible length, or checksum mismatch. During replay a
// torn record at the tail of the last segment is the expected signature of
// a crash mid-append and is truncated away; anywhere else it is corruption.
var errTorn = fmt.Errorf("log: torn record")

// ReadFrame reads one framed payload from r into *buf, growing it as
// needed: the returned payload aliases *buf and is valid until the next
// call, so a replay loop reads every frame of a segment through one buffer
// (a nil buf reads into a fresh one). When r is a *bufio.Reader whose buffer
// holds the whole frame, the payload is checked and returned in place — it
// aliases the reader's buffer instead, valid until the next read from r —
// and nothing is copied. It returns the payload and the number of bytes
// consumed. io.EOF signals a clean end; errTorn a damaged record.
func ReadFrame(r io.Reader, buf *[]byte) (payload []byte, n int, err error) {
	if br, ok := r.(*bufio.Reader); ok {
		// Anything but an intact frame that fits — short input, an
		// oversized or damaged one — takes the copying path below, which
		// alone decides what a bad frame consumed.
		if hdr, _ := br.Peek(frameHeaderSize); len(hdr) == frameHeaderSize {
			length := binary.LittleEndian.Uint32(hdr[0:4])
			sum := binary.LittleEndian.Uint32(hdr[4:8])
			if size := frameHeaderSize + int64(length); size <= int64(br.Size()) {
				fr, _ := br.Peek(int(size))
				if len(fr) == int(size) && crc32.Checksum(fr[frameHeaderSize:], crcTable) == sum {
					br.Discard(int(size))
					return fr[frameHeaderSize:], int(size), nil
				}
			}
		}
	}
	if buf == nil {
		buf = new([]byte)
	}
	// The header passes through the same buffer: a local array would
	// escape through the io.Reader and cost an allocation per frame.
	if cap(*buf) < frameHeaderSize {
		*buf = make([]byte, frameHeaderSize, 256)
	}
	hdr := (*buf)[:frameHeaderSize]
	got, err := io.ReadFull(r, hdr)
	if err == io.EOF {
		return nil, 0, io.EOF
	}
	if err != nil {
		return nil, got, errTorn
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > maxPayload {
		return nil, frameHeaderSize, errTorn
	}
	if uint32(cap(*buf)) < length {
		*buf = make([]byte, length)
	}
	payload = (*buf)[:length]
	got, err = io.ReadFull(r, payload)
	if err != nil {
		return nil, frameHeaderSize + got, errTorn
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, frameHeaderSize + int(length), errTorn
	}
	return payload, frameHeaderSize + int(length), nil
}

// ContainsFrame reports whether any alignment of b parses as a complete
// CRC-valid, non-empty frame. Recovery uses it to tell a torn tail (one
// partial record, nothing intact after it) from mid-segment corruption
// (damage with committed records behind it). The CRC makes a false positive
// on genuinely torn bytes a ~2^-32 event.
func ContainsFrame(b []byte) bool {
	for i := 0; i+frameHeaderSize <= len(b); i++ {
		length := binary.LittleEndian.Uint32(b[i : i+4])
		if length == 0 || length > maxPayload || i+frameHeaderSize+int(length) > len(b) {
			continue
		}
		sum := binary.LittleEndian.Uint32(b[i+4 : i+8])
		if crc32.Checksum(b[i+frameHeaderSize:i+frameHeaderSize+int(length)], crcTable) == sum {
			return true
		}
	}
	return false
}

// DecodeEvent parses one record payload, held as bytes or as a string, back
// into an Event. It accepts exactly the payloads that tokenize and
// ParseRecord into at least four fields with a known kind tag and a
// decimal time.
func DecodeEvent[T encoding.Bytes](payload T) (Event, bool) {
	return decodeEvent(payload, nil)
}

// decodeEvent is DecodeEvent with interning: a sample's Name found in names
// is taken from there instead of being allocated, so a sample replayed from
// a segment costs one string, its value. Recovery registers each image name
// as its catalog record goes by. A snapshot's plain samples do not come here
// at all: loadSnapshot takes them a run at a time, one string per run.
func decodeEvent[T encoding.Bytes](payload T, names map[string]string) (Event, bool) {
	sc := encoding.Scan(payload)
	tag, esc0, ok0 := sc.Next()
	at, esc1, ok1 := sc.Next()
	name, esc2, ok2 := sc.Next()
	value, esc3, ok3 := sc.Next()
	if !(ok0 && ok1 && ok2 && ok3) {
		return Event{}, false
	}
	if esc0 || esc1 {
		// Never written by this encoder, but %-pairs are legal anywhere in
		// a record: "%S" is the tag S and "%1%2" the time 12.
		tag, at = T(encoding.FieldString(tag, esc0)), T(encoding.FieldString(at, esc1))
	}
	kind := -1
	if len(tag) == 1 {
		kind = strings.IndexByte(kindTags, tag[0])
	}
	t, err := encoding.ParseUint(at)
	if kind < 0 || err != nil {
		return Event{}, false
	}
	e := Event{Kind: Kind(kind), At: timeseq.Time(t)}
	if e.Kind == KindSample && !esc2 {
		e.Name = names[string(name)]
	}
	if e.Name == "" {
		e.Name = encoding.FieldString(name, esc2)
	}
	e.Value = encoding.FieldString(value, esc3)
	if n := sc.MaxFields(); n > 0 {
		e.Args = make([]string, 0, n)
		for {
			raw, esc, ok := sc.Next()
			if !ok {
				break
			}
			e.Args = append(e.Args, encoding.FieldString(raw, esc))
		}
	}
	if sc.Bad() {
		return Event{}, false
	}
	return e, true
}
