package rtwire

import (
	"fmt"
	"math"

	"rtc/internal/deadline"
	"rtc/internal/encoding"
	"rtc/internal/timeseq"
)

// Decoding is one pass over the payload bytes: numeric and boolean fields
// are parsed where they lie (a plain one while it is scanned,
// encoding.Scanner.Uint and Bool) and only the strings a message keeps are
// materialised. Every kind has a typed decoder returning the message by
// value, so a transport that switches on Frame.Kind decodes into a stack
// variable; Decode boxes the same decoders. The whole payload must be a
// well-formed record even behind the last field a message reads, each kind
// needs its minimum field count and ignores extras, numbers follow
// strconv.ParseUint and enums are range-checked — exactly what splitting
// the payload into a field slice first accepted (FuzzDecodeDifferential).

// fieldReader reads one frame's payload field by field. A missing field, a
// field that fails its type or a frame of another kind sets bad and reads
// as zero; the decoder reads on regardless and end reports the damage.
type fieldReader struct {
	sc   encoding.Scanner[[]byte]
	kind Kind
	n    int // fields consumed
	bad  bool
}

func readFields(f Frame, want Kind) fieldReader {
	return fieldReader{sc: encoding.Scan(f.Payload), kind: f.Kind, bad: f.Kind != want}
}

// scalar returns the next field's decoded bytes for a numeric or boolean
// parse; nil when the record has no more fields.
func (r *fieldReader) scalar() []byte {
	raw, escaped, ok := r.sc.Next()
	if !ok {
		return nil
	}
	r.n++
	if escaped {
		// Never written by these encoders, but %-pairs are legal anywhere
		// in a record: "%1%2" is the number 12.
		raw = encoding.AppendUnescaped(nil, raw)
	}
	return raw
}

// upTo reads a number that must not exceed max (an enum's last value). A
// field of plain digits is parsed as it is scanned; any other goes through
// scalar and ParseUint, which decide it exactly as before.
func (r *fieldReader) upTo(max uint64) uint64 {
	v, ok := r.sc.Uint()
	if ok {
		r.n++
	} else {
		var err error
		if v, err = encoding.ParseUint(r.scalar()); err != nil {
			r.bad = true
		}
	}
	if v > max {
		r.bad = true
	}
	return v
}

func (r *fieldReader) uint() uint64 { return r.upTo(math.MaxUint64) }

func (r *fieldReader) time() timeseq.Time { return timeseq.Time(r.uint()) }

func (r *fieldReader) bool() bool {
	if v, ok := r.sc.Bool(); ok {
		r.n++
		return v
	}
	s := r.scalar()
	if len(s) != 1 || (s[0] != '0' && s[0] != '1') {
		r.bad = true
		return false
	}
	return s[0] == '1'
}

// next returns the next field as a string; false when none remain. When
// lookup (if any) resolves the field's bytes, the string is the one it
// returns and nothing is allocated; an escaped field is never looked up.
func (r *fieldReader) next(lookup func([]byte) (string, bool)) (string, bool) {
	raw, escaped, ok := r.sc.Next()
	if !ok {
		return "", false
	}
	r.n++
	if lookup != nil && !escaped {
		if s, ok := lookup(raw); ok {
			return s, true
		}
	}
	return encoding.FieldString(raw, escaped), true
}

func (r *fieldReader) str() string { return r.known(nil) }

// known reads a required string field through lookup, as next does.
func (r *fieldReader) known(lookup func([]byte) (string, bool)) string {
	s, ok := r.next(lookup)
	if !ok {
		r.bad = true
	}
	return s
}

// strs reads every remaining field as a string; nil when none remain.
func (r *fieldReader) strs() []string {
	n := r.sc.MaxFields()
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for s, ok := r.next(nil); ok; s, ok = r.next(nil) {
		out = append(out, s)
	}
	return out
}

// shared reads every remaining field like strs, but returns the first of
// recent that the fields equal byte for byte, in order and in number, and
// allocates nothing. An escaped field never matches: it decodes fresh.
func (r *fieldReader) shared(recent [][]string) []string {
	for _, set := range recent {
		if len(set) == 0 {
			continue
		}
		sc, n := r.sc, 0 // look ahead on a copy
		for raw, escaped, ok := sc.Next(); ok; raw, escaped, ok = sc.Next() {
			if escaped || n == len(set) || string(raw) != set[n] {
				n = -1
				break
			}
			n++
		}
		if n == len(set) && !sc.Bad() {
			r.sc, r.n = sc, r.n+n
			return set
		}
	}
	return r.strs()
}

// decay reads the three fields of a usefulness-decay shape.
func (r *fieldReader) decay() Decay {
	return Decay{ID: DecayID(r.upTo(uint64(DecayLinear))), Max: r.uint(), Span: r.time()}
}

// end scans whatever the decoder did not read — extra fields are ignored
// but must still be well-formed — and reports the frame's damage, if any.
func (r *fieldReader) end() error {
	for {
		if _, _, ok := r.sc.Next(); !ok {
			break
		}
		r.n++
	}
	if r.sc.Bad() {
		return ErrBadPayload
	}
	if r.bad {
		return fmt.Errorf("%w: %s frame with %d fields", ErrBadPayload, r.kind, r.n)
	}
	return nil
}

// DecodeHello decodes a KindHello frame.
func DecodeHello(f Frame) (m Hello, err error) {
	r := readFields(f, KindHello)
	m.Client = r.str()
	return m, r.end()
}

// DecodeWelcome decodes a KindWelcome frame.
func DecodeWelcome(f Frame) (m Welcome, err error) {
	r := readFields(f, KindWelcome)
	m.Session, m.Chronon, m.Epoch = r.uint(), r.time(), r.uint()
	m.Role = Role(r.upTo(uint64(RoleStandby)))
	m.Shards, m.Shard = r.uint(), r.uint()
	if m.Shards > 0 && m.Shard >= m.Shards {
		r.bad = true
	}
	return m, r.end()
}

// DecodeSample decodes a KindSample frame. images, if not nil, resolves the
// image field's bytes to a string the caller holds (a server's catalog
// name); a name it does not resolve, or an escaped one, decodes fresh.
func DecodeSample(f Frame, images func([]byte) (string, bool)) (m Sample, err error) {
	r := readFields(f, KindSample)
	m.ID, m.Image, m.Value = r.uint(), r.known(images), r.str()
	return m, r.end()
}

// DecodeQuery decodes a KindQuery frame.
func DecodeQuery(f Frame) (m Query, err error) {
	r := readFields(f, KindQuery)
	m.ID, m.Query, m.Candidate = r.uint(), r.str(), r.str()
	m.Kind = deadline.Kind(r.upTo(uint64(deadline.Soft)))
	m.Deadline, m.Elapsed, m.MinUseful = r.time(), r.time(), r.uint()
	m.Decay = r.decay()
	return m, r.end()
}

// DecodeResult decodes a KindResult frame.
func DecodeResult(f Frame) (m Result, err error) {
	r := readFields(f, KindResult)
	m.ID, m.Match, m.Useful = r.uint(), r.bool(), r.uint()
	m.Missed, m.Evaluated = r.bool(), r.bool()
	m.Issue, m.Served = r.time(), r.time()
	m.ExpiredOnArrival = r.bool()
	m.Answers = r.strs()
	return m, r.end()
}

// DecodeAsOf decodes a KindAsOf frame.
func DecodeAsOf(f Frame) (m AsOf, err error) {
	r := readFields(f, KindAsOf)
	m.ID, m.Image, m.At = r.uint(), r.str(), r.time()
	return m, r.end()
}

// DecodeAsOfResult decodes a KindAsOfResult frame.
func DecodeAsOfResult(f Frame) (m AsOfResult, err error) {
	r := readFields(f, KindAsOfResult)
	m.ID, m.OK, m.Value, m.Horizon = r.uint(), r.bool(), r.str(), r.time()
	return m, r.end()
}

// DecodeMetricsReq decodes a KindMetricsReq frame.
func DecodeMetricsReq(f Frame) (m MetricsReq, err error) {
	r := readFields(f, KindMetricsReq)
	m.ID = r.uint()
	return m, r.end()
}

// DecodeMetrics decodes a KindMetrics frame: an id, then name/value pairs.
func DecodeMetrics(f Frame) (m Metrics, err error) {
	r := readFields(f, KindMetrics)
	m.ID = r.uint()
	for name, ok := r.next(nil); ok; name, ok = r.next(nil) {
		// A name without its value reads as a missing number: bad.
		m.Pairs = append(m.Pairs, MetricPair{Name: name, Value: r.uint()})
	}
	return m, r.end()
}

// DecodeFlush decodes a KindFlush frame.
func DecodeFlush(f Frame) (m Flush, err error) {
	r := readFields(f, KindFlush)
	m.ID = r.uint()
	return m, r.end()
}

// DecodeFlushed decodes a KindFlushed frame.
func DecodeFlushed(f Frame) (m Flushed, err error) {
	r := readFields(f, KindFlushed)
	m.ID, m.Chronon = r.uint(), r.time()
	return m, r.end()
}

// DecodeErr decodes a KindErr frame. Codes are not range-checked: a newer
// peer's code prints as ErrCode(n).
func DecodeErr(f Frame) (m Err, err error) {
	r := readFields(f, KindErr)
	m.ID, m.Code, m.Msg = r.uint(), ErrCode(r.uint()), r.str()
	return m, r.end()
}

// DecodeBye decodes a KindBye frame.
func DecodeBye(f Frame) (m Bye, err error) {
	r := readFields(f, KindBye)
	m.Reason = r.str()
	return m, r.end()
}

// DecodeSubscribe decodes a KindSubscribe frame.
func DecodeSubscribe(f Frame) (m Subscribe, err error) {
	r := readFields(f, KindSubscribe)
	m.AfterSeq, m.Follower = r.uint(), r.str()
	return m, r.end()
}

// DecodeWalBatch decodes a KindWalBatch frame.
func DecodeWalBatch(f Frame) (m WalBatch, err error) {
	r := readFields(f, KindWalBatch)
	m.Epoch, m.FirstSeq = r.uint(), r.uint()
	m.Snap = uint8(r.upTo(uint64(SnapFinal)))
	m.SnapSeq, m.SnapLastAt = r.uint(), r.time()
	m.Events = r.strs()
	return m, r.end()
}

// DecodeWalAck decodes a KindWalAck frame.
func DecodeWalAck(f Frame) (m WalAck, err error) {
	r := readFields(f, KindWalAck)
	m.Seq = r.uint()
	return m, r.end()
}

// DecodeHeartbeat decodes a KindHeartbeat frame.
func DecodeHeartbeat(f Frame) (m Heartbeat, err error) {
	r := readFields(f, KindHeartbeat)
	m.Epoch, m.Chronon, m.Seq = r.uint(), r.time(), r.uint()
	return m, r.end()
}

// DecodePromoteInfo decodes a KindPromoteInfo frame.
func DecodePromoteInfo(f Frame) (m PromoteInfo, err error) {
	r := readFields(f, KindPromoteInfo)
	m.Epoch, m.Seq = r.uint(), r.uint()
	return m, r.end()
}

// subOpen reads the field layout SubOpen and SubResume share: id, query,
// period, the per-tick deadline envelope, the queue depth.
func (r *fieldReader) subOpen() (m SubOpen) {
	m.ID, m.Query, m.Period = r.uint(), r.str(), r.time()
	m.Kind = deadline.Kind(r.upTo(uint64(deadline.Soft)))
	m.Deadline, m.Elapsed, m.MinUseful = r.time(), r.time(), r.uint()
	m.Decay = r.decay()
	m.Depth = r.uint()
	return m
}

// DecodeSubOpen decodes a KindSubOpen frame.
func DecodeSubOpen(f Frame) (SubOpen, error) {
	r := readFields(f, KindSubOpen)
	m := r.subOpen()
	return m, r.end()
}

// DecodeSubAck decodes a KindSubAck frame.
func DecodeSubAck(f Frame) (m SubAck, err error) {
	r := readFields(f, KindSubAck)
	m.ID = r.uint()
	m.State = SubState(r.upTo(uint64(SubClosed)))
	if m.State == 0 {
		r.bad = true
	}
	m.Cursor, m.Chronon = r.uint(), r.time()
	return m, r.end()
}

// DecodePush decodes a KindPush frame: the answers slice and one string per
// answer are all it allocates.
func DecodePush(f Frame) (Push, error) { return DecodePushShared(f, nil) }

// DecodePushShared decodes a KindPush frame as DecodePush does, except when
// the frame's answers equal one of recent byte for byte, in order and in
// number, with no field escaped: Answers is then that slice itself and the
// decode allocates nothing. A shared slice is read-only to every holder.
func DecodePushShared(f Frame, recent [][]string) (m Push, err error) {
	r := readFields(f, KindPush)
	m.ID, m.Cursor, m.Dropped, m.Expired, m.Useful = r.uint(), r.uint(), r.uint(), r.uint(), r.uint()
	m.Missed, m.Evaluated, m.Degraded = r.bool(), r.bool(), r.bool()
	m.Issue, m.Served = r.time(), r.time()
	m.Answers = r.shared(recent)
	return m, r.end()
}

// DecodeSubCancel decodes a KindSubCancel frame.
func DecodeSubCancel(f Frame) (m SubCancel, err error) {
	r := readFields(f, KindSubCancel)
	m.ID = r.uint()
	return m, r.end()
}

// DecodeSubResume decodes a KindSubResume frame.
func DecodeSubResume(f Frame) (SubResume, error) {
	r := readFields(f, KindSubResume)
	o := r.subOpen()
	m := SubResume{
		ID: o.ID, Query: o.Query, Period: o.Period,
		Kind: o.Kind, Deadline: o.Deadline, Elapsed: o.Elapsed,
		MinUseful: o.MinUseful, Decay: o.Decay, Depth: o.Depth,
		AfterCursor: r.uint(),
	}
	return m, r.end()
}

// boxed adapts a typed decoder to Decode's result.
func boxed[M any](decode func(Frame) (M, error)) func(Frame) (any, error) {
	return func(f Frame) (any, error) {
		m, err := decode(f)
		if err != nil {
			return nil, err
		}
		return m, nil
	}
}

// decoders holds every kind's typed decoder, boxed, at the kind's index.
var decoders = [KindSubResume + 1]func(Frame) (any, error){
	KindHello: boxed(DecodeHello), KindWelcome: boxed(DecodeWelcome),
	KindSample: boxed(func(f Frame) (Sample, error) { return DecodeSample(f, nil) }), KindQuery: boxed(DecodeQuery), KindResult: boxed(DecodeResult),
	KindAsOf: boxed(DecodeAsOf), KindAsOfResult: boxed(DecodeAsOfResult),
	KindMetricsReq: boxed(DecodeMetricsReq), KindMetrics: boxed(DecodeMetrics),
	KindFlush: boxed(DecodeFlush), KindFlushed: boxed(DecodeFlushed),
	KindErr: boxed(DecodeErr), KindBye: boxed(DecodeBye),
	KindSubscribe: boxed(DecodeSubscribe), KindWalBatch: boxed(DecodeWalBatch), KindWalAck: boxed(DecodeWalAck),
	KindHeartbeat: boxed(DecodeHeartbeat), KindPromoteInfo: boxed(DecodePromoteInfo),
	KindSubOpen: boxed(DecodeSubOpen), KindSubAck: boxed(DecodeSubAck), KindPush: boxed(DecodePush),
	KindSubCancel: boxed(DecodeSubCancel), KindSubResume: boxed(DecodeSubResume),
}

// Decode parses a frame into its typed message.
func Decode(f Frame) (any, error) {
	if int(f.Kind) < len(decoders) && decoders[f.Kind] != nil {
		return decoders[f.Kind](f)
	}
	// A kind no header check lets through: the payload is judged first, as
	// it is for every known kind.
	r := readFields(f, f.Kind)
	if err := r.end(); err != nil {
		return nil, err
	}
	return nil, ErrBadKind
}
