package rtwire

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"rtc/internal/deadline"
	"rtc/internal/encoding"
	"rtc/internal/timeseq"
)

// This file is the differential oracle of the one-pass decoder in decode.go:
// Frame.Fields and the field-slice decoder built on it, the role
// encoding.Record/ParseRecord play for the WAL codec. FuzzDecodeDifferential
// holds the production decoders to it.

// AppendFrame appends the framed payload to dst: the header rendered on its
// own, the check on frameBuilder's in-place patching.
func AppendFrame(dst []byte, kind Kind, payload []byte) []byte {
	var hdr [HeaderSize]byte
	hdr[0] = Magic
	hdr[1] = Version
	hdr[2] = byte(kind)
	binary.LittleEndian.PutUint32(hdr[3:7], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[7:11], checksum(kind, payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// Fields parses the frame payload back into its record fields: the byte
// rendering of $f1@f2@…$, escape pairs %x decoding to x. The shared
// encoding.Scanner accepts and rejects exactly what tokenizing into the
// symbol alphabet and running the record parser accepts and rejects — an
// unescaped delimiter or a dangling escape inside the record is
// ErrBadPayload — in one pass over the bytes, then one string per field.
func (f Frame) Fields() ([]string, error) {
	sc := encoding.Scan(f.Payload)
	fields := make([]string, 0, sc.MaxFields())
	var scratch []byte
	for {
		raw, escaped, ok := sc.Next()
		if !ok {
			break
		}
		if escaped {
			scratch = encoding.AppendUnescaped(scratch[:0], raw)
			raw = scratch
		}
		fields = append(fields, string(raw))
	}
	if sc.Bad() {
		return nil, ErrBadPayload
	}
	return fields, nil
}

func parseBool(s string) (bool, bool) {
	switch s {
	case "0":
		return false, true
	case "1":
		return true, true
	}
	return false, false
}

func parseU(s string) (uint64, bool) {
	v, err := strconv.ParseUint(s, 10, 64)
	return v, err == nil
}

// subEnvelope is the field layout SubOpen and SubResume share: id, query,
// period, then the per-tick deadline envelope, then the queue depth.
type subEnvelope struct {
	id                uint64
	query             string
	period            timeseq.Time
	kind              deadline.Kind
	deadline, elapsed timeseq.Time
	minUseful         uint64
	decay             Decay
	depth             uint64
}

func parseSubEnvelope(fields []string) (subEnvelope, bool) {
	id, ok0 := parseU(fields[0])
	period, ok1 := parseU(fields[2])
	kind, ok2 := parseU(fields[3])
	dead, ok3 := parseU(fields[4])
	elapsed, ok4 := parseU(fields[5])
	minUseful, ok5 := parseU(fields[6])
	decayID, ok6 := parseU(fields[7])
	decayMax, ok7 := parseU(fields[8])
	span, ok8 := parseU(fields[9])
	depth, ok9 := parseU(fields[10])
	if !(ok0 && ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7 && ok8 && ok9) {
		return subEnvelope{}, false
	}
	if kind > uint64(deadline.Soft) || decayID > uint64(DecayLinear) {
		return subEnvelope{}, false
	}
	return subEnvelope{
		id: id, query: fields[1], period: timeseq.Time(period),
		kind:     deadline.Kind(kind),
		deadline: timeseq.Time(dead), elapsed: timeseq.Time(elapsed),
		minUseful: minUseful,
		decay: Decay{
			ID: DecayID(decayID), Max: decayMax, Span: timeseq.Time(span),
		},
		depth: depth,
	}, true
}

// oracleDecode is the definition of decoding a message: tokenize the payload
// into its field strings, then parse field by field — the decoder this
// package shipped before the one-pass reader, kept verbatim.
func oracleDecode(f Frame) (any, error) {
	fields, err := f.Fields()
	if err != nil {
		return nil, err
	}
	bad := func() (any, error) {
		return nil, fmt.Errorf("%w: %s frame with %d fields", ErrBadPayload, f.Kind, len(fields))
	}
	need := func(n int) bool { return len(fields) >= n }
	switch f.Kind {
	case KindHello:
		if !need(1) {
			return bad()
		}
		return Hello{Client: fields[0]}, nil
	case KindWelcome:
		if !need(6) {
			return bad()
		}
		sess, ok1 := parseU(fields[0])
		chr, ok2 := parseU(fields[1])
		epoch, ok3 := parseU(fields[2])
		role, ok4 := parseU(fields[3])
		shards, ok5 := parseU(fields[4])
		shard, ok6 := parseU(fields[5])
		if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) || role > uint64(RoleStandby) {
			return bad()
		}
		if shards > 0 && shard >= shards {
			return bad()
		}
		return Welcome{
			Session: sess, Chronon: timeseq.Time(chr),
			Epoch: epoch, Role: Role(role),
			Shards: shards, Shard: shard,
		}, nil
	case KindSample:
		if !need(3) {
			return bad()
		}
		id, ok := parseU(fields[0])
		if !ok {
			return bad()
		}
		return Sample{ID: id, Image: fields[1], Value: fields[2]}, nil
	case KindQuery:
		if !need(10) {
			return bad()
		}
		id, ok0 := parseU(fields[0])
		kind, ok1 := parseU(fields[3])
		dead, ok2 := parseU(fields[4])
		elapsed, ok3 := parseU(fields[5])
		minUseful, ok4 := parseU(fields[6])
		decayID, ok5 := parseU(fields[7])
		decayMax, ok6 := parseU(fields[8])
		span, ok7 := parseU(fields[9])
		if !(ok0 && ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7) {
			return bad()
		}
		if kind > uint64(deadline.Soft) || decayID > uint64(DecayLinear) {
			return bad()
		}
		return Query{
			ID: id, Query: fields[1], Candidate: fields[2],
			Kind:     deadline.Kind(kind),
			Deadline: timeseq.Time(dead), Elapsed: timeseq.Time(elapsed),
			MinUseful: minUseful,
			Decay: Decay{
				ID: DecayID(decayID), Max: decayMax, Span: timeseq.Time(span),
			},
		}, nil
	case KindResult:
		if !need(8) {
			return bad()
		}
		id, ok0 := parseU(fields[0])
		match, ok1 := parseBool(fields[1])
		useful, ok2 := parseU(fields[2])
		missed, ok3 := parseBool(fields[3])
		eval, ok4 := parseBool(fields[4])
		issue, ok5 := parseU(fields[5])
		served, ok6 := parseU(fields[6])
		expired, ok7 := parseBool(fields[7])
		if !(ok0 && ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7) {
			return bad()
		}
		var answers []string
		if len(fields) > 8 {
			answers = append(answers, fields[8:]...)
		}
		return Result{
			ID: id, Answers: answers, Match: match, Useful: useful,
			Missed: missed, Evaluated: eval,
			Issue: timeseq.Time(issue), Served: timeseq.Time(served),
			ExpiredOnArrival: expired,
		}, nil
	case KindAsOf:
		if !need(3) {
			return bad()
		}
		id, ok1 := parseU(fields[0])
		at, ok2 := parseU(fields[2])
		if !ok1 || !ok2 {
			return bad()
		}
		return AsOf{ID: id, Image: fields[1], At: timeseq.Time(at)}, nil
	case KindAsOfResult:
		if !need(4) {
			return bad()
		}
		id, ok1 := parseU(fields[0])
		okv, ok2 := parseBool(fields[1])
		hor, ok3 := parseU(fields[3])
		if !(ok1 && ok2 && ok3) {
			return bad()
		}
		return AsOfResult{ID: id, OK: okv, Value: fields[2], Horizon: timeseq.Time(hor)}, nil
	case KindMetricsReq:
		if !need(1) {
			return bad()
		}
		id, ok := parseU(fields[0])
		if !ok {
			return bad()
		}
		return MetricsReq{ID: id}, nil
	case KindMetrics:
		if !need(1) || len(fields)%2 == 0 {
			return bad()
		}
		id, ok := parseU(fields[0])
		if !ok {
			return bad()
		}
		m := Metrics{ID: id}
		for i := 1; i < len(fields); i += 2 {
			v, ok := parseU(fields[i+1])
			if !ok {
				return bad()
			}
			m.Pairs = append(m.Pairs, MetricPair{Name: fields[i], Value: v})
		}
		return m, nil
	case KindFlush:
		if !need(1) {
			return bad()
		}
		id, ok := parseU(fields[0])
		if !ok {
			return bad()
		}
		return Flush{ID: id}, nil
	case KindFlushed:
		if !need(2) {
			return bad()
		}
		id, ok1 := parseU(fields[0])
		chr, ok2 := parseU(fields[1])
		if !ok1 || !ok2 {
			return bad()
		}
		return Flushed{ID: id, Chronon: timeseq.Time(chr)}, nil
	case KindErr:
		if !need(3) {
			return bad()
		}
		id, ok1 := parseU(fields[0])
		code, ok2 := parseU(fields[1])
		if !ok1 || !ok2 {
			return bad()
		}
		return Err{ID: id, Code: ErrCode(code), Msg: fields[2]}, nil
	case KindBye:
		if !need(1) {
			return bad()
		}
		return Bye{Reason: fields[0]}, nil
	case KindSubscribe:
		if !need(2) {
			return bad()
		}
		after, ok := parseU(fields[0])
		if !ok {
			return bad()
		}
		return Subscribe{AfterSeq: after, Follower: fields[1]}, nil
	case KindWalBatch:
		if !need(5) {
			return bad()
		}
		epoch, ok0 := parseU(fields[0])
		first, ok1 := parseU(fields[1])
		snap, ok2 := parseU(fields[2])
		snapSeq, ok3 := parseU(fields[3])
		snapAt, ok4 := parseU(fields[4])
		if !(ok0 && ok1 && ok2 && ok3 && ok4) || snap > uint64(SnapFinal) {
			return bad()
		}
		var events []string
		if len(fields) > 5 {
			events = append(events, fields[5:]...)
		}
		return WalBatch{
			Epoch: epoch, FirstSeq: first,
			Snap: uint8(snap), SnapSeq: snapSeq, SnapLastAt: timeseq.Time(snapAt),
			Events: events,
		}, nil
	case KindWalAck:
		if !need(1) {
			return bad()
		}
		seq, ok := parseU(fields[0])
		if !ok {
			return bad()
		}
		return WalAck{Seq: seq}, nil
	case KindHeartbeat:
		if !need(3) {
			return bad()
		}
		epoch, ok1 := parseU(fields[0])
		chr, ok2 := parseU(fields[1])
		seq, ok3 := parseU(fields[2])
		if !(ok1 && ok2 && ok3) {
			return bad()
		}
		return Heartbeat{Epoch: epoch, Chronon: timeseq.Time(chr), Seq: seq}, nil
	case KindPromoteInfo:
		if !need(2) {
			return bad()
		}
		epoch, ok1 := parseU(fields[0])
		seq, ok2 := parseU(fields[1])
		if !ok1 || !ok2 {
			return bad()
		}
		return PromoteInfo{Epoch: epoch, Seq: seq}, nil
	case KindSubOpen:
		if !need(11) {
			return bad()
		}
		env, ok := parseSubEnvelope(fields)
		if !ok {
			return bad()
		}
		return SubOpen{
			ID: env.id, Query: env.query, Period: env.period,
			Kind: env.kind, Deadline: env.deadline, Elapsed: env.elapsed,
			MinUseful: env.minUseful, Decay: env.decay, Depth: env.depth,
		}, nil
	case KindSubAck:
		if !need(4) {
			return bad()
		}
		id, ok0 := parseU(fields[0])
		state, ok1 := parseU(fields[1])
		cursor, ok2 := parseU(fields[2])
		chr, ok3 := parseU(fields[3])
		if !(ok0 && ok1 && ok2 && ok3) || state == 0 || state > uint64(SubClosed) {
			return bad()
		}
		return SubAck{
			ID: id, State: SubState(state), Cursor: cursor,
			Chronon: timeseq.Time(chr),
		}, nil
	case KindPush:
		if !need(10) {
			return bad()
		}
		id, ok0 := parseU(fields[0])
		cursor, ok1 := parseU(fields[1])
		dropped, ok2 := parseU(fields[2])
		expired, ok3 := parseU(fields[3])
		useful, ok4 := parseU(fields[4])
		missed, ok5 := parseBool(fields[5])
		eval, ok6 := parseBool(fields[6])
		degraded, ok7 := parseBool(fields[7])
		issue, ok8 := parseU(fields[8])
		served, ok9 := parseU(fields[9])
		if !(ok0 && ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7 && ok8 && ok9) {
			return bad()
		}
		var answers []string
		if len(fields) > 10 {
			answers = append(answers, fields[10:]...)
		}
		return Push{
			ID: id, Cursor: cursor, Dropped: dropped, Expired: expired,
			Useful: useful, Missed: missed, Evaluated: eval, Degraded: degraded,
			Issue: timeseq.Time(issue), Served: timeseq.Time(served),
			Answers: answers,
		}, nil
	case KindSubCancel:
		if !need(1) {
			return bad()
		}
		id, ok := parseU(fields[0])
		if !ok {
			return bad()
		}
		return SubCancel{ID: id}, nil
	case KindSubResume:
		if !need(12) {
			return bad()
		}
		env, ok0 := parseSubEnvelope(fields)
		after, ok1 := parseU(fields[11])
		if !ok0 || !ok1 {
			return bad()
		}
		return SubResume{
			ID: env.id, Query: env.query, Period: env.period,
			Kind: env.kind, Deadline: env.deadline, Elapsed: env.elapsed,
			MinUseful: env.minUseful, Decay: env.decay, Depth: env.depth,
			AfterCursor: after,
		}, nil
	}
	return nil, ErrBadKind
}
