package rtwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"rtc/internal/encoding"
)

// frameOf is the frame a message encodes to.
func frameOf(tb testing.TB, m encoder) Frame {
	tb.Helper()
	f, _, err := DecodeFrame(m.Encode())
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// checkAgainstOracle decodes one frame through the oracle, through Decode
// and through the kind's typed decoder, and fails on any disagreement:
// accept/reject, the ErrBadPayload/ErrBadKind class and the error text, or
// the decoded message.
func checkAgainstOracle(t *testing.T, f Frame) {
	t.Helper()
	want, wantErr := oracleDecode(f)
	got, err := Decode(f)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s %q: Decode err = %v, oracle err = %v", f.Kind, f.Payload, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() ||
			errors.Is(err, ErrBadPayload) != errors.Is(wantErr, ErrBadPayload) ||
			errors.Is(err, ErrBadKind) != errors.Is(wantErr, ErrBadKind) {
			t.Fatalf("%s %q: Decode err = %q, oracle err = %q", f.Kind, f.Payload, err, wantErr)
		}
		if got != nil {
			t.Fatalf("%s %q: Decode returned %+v with an error", f.Kind, f.Payload, got)
		}
	} else if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %q:\n got %#v\nwant %#v", f.Kind, f.Payload, got, want)
	}
	// The typed decoders transports call directly are the ones Decode boxes;
	// spot-check the hot ones so the two entry points cannot drift.
	var typed any
	var terr error
	switch f.Kind {
	case KindPush:
		typed, terr = DecodePush(f)
	case KindSample:
		typed, terr = DecodeSample(f, nil)
	case KindQuery:
		typed, terr = DecodeQuery(f)
	case KindResult:
		typed, terr = DecodeResult(f)
	case KindFlush:
		typed, terr = DecodeFlush(f)
	case KindFlushed:
		typed, terr = DecodeFlushed(f)
	default:
		return
	}
	if (terr == nil) != (wantErr == nil) || (terr == nil && !reflect.DeepEqual(typed, want)) {
		t.Fatalf("%s %q: typed decoder = %#v, %v; oracle %#v, %v", f.Kind, f.Payload, typed, terr, want, wantErr)
	}
	switch f.Kind {
	case KindPush:
		checkSharedPush(t, f)
	case KindSample:
		checkKnownSample(t, f)
	}
}

// checkKnownSample holds DecodeSample with an image lookup to DecodeSample
// without one on one frame: a lookup that knows no name, one that knows
// only other names — the image field's raw bytes among them, which an
// escaped field must not be looked up by — and one that knows the frame's
// image too, whose own string the decode must return when the payload holds
// no escape pair.
func checkKnownSample(t *testing.T, f Frame) {
	t.Helper()
	want, wantErr := DecodeSample(f, nil)
	own := strings.Clone(want.Image)
	sc := encoding.Scan(f.Payload)
	sc.Next()
	raw, _, _ := sc.Next()
	others := []string{"temp", own + "x", "", string(raw)}
	for _, names := range [][]string{nil, others, append([]string{own}, others...)} {
		lookup := func(raw []byte) (string, bool) {
			for _, n := range names {
				if string(raw) == n {
					return n, true
				}
			}
			return "", false
		}
		got, err := DecodeSample(f, lookup)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q knowing %q: DecodeSample = %#v, %v; without a lookup %#v, %v", f.Payload, names, got, err, want, wantErr)
		}
		known := len(names) > len(others) && own != ""
		if err == nil && known && !bytes.ContainsRune(f.Payload, '%') && unsafe.StringData(got.Image) != unsafe.StringData(own) {
			t.Fatalf("%q knowing %q: image decoded fresh, want the known string", f.Payload, names)
		}
	}
}

// checkSharedPush holds DecodePushShared to DecodePush on one frame: with no
// recent sets, with near misses of the frame's answers (one short, one more,
// the last one changed) and with an equal set among them, which it must
// return itself when the payload holds no escape pair.
func checkSharedPush(t *testing.T, f Frame) {
	t.Helper()
	want, wantErr := DecodePush(f)
	equal := slices.Clone(want.Answers)
	var near [][]string
	if n := len(equal); n > 0 {
		changed := slices.Clone(equal)
		changed[n-1] += "x"
		near = append(near, slices.Clone(equal[:n-1]), append(slices.Clone(equal), "x"), changed)
	}
	for _, recent := range [][][]string{nil, near, append(near, equal)} {
		got, err := DecodePushShared(f, recent)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q with recent %q: DecodePushShared = %#v, %v; DecodePush %#v, %v", f.Payload, recent, got, err, want, wantErr)
		}
		if err != nil {
			continue
		}
		offered := len(recent) > len(near) && len(equal) > 0
		if offered && &got.Answers[0] != &equal[0] && !bytes.ContainsRune(f.Payload, '%') {
			t.Fatalf("%q with recent %q: decoded fresh, want the equal set shared", f.Payload, recent)
		}
	}
}

// hostilePayloads are record bytes chosen to sit on every accept/reject edge
// of the field reader; each is tried under every kind byte.
var hostilePayloads = []string{
	"", "$", "$$", "$@$", "$@@@@@@@@@@@@$",
	"$7$", "$7@temp@21$", "$7@temp@21@extra@fields$",
	"$7@temp@21%$",                                 // dangling escape swallows the delimiter
	"$7@te$mp@21$",                                 // bare delimiter
	"$7@temp@#21$",                                 // bare number prefix
	"$7@temp@21@tail%$",                            // damage behind the last field a Sample reads
	"$%7@t%@mp@%2%1$",                              // escaped digits, escaped delimiter
	"$7x@temp@21$",                                 // non-numeric id
	"$+7@temp@21$",                                 // signed id
	"$@temp@21$",                                   // empty id
	"$18446744073709551615@a@b$",                   // 2^64-1, 20 digits
	"$18446744073709551616@a@b$",                   // 2^64
	"$184467440737095516150@a@b$",                  // 21 digits
	"$000000000000000000000007@a@b$",               // 24 digits, value 7
	"$1@2@3@2@1@0$",                                // welcome: role out of range
	"$1@2@3@1@4@4$",                                // welcome: shard == shards
	"$1@2@3@1@0@9$",                                // welcome: shards 0 places nothing
	"$8@q@c@3@40@3@2@1@10@0$",                      // query: deadline kind out of range
	"$8@q@c@2@40@3@2@3@10@0$",                      // query: decay out of range
	"$8@q@c@2@40@3@2@1@10$",                        // query: one field short
	"$8@1@2@0@1@11@13@0$",                          // result: no answers
	"$8@1@2@0@1@11@13@0@$",                         // result: one empty answer
	"$8@2@2@0@1@11@13@0@ok$",                       // result: bool out of range
	"$8@1@2@0@1@11@13$",                            // result: one field short
	"$10$", "$10@a$", "$10@a@1@b$", "$10@a@1@b@x$", // metrics: odd/even, bad value
	"$12@300@msg$",    // err: code wider than its type
	"$2@42@3@40@900$", // wal batch: snap out of range
	"$2@42@2@40@900@e1@e%@2$",
	"$5@0@3@1023$", "$5@4@3@1023$", "$5@3@9@1100$", // sub ack: state 0, 4, closed
	"$5@3@1@1@9@0@1@1@1024@1026@ok@hi%@there$",         // push with answers
	"$5@3@1@1@9@0@1@1@1024@1026$",                      // push without
	"$5@3@1@1@9@0@1@1@1024@1026@a@b@c@d@e@f@g@h@i@j$",  // push: ten answers
	"$5@3@1@1@9@0@1@1@1024@1026@a@b@c@d@e@f@g@h@%i@j$", // push: ten, one escaped
	"$5@3@1@1@9@0@1@1@1024@1026@ok@ok@$",               // push: repeats, one empty
	"$5@3@1@1@9@0@1@2@1024@1026$",                      // push: bool out of range
	"$5@3@1@1@9@0@1@1@1024$",                           // push: one field short
	"$5@status_q@8@1@6@1@1@2@9@4@16$",                  // sub open
	"$5@status_q@8@1@6@1@1@2@9@4$",                     // sub open: no depth
	"$5@status_q@8@2@6@2@2@1@10@0@16@3$",               // sub resume
	"$5@status_q@8@2@6@2@2@1@10@0@16@x$",               // sub resume: bad cursor
	// The edges of the plain-digit fast read (encoding.Scanner.Uint, Bool).
	"$9999999999999999999@a@b$",                      // 19 digits, the longest fast read
	"$1000000000000000000@a@b$",                      // 19 digits, 10^18
	"$0000000000000000007@a@b$",                      // 19 digits, leading zeros
	"$99999999999999999999@a@b$",                     // 20 digits, overflows
	"$5@3@1@1@18446744073709551615@0@1@0@1024@1026$", // push: 2^64-1 useful
	"$5@3@1@1@18446744073709551616@0@1@0@1024@1026$", // push: 2^64 useful
	"$%1%2@temp@21$",                                 // escaped digits: the number 12
	"$5@3@1@1@9@00@1@0@1024@1026$",                   // push: bool 00
	"$5@3@1@1@9@01@1@0@1024@1026$",                   // push: bool 01
	"$5@3@1@1@9@2@1@0@1024@1026$",                    // push: bool 2
	"$5@3@1@1@9@@1@0@1024@1026$",                     // push: bool empty
	"$5@3@1@1@9@%1@1@0@1024@1026$",                   // push: bool escaped
	"$5@3@1@1@9@0@1@0@1024@1026",                     // push: no closing delimiter
	"$5@3@1@1@9@0@1@0@1024@1026#$",                   // push: number then '#'
	"$5@3@1@1@9@0@1@0@1024$1026$",                    // push: number then '$'
	"$5@3@1@1@9@0#@1@0@1024@1026$",                   // push: bool then '#'
	"$5@3@1@1@9@0$@1@0@1024@1026$",                   // push: bool then '$'
	"$8@1@2@0@1@11@13@1$",                            // result: number ends the record
	"$9$",                                            // a lone number ends the record
}

// TestDecodeMatchesOracle runs the differential check over every message,
// every golden frame and the hostile payloads under every kind byte — the
// deterministic floor under FuzzDecodeDifferential.
func TestDecodeMatchesOracle(t *testing.T) {
	for _, m := range allMessages() {
		checkAgainstOracle(t, frameOf(t, m.(encoder)))
	}
	for _, p := range hostilePayloads {
		for k := 0; k <= int(KindSubResume)+1; k++ {
			checkAgainstOracle(t, Frame{Kind: Kind(k), Payload: []byte(p)})
		}
	}
}

// FuzzDecodeDifferential holds the one-pass decoders to the field-slice
// oracle: arbitrary payload bytes under every kind byte are accepted or
// rejected identically and decode to deep-equal messages, a push decoded
// against recent answer sets equals its fresh decode (checkSharedPush), and
// a sample decoded against known image names equals its decode without them
// (checkKnownSample).
func FuzzDecodeDifferential(f *testing.F) {
	for _, m := range allMessages() {
		fr := frameOf(f, m.(encoder))
		f.Add(uint8(fr.Kind), fr.Payload)
	}
	for _, g := range goldenMessages() {
		fr := frameOf(f, g.msg)
		f.Add(uint8(fr.Kind), fr.Payload)
	}
	for i, p := range hostilePayloads {
		f.Add(uint8(i%int(KindSubResume)+1), []byte(p))
	}
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		checkAgainstOracle(t, Frame{Kind: Kind(kind), Payload: payload})
		// The fuzzer mostly mutates the payload; try it under every kind so
		// a field-count or enum edge found for one message tests them all.
		for k := KindHello; k <= KindSubResume; k++ {
			checkAgainstOracle(t, Frame{Kind: k, Payload: payload})
		}
	})
}

// TestKindRange: decodeHeader accepts the contiguous range KindHello …
// KindSubResume instead of consulting kindNames, so the two must agree.
func TestKindRange(t *testing.T) {
	if len(kindNames) != int(KindSubResume-KindHello)+1 {
		t.Fatalf("kindNames has %d entries, the kind range %d", len(kindNames), int(KindSubResume-KindHello)+1)
	}
	for k := 0; k < 256; k++ {
		_, named := kindNames[Kind(k)]
		frame := AppendFrame(nil, Kind(k), []byte("$$"))
		_, _, err := DecodeFrame(frame)
		if named != (err == nil) || (!named && !errors.Is(err, ErrBadKind)) {
			t.Errorf("kind %d: named=%v, DecodeFrame err=%v", k, named, err)
		}
	}
}

// TestAllocGates pins the hot-path allocation budget of the codec with
// counts, which repeat where clocks do not: framing allocates nothing, and a
// typed decode allocates only what the message keeps.
func TestAllocGates(t *testing.T) {
	gate := func(name string, max float64, fn func()) {
		t.Helper()
		if got := testing.AllocsPerRun(200, fn); got > max {
			t.Errorf("%s: %.1f allocs/op, budget %.0f", name, got, max)
		}
	}

	buf := make([]byte, 0, 4096)
	for _, m := range allMessages() {
		m := m.(interface{ AppendTo([]byte) []byte })
		gate("AppendTo "+reflect.TypeOf(m).Name(), 0, func() { buf = m.AppendTo(buf[:0]) })
	}

	push := Push{ID: 5, Cursor: 3, Useful: 1, Evaluated: true, Issue: 1024, Served: 1026, Answers: []string{"ok"}}
	tail := make([]byte, 0, 64)
	gate("AppendTail", 0, func() { tail = push.AppendTail(tail[:0]) })
	gate("AppendSpliced", 0, func() { buf = push.AppendSpliced(buf[:0], tail) })
	pushBytes := push.Encode()
	gate("DecodeFrame", 0, func() {
		if _, _, err := DecodeFrame(pushBytes); err != nil {
			t.Fatal(err)
		}
	})

	stream := bytes.Repeat(pushBytes, 64)
	rd := bytes.NewReader(stream)
	br := bufio.NewReader(rd)
	var rbuf []byte
	if _, err := ReadFrameBuf(br, &rbuf); err != nil { // grow rbuf once
		t.Fatal(err)
	}
	gate("ReadFrameBuf", 0, func() {
		if _, err := ReadFrameBuf(br, &rbuf); err != nil {
			rd.Reset(stream)
			br.Reset(rd)
		}
	})

	pushFrame := frameOf(t, push)
	gate("DecodePush", 2, func() {
		if _, err := DecodePush(pushFrame); err != nil {
			t.Fatal(err)
		}
	})
	recent := [][]string{{"high"}, {"ok"}}
	gate("DecodePushShared", 0, func() {
		if m, err := DecodePushShared(pushFrame, recent); err != nil || &m.Answers[0] != &recent[1][0] {
			t.Fatalf("answers %q, err %v: want recent[1] itself", m.Answers, err)
		}
	})
	// A known image is the lookup's string: a sample then allocates its
	// value alone, and nothing for a one-byte value (the runtime's own).
	images := func(raw []byte) (string, bool) {
		if string(raw) == "temp" {
			return "temp", true
		}
		return "", false
	}
	for _, c := range []struct {
		name   string
		sample Sample
		max    float64
	}{
		{"unknown image", Sample{ID: 7, Image: "humid", Value: "21"}, 2},
		{"known image", Sample{ID: 7, Image: "temp", Value: "21"}, 1},
		{"known image, one-byte value", Sample{ID: 7, Image: "temp", Value: "2"}, 0},
	} {
		f := frameOf(t, c.sample)
		gate("DecodeSample "+c.name, c.max, func() {
			if m, err := DecodeSample(f, images); err != nil || m != c.sample {
				t.Fatalf("%+v, %v: want %+v", m, err, c.sample)
			}
		})
	}
	queryFrame := frameOf(t, Query{ID: 8, Query: "status_q", Candidate: "ok", Kind: 1, Deadline: 40, MinUseful: 1})
	gate("DecodeQuery", 2, func() {
		if _, err := DecodeQuery(queryFrame); err != nil {
			t.Fatal(err)
		}
	})
	resultFrame := frameOf(t, Result{ID: 8, Answers: []string{"ok"}, Match: true, Useful: 1, Evaluated: true, Issue: 11, Served: 13})
	gate("Decode(Result)", 3, func() {
		if _, err := Decode(resultFrame); err != nil {
			t.Fatal(err)
		}
	})
}

var benchSink any

var cursorSink uint64

func BenchmarkDecode(b *testing.B) {
	for _, bc := range []struct {
		name string
		msg  encoder
	}{
		{"push", Push{ID: 5, Cursor: 1000, Useful: 1, Evaluated: true, Issue: 100_000, Served: 100_001, Answers: []string{"ok"}}},
		{"sample", Sample{ID: 7, Image: "temp", Value: "21"}},
		{"query", Query{ID: 8, Query: "status_q", Candidate: "ok", Kind: 1, Deadline: 40, Elapsed: 3, MinUseful: 1}},
		{"result", Result{ID: 8, Answers: []string{"ok"}, Match: true, Useful: 1, Evaluated: true, Issue: 11, Served: 13}},
	} {
		f := frameOf(b, bc.msg)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := Decode(f)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = m
			}
		})
	}
}

// BenchmarkDecodePushShared is a client's decode of one member's push of a
// one-answer tick whose answers it already holds: no allocation, so ns/op
// is the field reads.
func BenchmarkDecodePushShared(b *testing.B) {
	f := frameOf(b, Push{ID: 5, Cursor: 1000, Useful: 1, Evaluated: true, Issue: 100_000, Served: 100_001, Answers: []string{"ok"}})
	recent := [][]string{{"high"}, {"ok"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := DecodePushShared(f, recent)
		if err != nil {
			b.Fatal(err)
		}
		cursorSink += m.Cursor
	}
}

// BenchmarkEncodePush is one member's push of a one-answer tick: encoded
// whole, and spliced behind a tail encoded once for the tick.
func BenchmarkEncodePush(b *testing.B) {
	push := Push{ID: 5, Cursor: 1000, Useful: 1, Evaluated: true, Issue: 100_000, Served: 100_001, Answers: []string{"ok"}}
	buf := make([]byte, 0, 256)
	b.Run("AppendTo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = push.AppendTo(buf[:0])
		}
	})
	tail := push.AppendTail(nil)
	b.Run("AppendSpliced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = push.AppendSpliced(buf[:0], tail)
		}
	})
}

// BenchmarkReadFrame reads Push frames off a bufio.Reader through one
// reused buffer: header parse, payload copy, CRC.
func BenchmarkReadFrame(b *testing.B) {
	frame := Push{ID: 5, Cursor: 1000, Useful: 1, Evaluated: true, Issue: 100_000, Served: 100_001, Answers: []string{"ok"}}.Encode()
	stream := bytes.Repeat(frame, 256)
	rd := bytes.NewReader(stream)
	br := bufio.NewReader(rd)
	var rbuf []byte
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFrameBuf(br, &rbuf); err != nil {
			rd.Reset(stream)
			br.Reset(rd)
			i--
		}
	}
}
