package log

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"rtc/internal/encoding"
	"rtc/internal/faultfs"
	"rtc/internal/timeseq"
	"rtc/internal/word"
)

// oracleEncode is the §5.1 definition of an event's payload: its fields as
// an encoding.Record, rendered symbol by symbol. The production encoder
// must write exactly these bytes.
func oracleEncode(e Event) []byte {
	fields := append([]string{e.Kind.String(), encoding.FieldUint(uint64(e.At)), e.Name, e.Value}, e.Args...)
	return []byte(encoding.String(encoding.Record(fields...)))
}

// oracleFields is the definition of reading a record: tokenize the bytes
// into the symbol alphabet (an escape pair %x is one symbol, every other
// byte one), then ParseRecord.
func oracleFields(payload []byte) ([]string, bool) {
	syms := make([]word.Symbol, 0, len(payload))
	for i := 0; i < len(payload); i++ {
		if payload[i] == '%' {
			if i+1 >= len(payload) {
				return nil, false
			}
			syms = append(syms, word.Symbol(payload[i:i+2]))
			i++
			continue
		}
		syms = append(syms, word.Symbol(payload[i:i+1]))
	}
	return encoding.ParseRecord(syms)
}

// oracleDecode is the definition of decoding an event: its record's
// fields — at least four, a known kind tag, a decimal time. The production
// decoder must accept and reject exactly what it does, and agree on every
// accepted event.
func oracleDecode(payload []byte) (Event, bool) {
	f, ok := oracleFields(payload)
	if !ok || len(f) < 4 {
		return Event{}, false
	}
	kind := -1
	for k, tag := range []string{"V", "I", "D", "S", "F", "Q"} {
		if f[0] == tag {
			kind = k
		}
	}
	at, err := strconv.ParseUint(f[1], 10, 64)
	if kind < 0 || err != nil {
		return Event{}, false
	}
	e := Event{Kind: Kind(kind), At: timeseq.Time(at), Name: f[2], Value: f[3]}
	if len(f) > 4 {
		e.Args = append([]string{}, f[4:]...)
	}
	return e, true
}

// FuzzEventCodecDifferential holds the byte-level codec to the formal one:
// arbitrary payload bytes decode (or fail to) identically under both, from
// bytes and from a string, with and without name interning; and whatever
// decodes re-encodes to the oracle's bytes.
func FuzzEventCodecDifferential(f *testing.F) {
	for _, g := range goldenEvents() {
		f.Add(g.e.Payload())
	}
	f.Add([]byte("$S@7@temp@21%$"))    // dangling escape swallows the delimiter
	f.Add([]byte("$S@7@te$mp@21$"))    // bare delimiter
	f.Add([]byte("$S@7@temp@#21$"))    // bare number prefix
	f.Add([]byte("$S@7@temp$"))        // fewer than four fields
	f.Add([]byte("$X@7@temp@21$"))     // unknown kind tag
	f.Add([]byte("$S@7x@temp@21$"))    // non-numeric time
	f.Add([]byte("$S@@temp@21$"))      // empty time
	f.Add([]byte("$%S@%7@temp@21@@$")) // escaped tag and time, empty args
	f.Add([]byte("$S@99999999999999999999999@temp@21$"))
	f.Add([]byte("$COMMIT@9$"))
	f.Add([]byte("$S@18446744073709551615@temp@21$"))   // 2^64-1: the largest time
	f.Add([]byte("$S@18446744073709551616@temp@21$"))   // 2^64: one past it
	f.Add([]byte("$S@0000000000000000000007@temp@21$")) // 22 digits, value 7
	f.Fuzz(func(t *testing.T, payload []byte) {
		want, wantOK := oracleDecode(payload)
		got, ok := DecodeEvent(payload)
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeEvent(%q) = %+v, %v; oracle %+v, %v", payload, got, ok, want, wantOK)
		}
		if s, sok := DecodeEvent(string(payload)); sok != ok || !reflect.DeepEqual(s, got) {
			t.Fatalf("DecodeEvent(string %q) = %+v, %v; from bytes %+v, %v", payload, s, sok, got, ok)
		}
		names := map[string]string{want.Name: want.Name}
		if in, iok := decodeEvent(payload, names); iok != ok || !reflect.DeepEqual(in, got) {
			t.Fatalf("interning changed %q: %+v, %v; plain %+v, %v", payload, in, iok, got, ok)
		}
		if !ok {
			return
		}
		enc := oracleEncode(got)
		if p := got.Payload(); !bytes.Equal(p, enc) {
			t.Fatalf("Payload(%+v) = %q, oracle %q", got, p, enc)
		}
		if fr := EncodeEvent(got); !bytes.Equal(fr[frameHeaderSize:], enc) {
			t.Fatalf("EncodeEvent(%+v) payload = %q, oracle %q", got, fr[frameHeaderSize:], enc)
		}
	})
}

// FuzzEventRoundTrip: any event survives the frame + record codec, the
// framed bytes read back as exactly one record, and the payload is the
// oracle's rendering of the event's fields.
func FuzzEventRoundTrip(f *testing.F) {
	f.Add(uint8(KindSample), uint64(7), "temp", "21", "x")
	f.Add(uint8(KindQuery), uint64(0), "", "", "")
	f.Add(uint8(KindFiring), uint64(1<<40), "a$@#%rule", "", "s1")
	f.Fuzz(func(t *testing.T, kind uint8, at uint64, name, value, arg string) {
		e := Event{Kind: Kind(kind % 6), At: timeseq.Time(at), Name: name, Value: value}
		if arg != "" {
			e.Args = []string{arg}
		}
		frame := EncodeEvent(e)
		payload, n, err := ReadFrame(bytes.NewReader(frame), nil)
		if err != nil || n != len(frame) {
			t.Fatalf("ReadFrame: n=%d err=%v", n, err)
		}
		if want := oracleEncode(e); !bytes.Equal(payload, want) {
			t.Fatalf("EncodeEvent(%+v) payload = %q, oracle %q", e, payload, want)
		}
		got, ok := DecodeEvent(payload)
		if !ok || !reflect.DeepEqual(got, e) {
			t.Fatalf("round trip %+v → %+v (%v)", e, got, ok)
		}
	})
}

// FuzzSegmentRecovery fuzzes whole multi-frame segments, not single
// frames: an arbitrary byte image of the final WAL segment never panics
// recovery. Open either reports an error (corruption, undecodable or
// inapplicable records) or succeeds — and on success recovery must be
// idempotent: reopening the directory yields a deep-equal state, because
// the first Open already normalized any torn tail. Seeds cover clean
// multi-frame segments, torn tails, and bit flips; the torture harness
// exports the crash images of any failing fault point into this corpus
// (cmd/rttorture -corpus).
func FuzzSegmentRecovery(f *testing.F) {
	segment := func(events []Event) []byte {
		var b []byte
		for _, e := range events {
			b = append(b, EncodeEvent(e)...)
		}
		return b
	}
	full := segment(workload(12))
	f.Add([]byte{})
	f.Add(full)
	f.Add(full[:len(full)-5]) // torn tail
	flip := append([]byte(nil), full...)
	flip[len(flip)/2] ^= 0x10
	f.Add(flip) // mid-segment damage with intact frames after it
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		mem := faultfs.NewMem(1)
		if err := mem.MkdirAll("wal"); err != nil {
			t.Fatal(err)
		}
		w, err := mem.Create("wal/" + segName(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		w.Close()

		l, err := Open(Options{Dir: "wal", FS: mem})
		if err != nil {
			return // damage surfaced, never panicked
		}
		st := l.State()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(Options{Dir: "wal", FS: mem})
		if err != nil {
			t.Fatalf("recovery not idempotent: second Open failed: %v", err)
		}
		defer l2.Close()
		if d := st.Diff(l2.State()); d != "" {
			t.Fatalf("recovery not idempotent: %s", d)
		}
	})
}

// FuzzDecodeFrame: arbitrary bytes never panic the frame reader or the
// decoder, and the frame reader reads them alike whether it checks a frame
// in place or copies it — through a bufio.Reader of 16 bytes, which leaves
// all but the smallest frames to the copying path, one of 64 KiB, and a
// bytes.Reader, which is the copying path: the same payloads, consumed-byte
// counts and errors, frame after frame. Those counts are the offsets
// recovery truncates a torn tail at.
func FuzzDecodeFrame(f *testing.F) {
	two := append(EncodeEvent(Image("temp", 5)), EncodeEvent(Sample(3, "temp", "20"))...)
	flip := append([]byte(nil), two...)
	flip[len(flip)-2] ^= 0x10
	f.Add([]byte{})
	f.Add(EncodeEvent(Sample(3, "temp", "20")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(make([]byte, 20)) // two empty frames and a short header
	f.Add(two)
	f.Add(two[:len(two)-3]) // torn tail
	f.Add(flip)             // checksum mismatch in the second frame
	f.Add(append(EncodeEvent(Sample(3, "temp", strings.Repeat("v", 40))), two...))
	f.Fuzz(func(t *testing.T, b []byte) {
		type step struct {
			payload string
			n       int
			err     error
		}
		read := func(r io.Reader) []step {
			var steps []step
			var buf []byte
			for {
				payload, n, err := ReadFrame(r, &buf)
				steps = append(steps, step{string(payload), n, err})
				if err != nil {
					return steps
				}
				DecodeEvent(payload)
			}
		}
		want := read(bytes.NewReader(b))
		for _, size := range []int{16, 64 << 10} {
			if got := read(bufio.NewReaderSize(bytes.NewReader(b), size)); !reflect.DeepEqual(got, want) {
				t.Fatalf("through a %d-byte bufio.Reader: %+v\nthrough a bytes.Reader: %+v", size, got, want)
			}
		}
	})
}
