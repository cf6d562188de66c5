package rtwire

import (
	"bytes"
	"reflect"
	"testing"

	"rtc/internal/deadline"
	"rtc/internal/timeseq"
)

// FuzzFrameDecode throws hostile byte images at the frame decoder:
// malformed length prefixes, truncated frames, flipped bits, kind swaps.
// The decoder must classify, never panic, never over-allocate, and a
// successful decode must re-encode to exactly the consumed bytes.
func FuzzFrameDecode(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(m.(encoder).Encode())
	}
	// Malformed length prefixes and truncations.
	valid := Sample{ID: 1, Image: "temp", Value: "21"}.Encode()
	huge := append([]byte{}, valid...)
	huge[3], huge[4], huge[5], huge[6] = 0xFF, 0xFF, 0xFF, 0x7F
	f.Add(huge)
	f.Add(valid[:HeaderSize])
	f.Add(valid[:HeaderSize-2])
	f.Add([]byte{Magic, Version})
	f.Add(append(append([]byte{}, valid...), valid[:9]...)) // frame + torn frame

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if n < HeaderSize || n > len(b) {
			t.Fatalf("consumed %d bytes of %d", n, len(b))
		}
		re := AppendFrame(nil, fr.Kind, fr.Payload)
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, b[:n])
		}
		// Message-level decode on a CRC-valid frame must classify, not
		// panic, and a successful decode must re-encode byte-identically.
		msg, err := Decode(fr)
		if err != nil {
			return
		}
		if enc, ok := msg.(encoder); ok {
			if !bytes.Equal(enc.Encode(), b[:n]) {
				t.Fatalf("message re-encode mismatch for %T", msg)
			}
		}
	})
}

// FuzzRequestRoundTrip drives the request messages (sample, query, as-of)
// through encode → frame decode → message decode and requires exact
// structural equality — the protocol must be injective on its domain. A
// push also goes through the splice encoder (checkSpliced).
func FuzzRequestRoundTrip(f *testing.F) {
	f.Add(uint64(1), "status_q", "ok", uint8(1), uint64(40), uint64(0), uint64(1), uint8(1), uint64(10), uint64(0))
	f.Add(uint64(2), "temp_q", "", uint8(2), uint64(0), uint64(5), uint64(2), uint8(2), uint64(8), uint64(4))
	f.Add(uint64(3), "q$@#%", "v%@$#", uint8(0), ^uint64(0), ^uint64(0), uint64(0), uint8(0), uint64(0), uint64(0))

	f.Fuzz(func(t *testing.T, id uint64, name, candidate string, kind uint8,
		dead, elapsed, minUseful uint64, decayID uint8, decayMax, span uint64) {
		if kind > uint8(deadline.Soft) {
			kind %= 3
		}
		if decayID > uint8(DecayLinear) {
			decayID %= 3
		}
		q := Query{
			ID: id, Query: name, Candidate: candidate,
			Kind:     deadline.Kind(kind),
			Deadline: timeseq.Time(dead), Elapsed: timeseq.Time(elapsed),
			MinUseful: minUseful,
			Decay:     Decay{ID: DecayID(decayID), Max: decayMax, Span: timeseq.Time(span)},
		}
		roundTrip(t, q)
		roundTrip(t, Sample{ID: id, Image: name, Value: candidate})
		roundTrip(t, AsOf{ID: id, Image: name, At: timeseq.Time(dead)})
		// The v3 subscription request surface rides the same envelope.
		so := SubOpen{
			ID: id, Query: name, Period: timeseq.Time(span) + 1,
			Kind:     deadline.Kind(kind),
			Deadline: timeseq.Time(dead), Elapsed: timeseq.Time(elapsed),
			MinUseful: minUseful,
			Decay:     Decay{ID: DecayID(decayID), Max: decayMax, Span: timeseq.Time(span)},
			Depth:     minUseful,
		}
		roundTrip(t, so)
		roundTrip(t, SubResume{
			ID: so.ID, Query: so.Query, Period: so.Period,
			Kind: so.Kind, Deadline: so.Deadline, Elapsed: so.Elapsed,
			MinUseful: so.MinUseful, Decay: so.Decay, Depth: so.Depth,
			AfterCursor: dead,
		})
		push := Push{
			ID: id, Cursor: dead, Dropped: elapsed, Expired: minUseful,
			Useful: decayMax, Missed: kind == 1, Evaluated: kind != 0,
			Degraded: decayID == 1,
			Issue:    timeseq.Time(elapsed), Served: timeseq.Time(dead),
			Answers: answersFor(name, candidate),
		}
		roundTrip(t, push)
		checkSpliced(t, push, Push{ID: span, Cursor: minUseful, Dropped: dead, Expired: elapsed})
	})
}

// checkSpliced encodes m's tail once and splices it behind m's own fields
// and behind other's (another member of the same tick): each frame must be
// AppendTo's bytes for that push and decode back to it.
func checkSpliced(t *testing.T, m, other Push) {
	t.Helper()
	tail := m.AppendTail(nil)
	other.Useful, other.Missed, other.Evaluated, other.Degraded = m.Useful, m.Missed, m.Evaluated, m.Degraded
	other.Issue, other.Served, other.Answers = m.Issue, m.Served, m.Answers
	for _, p := range []Push{m, other} {
		spliced := p.AppendSpliced(nil, tail)
		if want := p.Encode(); !bytes.Equal(spliced, want) {
			t.Fatalf("spliced push %q, AppendTo %q", spliced, want)
		}
		roundTrip(t, p)
	}
}

// answersFor keeps the fuzzed Push answers structurally canonical: Decode
// returns nil (not an empty slice) when no answer fields follow, so the
// round trip only includes Answers when there is at least one.
func answersFor(a, b string) []string {
	if b == "" {
		return nil
	}
	return []string{a, b}
}

func roundTrip(t *testing.T, msg any) {
	t.Helper()
	frame := msg.(encoder).Encode()
	fr, n, err := DecodeFrame(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("%T: decode: n=%d err=%v", msg, n, err)
	}
	got, err := Decode(fr)
	if err != nil {
		t.Fatalf("%T: %v", msg, err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("%T round trip:\n got %+v\nwant %+v", msg, got, msg)
	}
}
