package encoding

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"rtc/internal/word"
)

func TestNumRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 42, 1 << 40} {
		s := Num(v)
		got, ok := AsNum(s)
		if !ok || got != v {
			t.Errorf("AsNum(Num(%d)) = (%d,%v)", v, got, ok)
		}
	}
	if _, ok := AsNum(word.Symbol("a")); ok {
		t.Error("AsNum accepted a non-number")
	}
	if _, ok := AsNum(word.Symbol("#x")); ok {
		t.Error("AsNum accepted #x")
	}
}

func TestStrRoundTrip(t *testing.T) {
	for _, s := range []string{"", "abc", "Terre Sauvage", "a$b@c#d%e", "ünïcødé"} {
		syms := Str(s)
		got, ok := UnStr(syms)
		if !ok || got != s {
			t.Errorf("UnStr(Str(%q)) = (%q,%v)", s, got, ok)
		}
		// Delimiters must not appear raw in the payload.
		for _, sym := range syms {
			if sym == Dollar || sym == At {
				t.Errorf("Str(%q) leaks delimiter %q", s, sym)
			}
		}
	}
}

func TestStrRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		got, ok := UnStr(Str(s))
		return ok && got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	cases := [][]string{
		{"1"},
		{"1", "pos=3,4"},
		{"msg", "5", "2", "7", "payload with spaces"},
		{"weird$@#", "fields%"},
	}
	for _, fields := range cases {
		syms := Record(fields...)
		got, ok := ParseRecord(syms)
		if !ok {
			t.Fatalf("ParseRecord(Record(%v)) failed", fields)
		}
		if len(got) != len(fields) {
			t.Fatalf("fields = %v, want %v", got, fields)
		}
		for i := range fields {
			if got[i] != fields[i] {
				t.Fatalf("fields = %v, want %v", got, fields)
			}
		}
	}
}

func TestParseRecordRejectsGarbage(t *testing.T) {
	bad := [][]word.Symbol{
		{},
		{Dollar},
		{word.Symbol("a"), Dollar},
		{Dollar, word.Symbol("a")},
		{Dollar, Dollar, Dollar},
	}
	for _, syms := range bad {
		if _, ok := ParseRecord(syms); ok {
			t.Errorf("ParseRecord(%v) succeeded", syms)
		}
	}
}

func TestRecords(t *testing.T) {
	var syms []word.Symbol
	syms = append(syms, Record("a", "1")...)
	syms = append(syms, Record("b")...)
	recs, ok := Records(syms)
	if !ok || len(recs) != 2 {
		t.Fatalf("Records = %v, %v", recs, ok)
	}
	if recs[0][0] != "a" || recs[0][1] != "1" || recs[1][0] != "b" {
		t.Fatalf("Records = %v", recs)
	}
	// Trailing garbage fails.
	syms = append(syms, word.Symbol("x"))
	if _, ok := Records(syms); ok {
		t.Error("Records accepted trailing garbage")
	}
}

func TestTagged(t *testing.T) {
	// enc(i, i) = $e(i)$.
	rec, ok := ParseRecord(Tagged(7, ""))
	if !ok || len(rec) != 1 || rec[0] != "7" {
		t.Fatalf("Tagged(7, ) = %v", rec)
	}
	// enc(i, π) = $e(i)@e(π)$.
	rec, ok = ParseRecord(Tagged(7, "range=50"))
	if !ok || len(rec) != 2 || rec[0] != "7" || rec[1] != "range=50" {
		t.Fatalf("Tagged(7, range) = %v", rec)
	}
}

func TestInjectivity(t *testing.T) {
	// Distinct field lists must encode distinctly.
	a := String(Record("ab", "c"))
	b := String(Record("a", "bc"))
	if a == b {
		t.Error("Record not injective")
	}
}

// TestParseUintRejectsOverflow pins ParseUint to strconv.ParseUint's rule
// from both byte forms: the WAL and the wire share it, so a numeric field
// that would wrap is refused by both instead of decoding as a small number.
func TestParseUintRejectsOverflow(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0", 0, true},
		{"007", 7, true},
		{"18446744073709551615", math.MaxUint64, true},
		{"0000000000000000000000018446744073709551615", math.MaxUint64, true},
		{"18446744073709551616", 0, false},
		{"99999999999999999999", 0, false},    // 20 digits
		{"184467440737095516150", 0, false},   // 21 digits
		{"99999999999999999999999", 0, false}, // 23 digits: wrapped to 200376420520689663
		{"", 0, false},
		{"12x", 0, false},
		{"+1", 0, false},
		{"-1", 0, false},
		{" 1", 0, false},
		{"1_0", 0, false},
	}
	for _, tc := range cases {
		ref, refErr := strconv.ParseUint(tc.in, 10, 64)
		if (refErr == nil) != tc.ok || (tc.ok && ref != tc.want) {
			t.Fatalf("case %q disagrees with strconv.ParseUint: %d, %v", tc.in, ref, refErr)
		}
		if got, err := ParseUint(tc.in); (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseUint(string %q) = %d, %v; want %d, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if got, err := ParseUint([]byte(tc.in)); (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseUint([]byte %q) = %d, %v; want %d, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
