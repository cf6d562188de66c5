package encoding

import (
	"testing"
)

// FuzzStrRoundTrip: any string survives Str/UnStr.
func FuzzStrRoundTrip(f *testing.F) {
	for _, seed := range []string{"", "abc", "a$b@c#d%e", "Terre Sauvage", "%%%", "#42", "$@"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := UnStr(Str(s))
		if !ok {
			t.Fatalf("UnStr failed on Str(%q)", s)
		}
		if got != s {
			t.Fatalf("round trip %q → %q", s, got)
		}
	})
}

// FuzzRecordRoundTrip: any pair of fields survives Record/ParseRecord.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add("a", "b")
	f.Add("", "")
	f.Add("x$y", "#1@%")
	f.Fuzz(func(t *testing.T, a, b string) {
		rec, ok := ParseRecord(Record(a, b))
		if !ok || len(rec) != 2 || rec[0] != a || rec[1] != b {
			t.Fatalf("round trip (%q,%q) → %v (%v)", a, b, rec, ok)
		}
	})
}

// FuzzScannerFastPath holds Scanner.Uint and Scanner.Bool to Next followed
// by ParseUint or the "0"/"1" rule: wherever a fast read takes a field, it
// takes the very field Next returns, unescaped, with the value the slow
// parse gives; wherever it declines, nothing is consumed. Each step tries
// the read its mode byte picks, so either kind is tried at every field.
func FuzzScannerFastPath(f *testing.F) {
	for _, seed := range []string{
		"$1@0@1$", "$9999999999999999999@1$", "$18446744073709551615@0$",
		"$18446744073709551616$", "$0000000000000000007@00@01@2@@1$",
		"$%1%2@%0@1$", "$7#@1$", "$7$@1$", "$1@1#$", "$12@$", "$$", "$@$",
		"$1@x@%$", "$1@1",
	} {
		f.Add(seed, uint8(0b01011010))
	}
	f.Fuzz(func(t *testing.T, record string, modes uint8) {
		fast, slow := Scan(record), Scan(record)
		for i := 0; ; i++ {
			useBool := modes>>(i%8)&1 == 1
			var v uint64
			var took bool
			if useBool {
				var b bool
				if b, took = fast.Bool(); b {
					v = 1
				}
			} else {
				v, took = fast.Uint()
			}
			raw, escaped, ok := slow.Next()
			if !took {
				raw2, escaped2, ok2 := fast.Next()
				if raw2 != raw || escaped2 != escaped || ok2 != ok {
					t.Fatalf("%q field %d: declined read consumed input: %q, want %q", record, i, raw2, raw)
				}
				if !ok {
					break
				}
				continue
			}
			if !ok || escaped {
				t.Fatalf("%q field %d: fast read took %d where Next gives %q (ok %v, escaped %v)", record, i, v, raw, ok, escaped)
			}
			want, err := ParseUint(raw)
			if useBool && raw != "0" && raw != "1" || err != nil || want != v {
				t.Fatalf("%q field %d: fast read %d (bool %v), Next %q", record, i, v, useBool, raw)
			}
		}
		if fast.Bad() != slow.Bad() {
			t.Fatalf("%q: Bad %v after fast reads, %v after Next", record, fast.Bad(), slow.Bad())
		}
	})
}
