package encoding

import (
	"fmt"
	"math"
	"strconv"
)

// This file is the byte-level rendering of Record: the writer and the
// scanner the WAL (internal/rtdb/log) and the wire protocol (internal/rtwire)
// share. A record's bytes are String(Record(fields...)) — '$', the fields
// escaped as Str escapes them and separated by '@', '$' — but produced and
// consumed in one pass over a byte buffer, with no symbol slice and no
// intermediate strings. Record/ParseRecord remain the definition; the
// differential fuzzers in both packages hold this file to it.

// Bytes is a byte sequence in either of Go's two forms, so that a payload
// already held as a string is scanned without copying it.
type Bytes interface{ ~string | ~[]byte }

// AppendEscaped appends s under Str's escaping: the delimiter bytes '$',
// '@', '#', '%' become %-pairs, everything else passes through.
func AppendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch b := s[i]; b {
		case '$', '@', '#', '%':
			dst = append(dst, '%', b)
		default:
			dst = append(dst, b)
		}
	}
	return dst
}

// AppendUnescaped appends a raw field, as Scanner.Next returns it, with its
// %-pairs decoded.
func AppendUnescaped[T Bytes](dst []byte, raw T) []byte {
	for i := 0; i < len(raw); i++ {
		if raw[i] == '%' {
			i++
		}
		dst = append(dst, raw[i])
	}
	return dst
}

// FieldString decodes one raw field, as Scanner.Next returns it, into a
// string.
func FieldString[T Bytes](raw T, escaped bool) string {
	if !escaped {
		return string(raw)
	}
	var tmp [64]byte
	return string(AppendUnescaped(tmp[:0], raw))
}

// ParseUint reads one decimal field under strconv.ParseUint(s, 10, 64)'s
// rule — digits only, at least one, no sign, and the value must fit a
// uint64 — from either byte form, without converting it. It is the one
// numeric parser of the WAL and the wire, so a field one of them rejects
// the other rejects too.
func ParseUint[T Bytes](s T) (uint64, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("encoding: empty numeric field")
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("encoding: numeric field %q", s)
		}
		d := uint64(c - '0')
		if v > math.MaxUint64/10 || v*10 > math.MaxUint64-d {
			return 0, fmt.Errorf("encoding: numeric field %q overflows 64 bits", s)
		}
		v = v*10 + d
	}
	return v, nil
}

// RecordWriter renders one record into Buf, field by field.
type RecordWriter struct {
	Buf []byte
	n   int
}

// BeginRecord opens a record appended to dst.
func BeginRecord(dst []byte) RecordWriter {
	return RecordWriter{Buf: append(dst, '$')}
}

func (w *RecordWriter) sep() {
	if w.n > 0 {
		w.Buf = append(w.Buf, '@')
	}
	w.n++
}

// Str appends one string field, escaped.
func (w *RecordWriter) Str(f string) {
	w.sep()
	w.Buf = AppendEscaped(w.Buf, f)
}

// Uint appends one numeric field, as FieldUint formats it. Decimal digits
// never need escaping.
func (w *RecordWriter) Uint(v uint64) {
	w.sep()
	w.Buf = strconv.AppendUint(w.Buf, v, 10)
}

// Bool appends one boolean field as "0"/"1".
func (w *RecordWriter) Bool(v bool) {
	w.sep()
	if v {
		w.Buf = append(w.Buf, '1')
	} else {
		w.Buf = append(w.Buf, '0')
	}
}

// End closes the record and returns the buffer.
func (w *RecordWriter) End() []byte {
	w.Buf = append(w.Buf, '$')
	return w.Buf
}

// Scanner splits the bytes of one record into its raw fields. It accepts
// and rejects exactly what tokenizing the bytes into the symbol alphabet
// (an escape pair %x is one symbol, every other byte one) and running
// ParseRecord accepts and rejects: the record must be $-delimited, and
// inside it a dangling '%', an unescaped '$' or a '#' is malformed. Damage
// is reported by Bad once Next has returned false — a caller consumes the
// fields it needs, then checks.
type Scanner[T Bytes] struct {
	rest T
	more bool
	bad  bool
}

// Scan starts scanning one record.
func Scan[T Bytes](record T) Scanner[T] {
	if len(record) < 2 || record[0] != '$' || record[len(record)-1] != '$' {
		return Scanner[T]{bad: true}
	}
	return Scanner[T]{rest: record[1 : len(record)-1], more: true}
}

// Next returns the next field still escaped, and whether it holds any
// escape pair (a field without one is its own decoding). ok is false at the
// end of the record and from the first malformed byte on.
func (s *Scanner[T]) Next() (raw T, escaped, ok bool) {
	if !s.more {
		return raw, false, false
	}
	p := s.rest
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case '%':
			// The closing '$' is not part of rest, so a '%' in last place
			// is dangling (or swallowed the delimiter: "$…%$").
			if i+1 == len(p) {
				s.more, s.bad = false, true
				return raw, false, false
			}
			escaped = true
			i++
		case '@':
			s.rest = p[i+1:]
			return p[:i], escaped, true
		case '$', '#':
			s.more, s.bad = false, true
			return raw, false, false
		}
	}
	s.more = false
	return p, escaped, true
}

// Uint is Next and ParseUint in one pass for the field a number is almost
// always written as: 1–19 plain digits, ending at '@' or at the record's end,
// which cannot overflow. Such a field is consumed and its value returned.
// On any other field — escaped, empty, 20 digits or more, or followed by
// anything else — ok is false and nothing is consumed, so the caller reads it
// through Next and ParseUint, which decide it as they always did.
func (s *Scanner[T]) Uint() (v uint64, ok bool) {
	if !s.more {
		return 0, false
	}
	p := s.rest
	i := 0
	for n := min(len(p), 20); i < n; i++ {
		d := p[i] - '0' // a byte below '0' wraps past 9
		if d > 9 {
			break
		}
		v = v*10 + uint64(d)
	}
	if i == 0 || i == 20 || !s.endsAt(i) {
		return 0, false
	}
	return v, true
}

// Bool is Uint for a boolean field: exactly "0" or "1", ending at '@' or at
// the record's end, is consumed and returned; on any other field ok is false
// and nothing is consumed.
func (s *Scanner[T]) Bool() (v, ok bool) {
	if !s.more || len(s.rest) == 0 || (s.rest[0] != '0' && s.rest[0] != '1') {
		return false, false
	}
	v = s.rest[0] == '1'
	if !s.endsAt(1) {
		return false, false
	}
	return v, true
}

// endsAt consumes a field of n plain bytes when a separator or the record's
// end follows it, as Next would.
func (s *Scanner[T]) endsAt(n int) bool {
	switch {
	case n == len(s.rest):
		s.more = false
	case s.rest[n] == '@':
		s.rest = s.rest[n+1:]
	default:
		return false
	}
	return true
}

// Bad reports whether the scan hit malformed bytes.
func (s *Scanner[T]) Bad() bool { return s.bad }

// MaxFields bounds the number of fields Next has yet to return: one more
// than the separator bytes left, escaped ones included. It sizes a result
// slice before the scan without a validation pass of its own.
func (s *Scanner[T]) MaxFields() int {
	if !s.more {
		return 0
	}
	n := 1
	for i := 0; i < len(s.rest); i++ {
		if s.rest[i] == '@' {
			n++
		}
	}
	return n
}
