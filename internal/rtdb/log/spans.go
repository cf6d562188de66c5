package log

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"

	"rtc/internal/timeseq"
)

// A snapshot's sample section is most of its bytes, and on a machine with
// more than one processor it is walked as spans, each on its own goroutine
// (walkSnapshot hands it over at the first sample record). The section is
// cut at image boundaries found without walking the frames before them
// (splitSpans), each span owns the images named from its first image's name
// up to the next span's, and each must end exactly where the next begins.
// Anything else fails the load's span path, and the load starts over as the
// one loop.

// errSpans reports that a span of a snapshot walk failed: the load starts
// over as the one loop (loadSnapshot), which decides what the bytes mean.
var errSpans = errors.New("log: a snapshot span failed")

// minSpan is the fewest bytes of the sample section a span is cut for:
// below it, the goroutine and the split cost more than the span saves.
const minSpan = 64 << 10

// span is one stretch of a snapshot's sample section, b[start:end]. It owns
// the images whose names are at least lo and, unless it is the last span,
// below hi, the next span's lo: it writes those images' histories and no
// others, and no other span writes them. The last span runs to its first
// record that is not a sample and sets end there.
type span struct {
	start, end int
	lo, hi     string
	last       bool
	frames     uint64 // records taken
	ok         bool   // every record taken, ending at end
}

// splitSpans cuts the rest of the snapshot image b from start, the first
// sample record, into min(procs, its bytes/minSpan) spans, or fewer when a
// split is not found; it returns nil for fewer than two. The k-th split of
// n is looked for from k/n of the way through (splitAt), and its image must
// sort after the previous split's, so the spans' image ranges are disjoint
// whatever the bytes say. Where the sample section ends is not known here:
// a split found past it fails the span before it, and so the span path.
func splitSpans(b []byte, start, procs int) []span {
	rest := len(b) - start
	n := min(procs, rest/minSpan)
	if n < 2 {
		return nil
	}
	spans := make([]span, 1, n)
	spans[0].start = start
	for k := 1; k < n; k++ {
		prev := &spans[len(spans)-1]
		at, name, ok := splitAt(b, max(start+rest/n*k, prev.start+1), rest/n)
		if !ok || name <= prev.lo {
			break
		}
		prev.end, prev.hi = at, name
		spans = append(spans, span{start: at, lo: name})
	}
	if len(spans) < 2 {
		return nil
	}
	last := &spans[len(spans)-1]
	last.end, last.last = len(b), true
	return spans
}

// splitAt finds the first image boundary at or after from: the first offset
// holding an intact sample frame (a length in range, $S@…$, a CRC that
// matches) whose image name needs no unescaping, and from there, frame by
// frame, the first sample of another image. That walk reads the frames'
// lengths and names only — the spans check every frame — and gives up after
// limit bytes or at a frame that is not such a sample.
func splitAt(b []byte, from, limit int) (at int, name string, ok bool) {
	for i := from; i < len(b); i++ {
		p, size, ok := sampleFrameAt(b[i:])
		if !ok {
			continue
		}
		first, ok := plainName(p)
		if !ok {
			continue
		}
		for j := i + size; j < i+limit && j+frameHeaderSize <= len(b); {
			end := j + frameHeaderSize + int(binary.LittleEndian.Uint32(b[j:]))
			if end > len(b) {
				return 0, "", false
			}
			nm, ok := plainName(b[j+frameHeaderSize : end])
			if !ok {
				return 0, "", false
			}
			if string(nm) != string(first) {
				return j, string(nm), true
			}
			j = end
		}
		return 0, "", false
	}
	return 0, "", false
}

// sampleFrameAt is frameAt for frames whose payload is $S@…$, with the
// cheap checks first: the split search asks it at every byte.
func sampleFrameAt(b []byte) (payload []byte, size int, ok bool) {
	if len(b) < frameHeaderSize+4 {
		return nil, 0, false
	}
	length := binary.LittleEndian.Uint32(b)
	if length < 4 || length > maxPayload || frameHeaderSize+int(length) > len(b) {
		return nil, 0, false
	}
	p := b[frameHeaderSize : frameHeaderSize+int(length)]
	if !isSample(p) || p[len(p)-1] != '$' {
		return nil, 0, false
	}
	return frameAt(b)
}

// plainName returns the image name of a sample payload, $S@t@name@…, when
// the name is all plain bytes up to its '@'.
func plainName(p []byte) ([]byte, bool) {
	if !isSample(p) {
		return nil, false
	}
	i := bytes.IndexByte(p[3:], '@')
	if i < 0 {
		return nil, false
	}
	rest := p[3+i+1:]
	n := special(rest)
	if n == len(rest) || rest[n] != '@' {
		return nil, false
	}
	return rest[:n], true
}

// walkSpans walks the spans over the snapshot image b into st, the first on
// the calling goroutine and each other on its own. It returns where the
// last span stopped and how many records the spans took, or false when any
// of them failed. The spans read st's catalog and names and write only the
// histories of the images they own.
func walkSpans(st *State, b []byte, spans []span, names map[string]string) (end int, frames uint64, ok bool) {
	// A span's run buffers are sized once, for an image's share of the
	// section (a span's, when there are fewer images than spans): as many
	// samples as the first sample's frame size goes into it, a quarter to
	// spare, and four value bytes each. A longer run grows them.
	first := frameHeaderSize + int(binary.LittleEndian.Uint32(b[spans[0].start:]))
	per := (len(b) - spans[0].start) / first / max(len(st.Images), len(spans))
	per += per / 4
	var wg sync.WaitGroup
	for i := 1; i < len(spans); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spans[i].walk(st, b, names, per)
		}()
	}
	spans[0].walk(st, b, names, per)
	wg.Wait()
	for _, sp := range spans {
		if !sp.ok {
			return 0, 0, false
		}
		frames += sp.frames
	}
	return spans[len(spans)-1].end, frames, true
}

// owns reports whether the span writes the history of image name.
func (sp *span) owns(name string) bool {
	return name >= sp.lo && (sp.last || name < sp.hi)
}

// walk takes the span's records as the one loop takes them: each frame's
// CRC checked, each plain sample parsed by sampleRun.add and the rest by
// decodeEvent, each appended to its image's history. A span other than the
// last must take samples only and end exactly at end, the next span's first
// byte; the last stops at its first record that is not a sample, for the
// one loop to take from there. A sample of an image the span does not own,
// or one no catalog record registered, fails the span.
//
// The walk's run and its count are its own until it returns: the spans sit
// side by side in one slice, and a field written per record would bounce
// its cache line between the processors.
func (sp *span) walk(st *State, b []byte, names map[string]string, per int) {
	run := sampleRun{at: make([]timeseq.Time, 0, per), ends: make([]int, 0, per), vals: make([]byte, 0, 4*per)}
	frames := uint64(0)
	w := frameWalk{b: b[:sp.end], off: sp.start}
	for {
		at := w.off
		payload, ok := w.next()
		if !ok {
			break
		}
		img := run.img
		if ok, err := run.add(st, payload); err != nil {
			return
		} else if ok {
			if run.img != img && !sp.owns(string(run.name)) {
				return
			}
			frames++
			continue
		}
		e, ok := decodeEvent(payload, names)
		if !ok || e.Kind != KindSample {
			if !sp.last {
				return
			}
			w.off = at
			break
		}
		to, ok := st.Images[e.Name]
		if !ok || !sp.owns(e.Name) {
			return
		}
		run.flush()
		to.add(e.At, e.Value)
		frames++
	}
	run.flush()
	if sp.last {
		sp.end = w.off
	}
	sp.frames, sp.ok = frames, w.off == sp.end
}
