package netserve

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"

	"rtc/internal/rtdb/sub"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// TestTickTailsSplice holds the writer's encoding — one tail per tick from
// tickTails, spliced behind each member's fields — to rtwire.Push.AppendTo
// byte for byte over random ticks, and decodes every frame back. Members of
// one tick share its answers slice; some differ from the tick in one tail
// field, some take a shorter slice over the same array, and the members of
// up to 24 ticks — more than the memo's slots — leave in a shuffled order,
// so a memo key that misses any field, or the slice's length, sends the
// wrong tail.
func TestTickTailsSplice(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	answerPool := []string{"ok", "high", "", "$@#%", "a%b", "x@y", "#1"}
	u64 := func() uint64 {
		switch rng.IntN(4) {
		case 0:
			return ^uint64(0)
		case 1:
			return 0
		}
		return rng.Uint64() >> rng.IntN(64)
	}
	tick := func() sub.Push {
		var answers []string
		for n := rng.IntN(4); len(answers) < n; {
			answers = append(answers, answerPool[rng.IntN(len(answerPool))])
		}
		return sub.Push{
			Useful: u64(), Missed: rng.IntN(2) == 0, Evaluated: rng.IntN(2) == 0, Degraded: rng.IntN(2) == 0,
			Issue: timeseq.Time(u64()), Served: timeseq.Time(u64()), Answers: answers,
		}
	}
	// member is one subscriber's push of tick p: its own head, and now and
	// then one tail field of its own.
	member := func(p sub.Push) sub.Push {
		p.Cursor, p.Expired = u64(), u64()
		switch rng.IntN(10) {
		case 0:
			p.Useful++
		case 1:
			p.Missed = !p.Missed
		case 2:
			p.Evaluated = !p.Evaluated
		case 3:
			p.Degraded = !p.Degraded
		case 4:
			p.Issue++
		case 5:
			p.Served--
		case 6:
			if len(p.Answers) > 0 {
				p.Answers = p.Answers[:len(p.Answers)-1]
			}
		}
		return p
	}
	var tails tickTails
	var frame []byte
	for round := 0; round < 400; round++ {
		var pushes []sub.Push
		for ticks := 1 + rng.IntN(24); ticks > 0; ticks-- {
			g := tick()
			for members := 1 + rng.IntN(6); members > 0; members-- {
				pushes = append(pushes, member(g))
			}
		}
		rng.Shuffle(len(pushes), func(i, j int) { pushes[i], pushes[j] = pushes[j], pushes[i] })
		for _, p := range pushes {
			id, dropped := u64(), u64()
			frame = rtwire.Push{ID: id, Cursor: p.Cursor, Dropped: dropped, Expired: p.Expired}.
				AppendSpliced(frame[:0], tails.of(p))
			want := rtwire.Push{
				ID: id, Cursor: p.Cursor, Dropped: dropped, Expired: p.Expired,
				Useful: p.Useful, Missed: p.Missed, Evaluated: p.Evaluated, Degraded: p.Degraded,
				Issue: p.Issue, Served: p.Served, Answers: p.Answers,
			}
			if wantBytes := want.AppendTo(nil); !bytes.Equal(frame, wantBytes) {
				t.Fatalf("round %d: spliced %q\nAppendTo %q", round, frame, wantBytes)
			}
			f, n, err := rtwire.DecodeFrame(frame)
			if err != nil || n != len(frame) {
				t.Fatalf("round %d: decode %q: n=%d err=%v", round, frame, n, err)
			}
			got, err := rtwire.DecodePush(f)
			if len(want.Answers) == 0 {
				want.Answers = nil // a push without answers decodes to nil
			}
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: decoded %+v, %v\nwant %+v", round, got, err, want)
			}
		}
	}
}
