package sub

import (
	"testing"

	"rtc/internal/deadline"
	"rtc/internal/timeseq"
)

// BenchmarkQueuePutPop is the per-push cost of the bounded delivery queue on
// its hot path: one evaluator put, one transport pop, no contention.
func BenchmarkQueuePutPop(b *testing.B) {
	q := NewQueue(64)
	p := Push{Cursor: 1, Useful: 1, Evaluated: true, Answers: []string{"high"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Cursor = uint64(i + 1)
		q.Put(p)
		if _, _, ok := q.Pop(); !ok {
			b.Fatal("pop missed a queued push")
		}
	}
}

// BenchmarkQueueDropOldest measures the shed path: a full queue dropping its
// head on every put, the slow-reader steady state.
func BenchmarkQueueDropOldest(b *testing.B) {
	q := NewQueue(4)
	p := Push{Cursor: 1, Useful: 1, Evaluated: true}
	for i := 0; i < 4; i++ {
		q.Put(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Cursor = uint64(i + 5)
		if !q.Put(p) {
			b.Fatal("full queue did not drop")
		}
	}
}

// BenchmarkSpecScore is the per-tick scoring cost a subscription member adds
// on top of the shared evaluation — exercised on the decayed-soft branch,
// the most expensive outcome class.
func BenchmarkSpecScore(b *testing.B) {
	s := Spec{
		Query: "q", Period: 2, Kind: deadline.Soft, Deadline: 8, MinUseful: 3,
		U: deadline.Hyperbolic(10, 8),
	}
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		useful, _ := s.Envelope().Score(timeseq.Time(8 + i%4))
		sink += useful
	}
	_ = sink
}
