package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// maxSpansPerClient bounds the trace kept in memory; later spans are counted
// but not kept, and the count is written to the trace's header line.
const maxSpansPerClient = 100_000

// span is one timed call from the harness into a layer. parent is the index
// of the enclosing span in the same client's list, -1 for an op's root span.
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Time
}

// clientTracer is one load goroutine's span list; it takes no lock because
// only that goroutine appends to it.
type clientTracer struct {
	spans   []span
	ops     int
	dropped int
}

// begin opens the root span of the client's next op and returns its index.
func (t *clientTracer) begin(name string, start time.Time) int {
	t.ops++
	return t.add(name, -1, start, time.Time{})
}

// add records one finished child span (or an open root when end is zero).
func (t *clientTracer) add(name string, parent int, start, end time.Time) int {
	if len(t.spans) >= maxSpansPerClient {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, op: t.ops, parent: parent, start: start, end: end})
	return len(t.spans) - 1
}

// end closes a root span opened by begin.
func (t *clientTracer) end(i int, end time.Time) {
	if i >= 0 {
		t.spans[i].end = end
	}
}

// tracer holds the traced pass's spans in memory until the run ends.
type tracer struct {
	workload string
	t0       time.Time
	clients  []*clientTracer
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

func (t *tracer) client(i int) *clientTracer {
	for len(t.clients) <= i {
		t.clients = append(t.clients, &clientTracer{spans: make([]span, 0, maxSpansPerClient)})
	}
	return t.clients[i]
}

// selfTimes sums, per span name, duration minus the part covered by child
// spans, in seconds, with the span count.
func (t *tracer) selfTimes() (self map[string]float64, count map[string]int) {
	self, count = map[string]float64{}, map[string]int{}
	for _, c := range t.clients {
		child := make([]time.Duration, len(c.spans))
		for _, s := range c.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end.Sub(s.start)
			}
		}
		for i, s := range c.spans {
			self[s.name] += (s.end.Sub(s.start) - child[i]).Seconds()
			count[s.name]++
		}
	}
	return self, count
}

// write dumps the spans as JSON lines: a header, then one span per line with
// times in nanoseconds since the tracer was made.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	kept, dropped := 0, 0
	for _, c := range t.clients {
		kept += len(c.spans)
		dropped += c.dropped
	}
	fmt.Fprintf(w, `{"trace":"rtbench","workload":%q,"spans":%d,"dropped":%d}`+"\n", t.workload, kept, dropped)
	for ci, c := range t.clients {
		for i, s := range c.spans {
			parent := "null"
			if s.parent >= 0 {
				parent = fmt.Sprintf(`"c%d-%d"`, ci, s.parent)
			}
			fmt.Fprintf(w, `{"id":"c%d-%d","parent":%s,"name":%q,"workload":%q,"op":"c%d-%d","start_ns":%d,"end_ns":%d}`+"\n",
				ci, i, parent, s.name, t.workload, ci, s.op, s.start.Sub(t.t0).Nanoseconds(), s.end.Sub(t.t0).Nanoseconds())
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
