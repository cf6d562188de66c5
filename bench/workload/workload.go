// Package workload generates rtbench's op streams from a seed. The timed
// run, the traced run and the per-layer replays all draw from the same
// generators, so a layer replay sees exactly the ops the stack saw, and a
// claim made on one seed can be re-checked on another. The package knows
// names and numbers only; it imports nothing of the system under test.
package workload

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strconv"
)

// The four workloads, in the order a full run visits them.
const (
	WireQuery     = "wire_query"
	WireIngestWAL = "wire_ingest_wal"
	SubFanout     = "sub_fanout"
	RecoverReplay = "recover_replay"
)

// Names lists the workloads in run order.
var Names = []string{WireQuery, WireIngestWAL, SubFanout, RecoverReplay}

// Catalog shape shared by every workload.
const (
	// Sensors is the size of the image bank sensor-00..sensor-63.
	Sensors = 64
	// Limit is the "limit" invariant: a value above it is hot.
	Limit = 25
	// MaxValue bounds sensor values to [0, MaxValue].
	MaxValue = 49
	// HotSensors is how many sensors end the wire_query preload above Limit.
	// It is the same for every seed (which sensors are hot is seeded), so
	// the hot_set_q Result frame has the same size on every run.
	HotSensors = 16
	// BatchSamples is the size of one durable ingest batch.
	BatchSamples = 64
	// RoundSamples is the number of temp samples in one sub_fanout round.
	RoundSamples = 32
	// HotQueryShare is 1/HotQueryShare of wire_query ops being hot_set_q.
	HotQueryShare = 4
)

var (
	sensorNames [Sensors]string
	latestNames [Sensors]string
	valueNames  [MaxValue + 1]string
)

func init() {
	for i := range sensorNames {
		sensorNames[i] = fmt.Sprintf("sensor-%02d", i)
		latestNames[i] = "latest_q/" + sensorNames[i]
	}
	for i := range valueNames {
		valueNames[i] = strconv.Itoa(i)
	}
}

// SensorName returns the image name of sensor i.
func SensorName(i int) string { return sensorNames[i] }

// LatestQuery returns the catalog name of the point read on sensor i.
func LatestQuery(i int) string { return latestNames[i] }

// HotSetQuery is the catalog name of the scan over all sensors.
const HotSetQuery = "hot_set_q"

// Value returns v as the string the stack stores; it never allocates.
func Value(v int) string { return valueNames[v] }

// Gen is one client's op stream for one workload: a PCG stream selected by
// (workload, seed, client), so clients draw independent streams and adding a
// client does not shift another's.
type Gen struct {
	r *rand.Rand
}

// New returns the stream of one client. Client -1 is the preload stream.
func New(workload string, seed uint64, client int) *Gen {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return &Gen{r: rand.New(rand.NewPCG(seed, h.Sum64()+uint64(client+1)))}
}

// Query draws one wire_query op: a point read on a uniform sensor, or (one
// op in HotQueryShare) the hot-set scan, for which sensor is -1.
func (g *Gen) Query() (sensor int) {
	if g.r.IntN(HotQueryShare) == 0 {
		return -1
	}
	return g.r.IntN(Sensors)
}

// Sample draws one ingest sample on a uniform sensor with a uniform value.
func (g *Gen) Sample() (sensor, value int) {
	return g.r.IntN(Sensors), g.r.IntN(MaxValue + 1)
}

// Temp draws one sub_fanout temperature, 18..29 around the limit of 25 as
// in rtdbd's demo, so status flips and the overheat rule fires on some.
func (g *Gen) Temp() int { return 18 + g.r.IntN(12) }

// Preload is wire_query's static history: perSensor samples on each sensor,
// seeded values, ending with exactly HotSensors sensors above Limit.
type Preload struct {
	// Final is each sensor's last value, the expected latest_q answer.
	Final [Sensors]int
	// Hot is the expected hot_set_q answer: hot sensor names in bank order.
	Hot []string
	g   *Gen
}

// NewPreload fixes the final values for a seed.
func NewPreload(seed uint64) *Preload {
	p := &Preload{g: New(WireQuery, seed, -1)}
	hot := p.g.r.Perm(Sensors)[:HotSensors]
	sort.Ints(hot)
	isHot := map[int]bool{}
	for _, s := range hot {
		isHot[s] = true
		p.Hot = append(p.Hot, SensorName(s))
	}
	for s := range p.Final {
		if isHot[s] {
			p.Final[s] = Limit + 1 + p.g.r.IntN(MaxValue-Limit)
		} else {
			p.Final[s] = p.g.r.IntN(Limit + 1)
		}
	}
	return p
}

// Each emits the history round-robin over the bank, oldest first; the last
// round carries Final.
func (p *Preload) Each(perSensor int, emit func(sensor, value int)) {
	for i := 0; i < perSensor-1; i++ {
		for s := 0; s < Sensors; s++ {
			emit(s, p.g.r.IntN(MaxValue+1))
		}
	}
	for s := 0; s < Sensors; s++ {
		emit(s, p.Final[s])
	}
}

// Dump renders the first n ops of one client's stream as text, one op per
// line. It exists so a test can pin that a seed fixes the stream.
func Dump(workload string, seed uint64, client, n int) []byte {
	var b []byte
	g := New(workload, seed, client)
	switch workload {
	case WireQuery:
		p := NewPreload(seed)
		b = fmt.Appendf(b, "hot %v\n", p.Hot)
		p.Each(2, func(s, v int) { b = fmt.Appendf(b, "preload %s %s\n", SensorName(s), Value(v)) })
		for i := 0; i < n; i++ {
			if s := g.Query(); s < 0 {
				b = fmt.Appendf(b, "query %s\n", HotSetQuery)
			} else {
				b = fmt.Appendf(b, "query %s\n", LatestQuery(s))
			}
		}
	case WireIngestWAL, RecoverReplay:
		for i := 0; i < n; i++ {
			s, v := g.Sample()
			b = fmt.Appendf(b, "sample %s %s\n", SensorName(s), Value(v))
		}
	case SubFanout:
		for i := 0; i < n; i++ {
			b = fmt.Appendf(b, "sample temp %s\n", Value(g.Temp()))
		}
	}
	return b
}
